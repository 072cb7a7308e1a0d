#include <memory>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/knowledge_extractor.h"
#include "core/matcher.h"
#include "core/meta_features.h"
#include "data/content_hash.h"
#include "datagen/datasets.h"
#include "features/featurizer.h"
#include "features/signature.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"

namespace saged::core {
namespace {

/// Knowledge base with synthetic entries whose signatures are axis-aligned
/// unit vectors (no trained models needed for matcher tests).
KnowledgeBase FakeKb(size_t n_entries) {
  KnowledgeBase kb(16);
  for (size_t i = 0; i < n_entries; ++i) {
    BaseModelEntry entry;
    entry.dataset = "ds" + std::to_string(i / 4);
    entry.column = "col" + std::to_string(i);
    entry.signature.assign(features::kSignatureWidth, 0.0);
    entry.signature[i % 4] = 1.0;                   // type one-hot
    entry.signature[4 + i % 3] = 0.5;               // some stats
    entry.model = nullptr;
    kb.AddEntry(std::move(entry));
  }
  return kb;
}

/// The matcher MakeMatcher builds for `similarity` at the given knobs.
std::unique_ptr<Matcher> MatcherFor(const KnowledgeBase& kb,
                                    SimilarityMethod similarity,
                                    double threshold, size_t max_models,
                                    size_t n_clusters = 8, uint64_t seed = 42) {
  SagedConfig config;
  config.similarity = similarity;
  config.cosine_threshold = threshold;
  config.max_models_per_column = max_models;
  config.n_signature_clusters = n_clusters;
  config.seed = seed;
  auto matcher = MakeMatcher(config, &kb);
  EXPECT_TRUE(matcher.ok()) << matcher.status().ToString();
  return std::move(matcher).value();
}

TEST(KnowledgeBaseTest, CountsDatasets) {
  KnowledgeBase kb = FakeKb(8);
  EXPECT_EQ(kb.size(), 8u);
  EXPECT_EQ(kb.NumDatasets(), 2u);
  EXPECT_EQ(kb.SignatureMatrix().rows(), 8u);
  EXPECT_EQ(kb.SignatureMatrix().cols(), features::kSignatureWidth);
}

TEST(CosineMatcherTest, ThresholdFilters) {
  KnowledgeBase kb = FakeKb(8);
  auto matcher = MatcherFor(kb, SimilarityMethod::kCosine, 0.99, 16);
  // Query exactly equal to entry 0's signature.
  auto matches = matcher->Match(kb.entries()[0].signature);
  ASSERT_FALSE(matches.empty());
  for (size_t idx : matches) {
    EXPECT_GE(ml::CosineSimilarity(kb.entries()[idx].signature,
                                   kb.entries()[0].signature),
              0.99);
  }
}

TEST(CosineMatcherTest, FallsBackToMostSimilar) {
  KnowledgeBase kb = FakeKb(4);
  auto matcher =
      MatcherFor(kb, SimilarityMethod::kCosine, 1.1, 16);  // impossible bar
  std::vector<double> query(features::kSignatureWidth, 0.1);
  auto matches = matcher->Match(query);
  EXPECT_EQ(matches.size(), 1u);  // single best entry
}

TEST(CosineMatcherTest, CapsModelCount) {
  KnowledgeBase kb = FakeKb(12);
  // Accept everything, cap at 3.
  auto matcher = MatcherFor(kb, SimilarityMethod::kCosine, -1.0, 3);
  std::vector<double> query(features::kSignatureWidth, 0.1);
  auto matches = matcher->Match(query);
  EXPECT_EQ(matches.size(), 3u);
}

TEST(ClusterMatcherTest, AssignsToNearestCluster) {
  KnowledgeBase kb = FakeKb(12);
  auto matcher = MatcherFor(kb, SimilarityMethod::kClustering, 0.85, 16,
                            /*n_clusters=*/4, /*seed=*/7);
  // Querying with an existing entry's signature returns a cluster that
  // contains that entry.
  for (size_t i = 0; i < kb.size(); ++i) {
    auto matches = matcher->Match(kb.entries()[i].signature);
    EXPECT_FALSE(matches.empty());
    bool contains_self = false;
    for (size_t idx : matches) contains_self |= idx == i;
    EXPECT_TRUE(contains_self) << "entry " << i;
  }
}

// --- SelectRelevant determinism (the index-vs-scan parity foundation) ----------

/// Knowledge base where entries [0, n) share one signature — every
/// similarity is an exact tie, the worst case for truncation determinism.
KnowledgeBase TiedKb(size_t n_entries) {
  KnowledgeBase kb(16);
  for (size_t i = 0; i < n_entries; ++i) {
    BaseModelEntry entry;
    entry.dataset = "tied";
    entry.column = "col" + std::to_string(i);
    entry.signature.assign(features::kSignatureWidth, 0.0);
    entry.signature[0] = 1.0;
    kb.AddEntry(std::move(entry));
  }
  return kb;
}

TEST(SelectRelevantTest, TruncationTieBreaksByIndexNotArrivalOrder) {
  KnowledgeBase kb = TiedKb(10);
  std::vector<double> query(features::kSignatureWidth, 0.0);
  query[0] = 1.0;
  std::vector<size_t> ascending{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<size_t> descending(ascending.rbegin(), ascending.rend());
  auto a = SelectRelevant(kb, query, ascending, 0.5, 3);
  auto b = SelectRelevant(kb, query, descending, 0.5, 3);
  // All similarities tie at 1.0: the deterministic (similarity desc, index
  // asc) truncation key must pick the lowest indices either way — a
  // bucket-probing matcher may hand candidates over in any arrival order.
  EXPECT_EQ(a, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(a, b);
}

TEST(SelectRelevantTest, FallbackTieBreaksTowardLowestIndex) {
  KnowledgeBase kb = TiedKb(6);
  std::vector<double> query(features::kSignatureWidth, 0.0);
  query[0] = 1.0;
  std::vector<size_t> shuffled{4, 2, 5, 3};
  auto out = SelectRelevant(kb, query, shuffled, 1.1, 8);  // nothing clears
  EXPECT_EQ(out, (std::vector<size_t>{2}));
}

TEST(SelectRelevantTest, PrecomputedSimsOverloadMatchesComputePath) {
  KnowledgeBase kb = FakeKb(12);
  std::vector<double> query(features::kSignatureWidth, 0.1);
  std::vector<size_t> candidates{1, 3, 4, 7, 9, 11};
  std::vector<double> sims;
  for (size_t c : candidates) {
    sims.push_back(ml::CosineSimilarity(kb.entries()[c].signature, query));
  }
  for (double threshold : {0.2, 0.9, 1.1}) {
    auto computed = SelectRelevant(kb, query, candidates, threshold, 3);
    auto supplied = SelectRelevant(kb, query, candidates, sims, threshold, 3);
    EXPECT_EQ(computed, supplied) << "threshold=" << threshold;
  }
}

TEST(CosineMatcherTest, TiedEntriesTruncateDeterministically) {
  KnowledgeBase kb = TiedKb(10);
  auto matcher = MatcherFor(kb, SimilarityMethod::kCosine, 0.5, 4);
  auto matches = matcher->Match(kb.entries()[0].signature);
  EXPECT_EQ(matches, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ClusterMatcherTest, EmptyKbRejected) {
  KnowledgeBase kb(16);
  SagedConfig config;
  config.similarity = SimilarityMethod::kClustering;
  EXPECT_FALSE(MakeMatcher(config, &kb).ok());
}

TEST(MakeMatcherTest, BuildsBothKinds) {
  KnowledgeBase kb = FakeKb(8);
  SagedConfig config;
  config.similarity = SimilarityMethod::kCosine;
  EXPECT_TRUE(MakeMatcher(config, &kb).ok());
  config.similarity = SimilarityMethod::kClustering;
  EXPECT_TRUE(MakeMatcher(config, &kb).ok());
}

TEST(MakeMatcherTest, EmptyKbRejected) {
  KnowledgeBase kb(16);
  SagedConfig config;
  EXPECT_FALSE(MakeMatcher(config, &kb).ok());
}

// --- Clustering policy golden ---------------------------------------------------

/// FNV-1a over every selection (its size, then its indices) the clustering
/// policy makes for FakeKb(12)'s own signatures plus three off-axis queries.
uint64_t ClusteringSelectionDigest(size_t k, uint64_t seed, size_t max_models) {
  KnowledgeBase kb = FakeKb(12);
  auto matcher =
      MatcherFor(kb, SimilarityMethod::kClustering, 0.85, max_models, k, seed);
  std::vector<std::vector<double>> queries;
  for (const auto& entry : kb.entries()) queries.push_back(entry.signature);
  queries.emplace_back(features::kSignatureWidth, 0.1);
  std::vector<double> mixed(features::kSignatureWidth, 0.0);
  mixed[0] = 1.0;
  mixed[1] = 1.0;
  mixed[5] = 0.3;
  queries.push_back(mixed);
  std::vector<double> stats_only(features::kSignatureWidth, 0.0);
  stats_only[4] = 0.5;
  stats_only[6] = 0.5;
  stats_only[3] = 0.2;
  queries.push_back(stats_only);
  Fnv1a h;
  for (const auto& query : queries) {
    std::vector<size_t> selected = matcher->Match(query);
    h.Update(selected.size());
    for (size_t i : selected) h.Update(i);
  }
  return h.Digest();
}

// Selections recorded from the standalone K-Means matcher class that the
// clustering policy replaced, for every (k, seed, max_models) combination
// below: the policy must fit and probe exactly as it did.
TEST(ClusterMatcherTest, SelectionsMatchParentGolden) {
  struct Golden {
    size_t k;
    uint64_t seed;
    size_t max_models;
    uint64_t digest;
  };
  const Golden kGolden[] = {
      {1, 7, 3, 0x92f25dfb8d422be8ull},  {1, 7, 16, 0xd7055668ba98ea09ull},
      {1, 42, 3, 0x92f25dfb8d422be8ull}, {1, 42, 16, 0xd7055668ba98ea09ull},
      {4, 7, 3, 0x52e261ce22bb12aaull},  {4, 7, 16, 0x52e261ce22bb12aaull},
      {4, 42, 3, 0xa5a454dcee2f46ebull}, {4, 42, 16, 0xa5a454dcee2f46ebull},
      {8, 7, 3, 0xcfe68317d790cb89ull},  {8, 7, 16, 0xcfe68317d790cb89ull},
      {8, 42, 3, 0x764a627a679b814full}, {8, 42, 16, 0x764a627a679b814full},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(ClusteringSelectionDigest(g.k, g.seed, g.max_models), g.digest)
        << "k=" << g.k << " seed=" << g.seed
        << " max_models=" << g.max_models;
  }
}

// --- Knowledge extraction over real generated data -----------------------------

TEST(KnowledgeExtractorTest, TrainsOneModelPerUsableColumn) {
  datagen::MakeOptions gen;
  gen.rows = 150;
  auto ds = datagen::MakeDataset("beers", gen);
  ASSERT_TRUE(ds.ok());
  SagedConfig config;
  config.w2v.epochs = 1;
  KnowledgeBase kb(config.char_slots);
  KnowledgeExtractor extractor(config);
  ASSERT_TRUE(extractor.AddDataset(ds->dirty, ds->mask, &kb).ok());
  // Every column with both classes present yields one entry.
  EXPECT_GT(kb.size(), 0u);
  EXPECT_LE(kb.size(), ds->dirty.NumCols());
  for (const auto& entry : kb.entries()) {
    EXPECT_EQ(entry.dataset, ds->dirty.name());
    EXPECT_NE(entry.model, nullptr);
    EXPECT_EQ(entry.signature.size(), features::kSignatureWidth);
  }
}

TEST(KnowledgeExtractorTest, RejectsShapeMismatch) {
  datagen::MakeOptions gen;
  gen.rows = 30;
  auto ds = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(ds.ok());
  SagedConfig config;
  KnowledgeBase kb(config.char_slots);
  KnowledgeExtractor extractor(config);
  ErrorMask wrong(10, 2);
  EXPECT_FALSE(extractor.AddDataset(ds->dirty, wrong, &kb).ok());
}

TEST(MetaFeaturesTest, ShapeAndProbabilityRange) {
  datagen::MakeOptions gen;
  gen.rows = 120;
  auto ds = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(ds.ok());
  SagedConfig config;
  config.w2v.epochs = 1;
  KnowledgeBase kb(config.char_slots);
  KnowledgeExtractor extractor(config);
  ASSERT_TRUE(extractor.AddDataset(ds->dirty, ds->mask, &kb).ok());
  ASSERT_GT(kb.size(), 1u);

  // Featurize one column and run two base models over it.
  text::Word2Vec w2v(config.w2v, 1);
  std::vector<std::vector<std::string>> docs;
  for (size_t r = 0; r < ds->dirty.NumRows(); ++r) {
    docs.push_back(text::TupleTokens(ds->dirty.Row(r)));
  }
  ASSERT_TRUE(w2v.Train(docs).ok());
  features::ColumnFeaturizer featurizer(&w2v, &kb.char_space());
  auto feats = featurizer.Featurize(ds->dirty.column(0));
  ASSERT_TRUE(feats.ok());

  auto meta = BuildMetaFeatures(*feats, kb, {0, 1});
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->rows(), ds->dirty.NumRows());
  EXPECT_EQ(meta->cols(), 2u);
  for (double v : meta->data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MetaFeaturesTest, RejectsEmptyModelSet) {
  KnowledgeBase kb(16);
  ml::Matrix feats(3, 4);
  EXPECT_FALSE(BuildMetaFeatures(feats, kb, {}).ok());
}

TEST(MetaFeaturesTest, RejectsOutOfRangeIndex) {
  KnowledgeBase kb = FakeKb(2);
  ml::Matrix feats(3, 4);
  EXPECT_FALSE(BuildMetaFeatures(feats, kb, {5}).ok());
}

}  // namespace
}  // namespace saged::core
