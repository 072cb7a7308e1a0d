// Tests for the signature index (core/signature_index.h): deterministic
// builds, probe-order semantics, serialization, and above all the parity
// contract the unified matcher rests on — the indexed policy at probe=all
// selects byte-identically to the cosine scan, and a probe's packed-copy
// similarities select byte-identically to similarities recomputed from the
// entries at every probe count. Matching reads signatures only, so entries
// here carry no trained models; corpus datasets supply realistic,
// heterogeneous signatures.

#include "core/signature_index.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/matcher.h"
#include "datagen/datasets.h"
#include "features/signature.h"
#include "ml/matrix.h"

namespace saged::core {
namespace {

// Inventory datasets are corpus indices [0, n); queries start far above so
// they are always held out.
constexpr size_t kQueryBase = 500'000;

/// Knowledge base of real column signatures over `n_datasets` corpus
/// datasets — no models, matching never reads them.
KnowledgeBase CorpusKb(size_t n_datasets) {
  KnowledgeBase kb;
  for (size_t i = 0; i < n_datasets; ++i) {
    auto ds = datagen::MakeCorpusDataset(i, {});
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    for (const auto& column : ds->dirty.columns()) {
      BaseModelEntry entry;
      entry.dataset = ds->dirty.name();
      entry.column = column.name();
      entry.signature = features::ColumnSignature(column);
      kb.AddEntry(std::move(entry));
    }
  }
  return kb;
}

std::vector<std::vector<double>> HeldOutQueries(size_t n_datasets) {
  std::vector<std::vector<double>> queries;
  for (size_t i = 0; i < n_datasets; ++i) {
    auto ds = datagen::MakeCorpusDataset(kQueryBase + i, {});
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    for (const auto& column : ds->dirty.columns()) {
      queries.push_back(features::ColumnSignature(column));
    }
  }
  return queries;
}

SignatureIndex BuildIndex(const KnowledgeBase& kb, size_t n_buckets) {
  auto index = SignatureIndex::Build(kb.SignatureMatrix(), n_buckets, 42);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

/// Save/Load round trip over `kb`'s signatures.
SignatureIndex RoundTrip(const SignatureIndex& index, const KnowledgeBase& kb) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  index.Save(&writer);
  EXPECT_TRUE(writer.ok());
  BinaryReader reader(&buf);
  auto loaded = SignatureIndex::Load(&reader, kb.SignatureMatrix());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

/// The matcher MakeMatcher builds for `similarity` over `kb`.
std::unique_ptr<Matcher> MatcherFor(const KnowledgeBase& kb,
                                    SimilarityMethod similarity,
                                    size_t index_probes = 0,
                                    double threshold = 0.85) {
  SagedConfig config;
  config.similarity = similarity;
  config.index_probes = index_probes;
  config.cosine_threshold = threshold;
  auto matcher = MakeMatcher(config, &kb);
  EXPECT_TRUE(matcher.ok()) << matcher.status().ToString();
  return std::move(matcher).value();
}

// --- SignatureIndex ---------------------------------------------------------

TEST(SignatureIndexTest, EmptyKnowledgeBaseRejected) {
  KnowledgeBase kb;
  EXPECT_FALSE(SignatureIndex::Build(kb.SignatureMatrix(), 0, 42).ok());
}

TEST(SignatureIndexTest, AutoDefaultsAreSane) {
  EXPECT_EQ(SignatureIndex::AutoBuckets(0), 1u);
  EXPECT_EQ(SignatureIndex::AutoBuckets(100), 10u);
  EXPECT_EQ(SignatureIndex::AutoBuckets(101), 11u);
  EXPECT_EQ(SignatureIndex::AutoProbes(1), 1u);    // clamped to n_buckets
  EXPECT_EQ(SignatureIndex::AutoProbes(10), 4u);   // floor of 4
  EXPECT_EQ(SignatureIndex::AutoProbes(200), 6u);  // n_buckets / 32
}

TEST(SignatureIndexTest, BuildIsDeterministic) {
  KnowledgeBase kb = CorpusKb(40);
  SignatureIndex a = BuildIndex(kb, 8);
  SignatureIndex b = BuildIndex(kb, 8);
  EXPECT_EQ(a.assignments(), b.assignments());
  ASSERT_EQ(a.n_buckets(), b.n_buckets());
  EXPECT_EQ(a.buckets(), b.buckets());
}

TEST(SignatureIndexTest, EveryEntryAssignedToExactlyOneBucket) {
  KnowledgeBase kb = CorpusKb(40);
  SignatureIndex index = BuildIndex(kb, 8);
  EXPECT_EQ(index.n_entries(), kb.size());
  size_t total = 0;
  for (const auto& members : index.buckets()) {
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    total += members.size();
  }
  EXPECT_EQ(total, kb.size());
}

TEST(SignatureIndexTest, TopBucketsEqualsProbeOrderPrefix) {
  KnowledgeBase kb = CorpusKb(60);
  SignatureIndex index = BuildIndex(kb, 12);
  for (const auto& query : HeldOutQueries(4)) {
    std::vector<size_t> full = index.TopBuckets(query, index.n_buckets());
    ASSERT_EQ(full.size(), index.n_buckets());
    for (size_t probes : {size_t{1}, size_t{3}, index.n_buckets()}) {
      std::vector<size_t> top = index.TopBuckets(query, probes);
      ASSERT_EQ(top.size(), probes);
      EXPECT_TRUE(std::equal(top.begin(), top.end(), full.begin()))
          << "TopBuckets(" << probes << ") is not the full order's prefix";
    }
  }
}

TEST(SignatureIndexTest, CandidatesAscendingAndFromProbedBuckets) {
  KnowledgeBase kb = CorpusKb(60);
  SignatureIndex index = BuildIndex(kb, 12);
  for (const auto& query : HeldOutQueries(4)) {
    const size_t probes = 3;
    std::vector<size_t> candidates = index.Probe(query, probes).entries;
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    // Same multiset as the union of the probed buckets' members.
    std::vector<size_t> expected;
    for (size_t bucket : index.TopBuckets(query, probes)) {
      const auto& members = index.buckets()[bucket];
      expected.insert(expected.end(), members.begin(), members.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(candidates, expected);
  }
}

TEST(SignatureIndexTest, ProbeAllCandidatesAreEveryEntryAscending) {
  KnowledgeBase kb = CorpusKb(30);
  SignatureIndex index = BuildIndex(kb, 6);
  std::vector<size_t> all =
      index.Probe(HeldOutQueries(1).front(), index.n_buckets()).entries;
  ASSERT_EQ(all.size(), kb.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(SignatureIndexTest, SaveLoadRoundTrips) {
  KnowledgeBase kb = CorpusKb(40);
  SignatureIndex index = BuildIndex(kb, 8);
  SignatureIndex loaded = RoundTrip(index, kb);
  EXPECT_EQ(loaded.assignments(), index.assignments());
  EXPECT_EQ(loaded.buckets(), index.buckets());
  // Load packs, so a loaded index probes exactly like the built one.
  for (const auto& query : HeldOutQueries(2)) {
    EXPECT_EQ(loaded.Probe(query, 3).entries, index.Probe(query, 3).entries);
    EXPECT_EQ(loaded.Probe(query, 3).sims, index.Probe(query, 3).sims);
  }
}

TEST(SignatureIndexTest, PackedRowsAreExactSignatureCopies) {
  KnowledgeBase kb = CorpusKb(40);
  SignatureIndex index = BuildIndex(kb, 8);
  for (const auto& query : HeldOutQueries(2)) {
    for (size_t probes : {size_t{1}, size_t{3}, index.n_buckets()}) {
      SignatureIndex::Probed probed = index.Probe(query, probes);
      ASSERT_EQ(probed.sims.size(), probed.entries.size());
      for (size_t i = 0; i < probed.entries.size(); ++i) {
        // Bit-exact copies are what makes packed similarities identical.
        EXPECT_EQ(probed.sims[i],
                  ml::CosineSimilarity(
                      kb.entries()[probed.entries[i]].signature, query));
      }
    }
  }
}

TEST(SignatureIndexTest, CorruptStreamRejected) {
  std::stringstream buf("garbage that is not an index");
  BinaryReader reader(&buf);
  EXPECT_FALSE(SignatureIndex::Load(&reader, ml::Matrix()).ok());
}

/// kSignatureWidth-wide rows, one per entry: the signatures Load packs.
ml::Matrix Signatures(size_t n_entries) {
  return ml::Matrix(n_entries, features::kSignatureWidth, 0.5);
}

// 2^32 centroid rows: the element count passes the length cap, so an
// unchecked reader would size a matrix the file cannot fill.
TEST(SignatureIndexTest, OverflowingCentroidShapeRejected) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU64(BinaryReader::kMaxLength);
  writer.WriteU64(features::kSignatureWidth);
  writer.WriteF64(1.0);
  BinaryReader reader(&buf);
  auto index = SignatureIndex::Load(&reader, Signatures(2));
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIoError);
}

// A 512-wide centroid against 12-wide queries: TopBuckets would read past
// each query (the distance kernel's size check is debug-only).
TEST(SignatureIndexTest, WrongCentroidWidthRejected) {
  for (uint64_t cols : {uint64_t{0}, uint64_t{11}, uint64_t{512}}) {
    std::stringstream buf;
    BinaryWriter writer(&buf);
    writer.WriteU64(1);
    writer.WriteU64(cols);
    for (uint64_t c = 0; c < cols; ++c) writer.WriteF64(0.5);
    writer.WriteU64(1);
    writer.WriteU32(0);
    BinaryReader reader(&buf);
    auto index = SignatureIndex::Load(&reader, Signatures(1));
    ASSERT_FALSE(index.ok()) << "cols=" << cols;
    EXPECT_EQ(index.status().code(), StatusCode::kIoError);
  }
}

TEST(SignatureIndexTest, HugeAssignmentCountRejected) {
  for (uint64_t cols : {uint64_t{0}, uint64_t{features::kSignatureWidth}}) {
    std::stringstream buf;
    BinaryWriter writer(&buf);
    writer.WriteU64(1);
    writer.WriteU64(cols);
    for (uint64_t c = 0; c < cols; ++c) writer.WriteF64(0.5);
    writer.WriteU64(BinaryReader::kMaxLength);
    writer.WriteU32(0);
    writer.WriteU32(0);
    BinaryReader reader(&buf);
    auto index = SignatureIndex::Load(&reader, Signatures(2));
    ASSERT_FALSE(index.ok()) << "cols=" << cols;
    EXPECT_EQ(index.status().code(), StatusCode::kIoError);
  }
}

// More buckets than entries cannot come from K-Means.
TEST(SignatureIndexTest, MoreBucketsThanEntriesRejected) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU64(2);
  writer.WriteU64(features::kSignatureWidth);
  for (size_t c = 0; c < 2 * features::kSignatureWidth; ++c) {
    writer.WriteF64(0.5);
  }
  writer.WriteU64(1);
  writer.WriteU32(0);
  BinaryReader reader(&buf);
  auto index = SignatureIndex::Load(&reader, Signatures(1));
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIoError);
}

// --- Indexed policy parity ---------------------------------------------------

/// Builds `kb`'s normalized index (auto buckets) and attaches it.
const SignatureIndex& WithIndex(KnowledgeBase* kb) {
  kb->set_signature_index(
      std::make_shared<const SignatureIndex>(BuildIndex(*kb, 0)));
  return *kb->signature_index();
}

TEST(IndexedMatcherTest, ProbeAllIsByteIdenticalToCosineMatcher) {
  KnowledgeBase kb = CorpusKb(120);
  const SignatureIndex& index = WithIndex(&kb);
  auto exact = MatcherFor(kb, SimilarityMethod::kCosine);
  auto probe_all =
      MatcherFor(kb, SimilarityMethod::kIndexed, index.n_buckets());
  for (const auto& query : HeldOutQueries(8)) {
    EXPECT_EQ(probe_all->Match(query), exact->Match(query));
  }
  // The fallback branch (nothing clears the bar) must agree too.
  auto exact_fb = MatcherFor(kb, SimilarityMethod::kCosine, 0, 1.1);
  auto probe_all_fb =
      MatcherFor(kb, SimilarityMethod::kIndexed, index.n_buckets(), 1.1);
  for (const auto& query : HeldOutQueries(4)) {
    EXPECT_EQ(probe_all_fb->Match(query), exact_fb->Match(query));
  }
}

// The packed copy's similarities select exactly what similarities
// recomputed from the entries select, for a built and a loaded index alike.
TEST(IndexedMatcherTest, PackedFastPathMatchesUnpackedSlowPath) {
  KnowledgeBase kb = CorpusKb(120);
  const SignatureIndex& index = WithIndex(&kb);
  KnowledgeBase loaded_kb = CorpusKb(120);
  loaded_kb.set_signature_index(
      std::make_shared<const SignatureIndex>(RoundTrip(index, kb)));
  SagedConfig config;
  for (size_t probes :
       {size_t{1}, size_t{2}, SignatureIndex::AutoProbes(index.n_buckets())}) {
    auto fast = MatcherFor(kb, SimilarityMethod::kIndexed, probes);
    auto loaded = MatcherFor(loaded_kb, SimilarityMethod::kIndexed, probes);
    for (const auto& query : HeldOutQueries(8)) {
      std::vector<size_t> slow =
          SelectRelevant(kb, query, index.Probe(query, probes).entries,
                         config.cosine_threshold,
                         config.max_models_per_column);
      EXPECT_EQ(fast->Match(query), slow) << "probes=" << probes;
      EXPECT_EQ(loaded->Match(query), slow) << "probes=" << probes;
    }
  }
}

TEST(IndexedMatcherTest, DefaultProbesRecallAtLeastPointNineFive) {
  KnowledgeBase kb = CorpusKb(150);
  WithIndex(&kb);
  auto exact = MatcherFor(kb, SimilarityMethod::kCosine);
  auto fast = MatcherFor(kb, SimilarityMethod::kIndexed);
  size_t expected = 0, reproduced = 0;
  for (const auto& query : HeldOutQueries(10)) {
    std::vector<size_t> truth = exact->Match(query);
    std::vector<size_t> approx = fast->Match(query);
    expected += truth.size();
    for (size_t e : truth) {
      if (std::find(approx.begin(), approx.end(), e) != approx.end()) {
        ++reproduced;
      }
    }
  }
  ASSERT_GT(expected, 0u);
  EXPECT_GE(static_cast<double>(reproduced) / static_cast<double>(expected),
            0.95);
}

TEST(IndexedMatcherTest, AttachIndexWiresMakeMatcher) {
  KnowledgeBase kb = CorpusKb(40);
  SagedConfig config;
  config.similarity = SimilarityMethod::kIndexed;

  // Without an index the similarity method is an error, not a silent
  // fallback.
  EXPECT_FALSE(MakeMatcher(config, &kb).ok());

  WithIndex(&kb);
  auto matcher = MakeMatcher(config, &kb);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  EXPECT_FALSE((*matcher)->Match(HeldOutQueries(1).front()).empty());

  // A knowledge base the index does not cover is rejected.
  KnowledgeBase other = CorpusKb(10);
  other.set_signature_index(kb.signature_index());
  EXPECT_FALSE(MakeMatcher(config, &other).ok());
}

// A loaded index whose bucket 1 is empty and centred on the query: probing
// that one bucket finds no candidate, and the matcher must still return the
// knowledge base's most similar entry, exactly as the cosine scan does.
TEST(IndexedMatcherTest, EmptyProbedBucketsFallBackToMostSimilar) {
  KnowledgeBase kb;
  for (size_t i = 0; i < 4; ++i) {
    BaseModelEntry entry;
    entry.dataset = "ds";
    entry.column = "col" + std::to_string(i);
    entry.signature.assign(features::kSignatureWidth, 0.0);
    entry.signature[i] = 1.0;
    kb.AddEntry(std::move(entry));
  }
  std::vector<double> query(features::kSignatureWidth, 0.0);
  query[5] = 1.0;
  query[2] = 0.1;

  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU64(2);
  writer.WriteU64(features::kSignatureWidth);
  for (size_t c = 0; c < features::kSignatureWidth; ++c) {
    writer.WriteF64(c < 4 ? 0.5 : 0.0);  // bucket 0: every entry
  }
  const double norm = std::sqrt(1.0 + 0.01);
  for (double v : query) writer.WriteF64(v / norm);  // bucket 1: the query
  writer.WriteU64(4);
  for (int e = 0; e < 4; ++e) writer.WriteU32(0);
  BinaryReader reader(&buf);
  auto index = SignatureIndex::Load(&reader, kb.SignatureMatrix());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index->buckets()[1].empty());
  ASSERT_EQ(index->TopBuckets(query, 1), std::vector<size_t>{1});
  kb.set_signature_index(
      std::make_shared<const SignatureIndex>(std::move(index).value()));

  std::vector<size_t> cosine =
      MatcherFor(kb, SimilarityMethod::kCosine)->Match(query);
  EXPECT_EQ(cosine, std::vector<size_t>{2});
  EXPECT_EQ(MatcherFor(kb, SimilarityMethod::kIndexed, 1)->Match(query),
            cosine);
}

}  // namespace
}  // namespace saged::core
