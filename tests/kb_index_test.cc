// Tests for the kb/ signature index: deterministic builds, probe-order
// semantics, serialization, and above all the parity contract the tentpole
// rests on — IndexedMatcher at probe=all selects byte-identically to
// CosineMatcher, and the packed fast path (bucket-major contiguous scan)
// selects byte-identically to the unpacked candidate path at every probe
// count. Matching reads signatures only, so entries here carry no trained
// models; corpus datasets supply realistic, heterogeneous signatures.

#include "kb/signature_index.h"

#include <algorithm>
#include <cstddef>
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

namespace saged::kb {
namespace {

// Inventory datasets are corpus indices [0, n); queries start far above so
// they are always held out.
constexpr size_t kQueryBase = 500'000;

/// Knowledge base of real column signatures over `n_datasets` corpus
/// datasets — no models, matching never reads them.
core::KnowledgeBase CorpusKb(size_t n_datasets) {
  core::KnowledgeBase kb;
  for (size_t i = 0; i < n_datasets; ++i) {
    auto ds = datagen::MakeCorpusDataset(i, {});
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    for (const auto& column : ds->dirty.columns()) {
      core::BaseModelEntry entry;
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

/// Save/Load round trip — the loaded index has centroids + assignments but
/// no packed signature matrix, which is exactly the IndexedMatcher slow
/// path.
SignatureIndex Unpacked(const SignatureIndex& index) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  index.Save(&writer);
  EXPECT_TRUE(writer.ok());
  BinaryReader reader(&buf);
  auto loaded = SignatureIndex::Load(&reader);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

// --- SignatureIndex ---------------------------------------------------------

TEST(SignatureIndexTest, EmptyKnowledgeBaseRejected) {
  core::KnowledgeBase kb;
  EXPECT_FALSE(SignatureIndex::Build(kb, 0, 42).ok());
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
  core::KnowledgeBase kb = CorpusKb(40);
  auto a = SignatureIndex::Build(kb, 8, 42);
  auto b = SignatureIndex::Build(kb, 8, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments(), b->assignments());
  ASSERT_EQ(a->n_buckets(), b->n_buckets());
  EXPECT_EQ(a->buckets(), b->buckets());
}

TEST(SignatureIndexTest, EveryEntryAssignedToExactlyOneBucket) {
  core::KnowledgeBase kb = CorpusKb(40);
  auto index = SignatureIndex::Build(kb, 8, 42);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->n_entries(), kb.size());
  size_t total = 0;
  for (const auto& members : index->buckets()) {
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    total += members.size();
  }
  EXPECT_EQ(total, kb.size());
}

TEST(SignatureIndexTest, TopBucketsEqualsProbeOrderPrefix) {
  core::KnowledgeBase kb = CorpusKb(60);
  auto index = SignatureIndex::Build(kb, 12, 42);
  ASSERT_TRUE(index.ok());
  for (const auto& query : HeldOutQueries(4)) {
    std::vector<size_t> full = index->ProbeOrder(query);
    ASSERT_EQ(full.size(), index->n_buckets());
    for (size_t probes : {size_t{1}, size_t{3}, index->n_buckets()}) {
      std::vector<size_t> top = index->TopBuckets(query, probes);
      ASSERT_EQ(top.size(), probes);
      EXPECT_TRUE(std::equal(top.begin(), top.end(), full.begin()))
          << "TopBuckets(" << probes << ") is not ProbeOrder's prefix";
    }
  }
}

TEST(SignatureIndexTest, CandidatesAscendingAndFromProbedBuckets) {
  core::KnowledgeBase kb = CorpusKb(60);
  auto index = SignatureIndex::Build(kb, 12, 42);
  ASSERT_TRUE(index.ok());
  for (const auto& query : HeldOutQueries(4)) {
    const size_t probes = 3;
    std::vector<size_t> candidates = index->Candidates(query, probes);
    EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
    // Same multiset as the union of the probed buckets' members.
    std::vector<size_t> expected;
    for (size_t bucket : index->TopBuckets(query, probes)) {
      const auto& members = index->buckets()[bucket];
      expected.insert(expected.end(), members.begin(), members.end());
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(candidates, expected);
  }
}

TEST(SignatureIndexTest, ProbeAllCandidatesAreEveryEntryAscending) {
  core::KnowledgeBase kb = CorpusKb(30);
  auto index = SignatureIndex::Build(kb, 6, 42);
  ASSERT_TRUE(index.ok());
  std::vector<size_t> all =
      index->Candidates(HeldOutQueries(1).front(), index->n_buckets());
  ASSERT_EQ(all.size(), kb.size());
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(SignatureIndexTest, SaveLoadRoundTrips) {
  core::KnowledgeBase kb = CorpusKb(40);
  auto index = SignatureIndex::Build(kb, 8, 42);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->packed());  // Build packs automatically
  SignatureIndex loaded = Unpacked(*index);
  EXPECT_EQ(loaded.assignments(), index->assignments());
  EXPECT_EQ(loaded.buckets(), index->buckets());
  EXPECT_FALSE(loaded.packed());  // packing is the owner's job after Load
  loaded.PackSignatures(kb);
  EXPECT_TRUE(loaded.packed());
}

TEST(SignatureIndexTest, PackedRowsAreExactSignatureCopies) {
  core::KnowledgeBase kb = CorpusKb(40);
  auto index = SignatureIndex::Build(kb, 8, 42);
  ASSERT_TRUE(index.ok());
  size_t row = 0;
  for (size_t b = 0; b < index->n_buckets(); ++b) {
    EXPECT_EQ(index->packed_begin(b), row);
    for (size_t e : index->buckets()[b]) {
      auto packed_row = index->packed_signatures().Row(row);
      const auto& signature = kb.entries()[e].signature;
      ASSERT_EQ(packed_row.size(), signature.size());
      for (size_t i = 0; i < signature.size(); ++i) {
        // Bit-exact copies are what makes fast-path similarities identical.
        EXPECT_EQ(packed_row[i], signature[i]);
      }
      ++row;
    }
  }
}

TEST(SignatureIndexTest, CorruptStreamRejected) {
  std::stringstream buf("garbage that is not an index");
  BinaryReader reader(&buf);
  EXPECT_FALSE(SignatureIndex::Load(&reader).ok());
}

// 2^32 x 2^32 centroids: the element count wraps to 0 in 64 bits, so an
// unchecked reader sizes an empty matrix and writes past it.
TEST(SignatureIndexTest, OverflowingCentroidShapeRejected) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU64(BinaryReader::kMaxLength);
  writer.WriteU64(BinaryReader::kMaxLength);
  writer.WriteF64(1.0);
  BinaryReader reader(&buf);
  auto index = SignatureIndex::Load(&reader);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIoError);
}

TEST(SignatureIndexTest, HugeAssignmentCountRejected) {
  for (uint64_t cols : {uint64_t{0}, uint64_t{2}}) {
    std::stringstream buf;
    BinaryWriter writer(&buf);
    writer.WriteU64(1);
    writer.WriteU64(cols);
    for (uint64_t c = 0; c < cols; ++c) writer.WriteF64(0.5);
    writer.WriteU64(BinaryReader::kMaxLength);
    writer.WriteU32(0);
    writer.WriteU32(0);
    BinaryReader reader(&buf);
    auto index = SignatureIndex::Load(&reader);
    ASSERT_FALSE(index.ok()) << "cols=" << cols;
    EXPECT_EQ(index.status().code(), StatusCode::kIoError);
  }
}

// More buckets than entries cannot come from K-Means; with zero-width
// centroids it would otherwise size a 2^32-bucket table from 16 bytes.
TEST(SignatureIndexTest, MoreBucketsThanEntriesRejected) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU64(BinaryReader::kMaxLength);
  writer.WriteU64(0);
  writer.WriteU64(1);
  writer.WriteU32(0);
  BinaryReader reader(&buf);
  auto index = SignatureIndex::Load(&reader);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kIoError);
}

// --- IndexedMatcher parity --------------------------------------------------

TEST(IndexedMatcherTest, ProbeAllIsByteIdenticalToCosineMatcher) {
  core::KnowledgeBase kb = CorpusKb(120);
  auto index = SignatureIndex::Build(kb, 0, 42);
  ASSERT_TRUE(index.ok());
  core::SagedConfig config;
  core::CosineMatcher exact(&kb, config.cosine_threshold,
                            config.max_models_per_column);
  IndexedMatcher probe_all(&kb, &*index, config.cosine_threshold,
                           config.max_models_per_column, index->n_buckets());
  for (const auto& query : HeldOutQueries(8)) {
    EXPECT_EQ(probe_all.Match(query), exact.Match(query));
  }
  // The fallback branch (nothing clears the bar) must agree too.
  core::CosineMatcher exact_fb(&kb, 1.1, config.max_models_per_column);
  IndexedMatcher probe_all_fb(&kb, &*index, 1.1, config.max_models_per_column,
                              index->n_buckets());
  for (const auto& query : HeldOutQueries(4)) {
    EXPECT_EQ(probe_all_fb.Match(query), exact_fb.Match(query));
  }
}

TEST(IndexedMatcherTest, PackedFastPathMatchesUnpackedSlowPath) {
  core::KnowledgeBase kb = CorpusKb(120);
  auto packed = SignatureIndex::Build(kb, 0, 42);
  ASSERT_TRUE(packed.ok());
  ASSERT_TRUE(packed->packed());
  SignatureIndex unpacked = Unpacked(*packed);
  ASSERT_FALSE(unpacked.packed());
  core::SagedConfig config;
  for (size_t probes :
       {size_t{1}, size_t{2}, SignatureIndex::AutoProbes(packed->n_buckets())}) {
    IndexedMatcher fast(&kb, &*packed, config.cosine_threshold,
                        config.max_models_per_column, probes);
    IndexedMatcher slow(&kb, &unpacked, config.cosine_threshold,
                        config.max_models_per_column, probes);
    for (const auto& query : HeldOutQueries(8)) {
      EXPECT_EQ(fast.Match(query), slow.Match(query)) << "probes=" << probes;
    }
  }
}

TEST(IndexedMatcherTest, DefaultProbesRecallAtLeastPointNineFive) {
  core::KnowledgeBase kb = CorpusKb(150);
  auto index = SignatureIndex::Build(kb, 0, 42);
  ASSERT_TRUE(index.ok());
  core::SagedConfig config;
  core::CosineMatcher exact(&kb, config.cosine_threshold,
                            config.max_models_per_column);
  IndexedMatcher fast(&kb, &*index, config.cosine_threshold,
                      config.max_models_per_column,
                      SignatureIndex::AutoProbes(index->n_buckets()));
  size_t expected = 0, reproduced = 0;
  for (const auto& query : HeldOutQueries(10)) {
    std::vector<size_t> truth = exact.Match(query);
    std::vector<size_t> approx = fast.Match(query);
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
  core::KnowledgeBase kb = CorpusKb(40);
  auto index = SignatureIndex::Build(kb, 0, 42);
  ASSERT_TRUE(index.ok());
  core::SagedConfig config;
  config.similarity = core::SimilarityMethod::kIndexed;

  // Without an attached index the similarity method is an error, not a
  // silent fallback.
  EXPECT_FALSE(core::MakeMatcher(config, &kb).ok());

  AttachIndex(&kb, &*index);
  auto matcher = core::MakeMatcher(config, &kb);
  ASSERT_TRUE(matcher.ok()) << matcher.status().ToString();
  EXPECT_FALSE((*matcher)->Match(HeldOutQueries(1).front()).empty());

  // A knowledge base the index does not cover is rejected.
  core::KnowledgeBase other = CorpusKb(10);
  AttachIndex(&other, &*index);
  EXPECT_FALSE(core::MakeMatcher(config, &other).ok());
}

}  // namespace
}  // namespace saged::kb
