// Tests for the knowledge-base store: the ShardLruCache eviction policy in
// isolation, a full load equal to the knowledge base it was written from,
// lazy shard hydration with its kb.* counters, capacity-bounded residency,
// hostile manifests and shards, and the end-to-end wall — detection masks
// through a lazily-hydrated, index-matched store equal the masks of the
// in-process trained knowledge base byte for byte.

#include "kb/shard_store.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/telemetry.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "features/char_space.h"
#include "features/signature.h"
#include "kb/kb_builder.h"
#include "kb/model_cache.h"

namespace saged::kb {
namespace {

// --- ShardLruCache (pure policy, no I/O) ------------------------------------

TEST(ShardLruCacheTest, TracksResidencyAndPins) {
  ShardLruCache cache(4, 0);
  EXPECT_EQ(cache.ResidentCount(), 0u);
  cache.MarkResident(2);
  EXPECT_TRUE(cache.IsResident(2));
  EXPECT_EQ(cache.ResidentCount(), 1u);
  cache.Pin(2);
  EXPECT_EQ(cache.PinCount(2), 1u);
  cache.Unpin(2);
  EXPECT_EQ(cache.PinCount(2), 0u);
  cache.MarkEvicted(2);
  EXPECT_FALSE(cache.IsResident(2));
}

TEST(ShardLruCacheTest, UnboundedNeverEvicts) {
  ShardLruCache cache(3, 0);
  for (size_t s = 0; s < 3; ++s) cache.MarkResident(s);
  EXPECT_TRUE(cache.EvictionVictims().empty());
}

TEST(ShardLruCacheTest, EvictsLeastRecentlyUsedFirst) {
  ShardLruCache cache(3, 1);
  cache.MarkResident(0);
  cache.MarkResident(1);
  cache.MarkResident(2);
  cache.Touch(0);  // 1 is now the least recently used
  std::vector<size_t> victims = cache.EvictionVictims();
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1u);
  EXPECT_EQ(victims[1], 2u);
}

TEST(ShardLruCacheTest, PinnedShardsAreNeverVictims) {
  ShardLruCache cache(3, 1);
  cache.MarkResident(0);
  cache.MarkResident(1);
  cache.MarkResident(2);
  cache.Pin(0);
  cache.Pin(1);
  std::vector<size_t> victims = cache.EvictionVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);
  // Everything over capacity pinned: eviction waits for a release.
  cache.Pin(2);
  EXPECT_TRUE(cache.EvictionVictims().empty());
}

// --- Shared trained fixture --------------------------------------------------

/// One trained engine — the reference every store read is checked
/// against — and the store written straight from its knowledge base, built
/// once for the whole suite (training is the slow part).
struct StoreFixture {
  core::SagedConfig config;
  std::unique_ptr<core::Saged> trained;
  std::string store_dir;

  const core::KnowledgeBase& kb() const { return trained->knowledge_base(); }
};

const StoreFixture& Fixture() {
  static StoreFixture* fixture = [] {
    auto* f = new StoreFixture;
    f->config.w2v.epochs = 1;
    f->config.w2v.dim = 6;
    f->config.labeling_budget = 15;
    f->trained = std::make_unique<core::Saged>(f->config);
    datagen::MakeOptions gen;
    gen.rows = 200;
    for (const char* name : {"adult", "beers"}) {
      auto ds = datagen::MakeDataset(name, gen);
      EXPECT_TRUE(ds.ok()) << ds.status().ToString();
      EXPECT_TRUE(f->trained->AddHistoricalDataset(ds->dirty, ds->mask).ok());
    }
    // Named after the first test that builds the fixture: ctest runs every
    // case as its own process, in parallel under -j, so a fixed name would
    // let one process read a store another is still writing.
    const std::string prefix =
        testing::TempDir() + "/kb_store_test_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    f->store_dir = prefix + "_store";
    auto written = WriteShardedStore(f->kb(), f->store_dir, {});
    EXPECT_TRUE(written.ok()) << written.ToString();
    return f;
  }();
  return *fixture;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Enables counters from a clean slate (the kb.* counters under test).
class KbCounterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::TelemetryRegistry::Get().Reset();
    telemetry::SetEnabled(true);
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::TelemetryRegistry::Get().Reset();
  }
  static uint64_t Counter(const std::string& name) {
    return telemetry::TelemetryRegistry::Get().CounterValue(name);
  }
};

// --- Full load -----------------------------------------------------------------

TEST(ShardStoreTest, LoadFullEqualsTrainedKnowledgeBase) {
  const StoreFixture& f = Fixture();
  auto full = LoadFullKnowledgeBase(f.store_dir);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->size(), f.kb().size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ(full->entries()[i].dataset, f.kb().entries()[i].dataset);
    EXPECT_EQ(full->entries()[i].column, f.kb().entries()[i].column);
    EXPECT_EQ(full->entries()[i].signature, f.kb().entries()[i].signature);
    EXPECT_NE(full->entries()[i].model, nullptr);
  }
  EXPECT_EQ(full->extraction_hashes(), f.kb().extraction_hashes());
  EXPECT_FALSE(full->has_model_provider());
}

// --- Lazy open / hydration ---------------------------------------------------

TEST(ShardStoreTest, OpenReadsManifestOnly) {
  const StoreFixture& f = Fixture();
  auto store = ShardStore::Open(f.store_dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  StoreStats stats = (*store)->GetStats();
  EXPECT_GT(stats.n_entries, 0u);
  EXPECT_GT(stats.n_shards, 0u);
  EXPECT_EQ(stats.n_buckets, stats.n_shards);
  EXPECT_EQ(stats.resident_shards, 0u);  // nothing hydrated yet
  ASSERT_NE((*store)->index(), nullptr);

  // The lazily built knowledge base carries metadata but no models.
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  ASSERT_EQ(kb->size(), f.kb().size());
  for (size_t i = 0; i < kb->size(); ++i) {
    EXPECT_EQ(kb->entries()[i].dataset, f.kb().entries()[i].dataset);
    EXPECT_EQ(kb->entries()[i].signature, f.kb().entries()[i].signature);
    EXPECT_EQ(kb->entries()[i].model, nullptr);
  }
}

TEST_F(KbCounterTest, AcquireHydratesAndCountsLoadsAndHits) {
  const StoreFixture& f = Fixture();
  auto store = ShardStore::Open(f.store_dir, {});
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());

  {
    auto lease = kb->AcquireModels({0});
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_NE(kb->entries()[0].model, nullptr);
  }
  uint64_t loads = Counter("kb.shard_loads");
  EXPECT_GE(loads, 1u);

  // Same entry again: the shard is resident — a cache hit, no new load.
  {
    auto lease = kb->AcquireModels({0});
    ASSERT_TRUE(lease.ok());
  }
  EXPECT_EQ(Counter("kb.shard_loads"), loads);
  EXPECT_GE(Counter("kb.cache_hits"), 1u);
}

TEST_F(KbCounterTest, CapacityOneEvictsTheColdShard) {
  const StoreFixture& f = Fixture();
  ShardStore::OpenOptions options;
  options.cache_shards = 1;
  auto store = ShardStore::Open(f.store_dir, options);
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ((*store)->GetStats().cache_capacity, 1u);

  // Two entries in different shards.
  const auto& shard_of = (*store)->index()->assignments();
  size_t a = 0, b = 0;
  for (size_t i = 1; i < shard_of.size(); ++i) {
    if (shard_of[i] != shard_of[a]) {
      b = i;
      break;
    }
  }
  ASSERT_NE(shard_of[a], shard_of[b]) << "fixture needs >= 2 shards";

  { auto lease = kb->AcquireModels({a}); ASSERT_TRUE(lease.ok()); }
  { auto lease = kb->AcquireModels({b}); ASSERT_TRUE(lease.ok()); }

  EXPECT_GE(Counter("kb.evictions"), 1u);
  EXPECT_EQ(kb->entries()[a].model, nullptr);  // evicted to make room
  EXPECT_NE(kb->entries()[b].model, nullptr);
  EXPECT_LE((*store)->GetStats().resident_shards, 1u);
}

TEST(ShardStoreTest, AcquireAllPinsEverythingDespiteCapacity) {
  const StoreFixture& f = Fixture();
  ShardStore::OpenOptions options;
  options.cache_shards = 1;
  auto store = ShardStore::Open(f.store_dir, options);
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  {
    auto lease = (*store)->AcquireAll(&*kb);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    for (const auto& entry : kb->entries()) {
      EXPECT_NE(entry.model, nullptr);
    }
    EXPECT_EQ((*store)->GetStats().resident_shards,
              (*store)->GetStats().n_shards);
  }
  // The lease released: residency falls back under the bound.
  EXPECT_LE((*store)->GetStats().resident_shards, 1u);
}

// --- Corrupt input -----------------------------------------------------------

TEST(ShardStoreTest, CorruptManifestRejected) {
  std::string dir = testing::TempDir() + "/kb_store_test_corrupt";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/manifest.sagk", std::ios::binary);
    out << "this is not a manifest";
  }
  EXPECT_FALSE(ShardStore::Open(dir, {}).ok());
  EXPECT_FALSE(ShardStore::Open("/nonexistent/store", {}).ok());
}

// Every record of a one-shard store rewritten to claim entry 0: the count
// and the shard id still check out, so only the per-record membership
// check stands between the reader and a knowledge base whose other models
// stay null.
TEST(ShardStoreTest, DuplicateShardEntryRejected) {
  const StoreFixture& f = Fixture();
  const std::string dir = testing::TempDir() + "/kb_store_test_duplicate";
  std::filesystem::remove_all(dir);
  BuildOptions one_shard;
  one_shard.n_buckets = 1;
  ASSERT_TRUE(WriteShardedStore(f.kb(), dir, one_shard).ok());
  const std::string shard_path = dir + "/" + ShardFilename(0);
  std::string bytes = ReadFileBytes(shard_path);
  {
    // Header: magic, version, shard id (u32 each), record count (u64).
    std::istringstream in(bytes);
    BinaryReader reader(&in);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(reader.ReadU32().ok());
    auto n = reader.ReadU64();
    ASSERT_TRUE(n.ok());
    ASSERT_GE(*n, 2u);
    for (uint64_t i = 0; i < *n; ++i) {
      auto at = static_cast<size_t>(in.tellg());
      ASSERT_TRUE(reader.ReadU64().ok());
      ASSERT_TRUE(ReadBaseModel(&reader).ok());
      std::fill(bytes.begin() + at, bytes.begin() + at + sizeof(uint64_t),
                '\0');
    }
  }
  {
    std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  auto store = ShardStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  auto lease = kb->AcquireModels({0});
  ASSERT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), StatusCode::kIoError);

  core::Saged lazy(f.config);
  lazy.SetKnowledgeBase(std::move(kb).value());
  datagen::MakeOptions gen;
  gen.rows = 50;
  auto nasa = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(nasa.ok());
  auto result = lazy.Detect(nasa->dirty, core::MaskOracle(nasa->mask));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// Each manifest count at the length cap, followed by a few bytes: Open must
// fail on the missing bytes without first allocating for the count.
TEST(ShardStoreTest, HugeManifestCountsRejected) {
  const char* kCounts[] = {"hashes", "entries", "shards"};
  for (int which = 0; which < 3; ++which) {
    const std::string dir = testing::TempDir() + "/kb_store_test_huge_" +
                            kCounts[which];
    std::filesystem::create_directories(dir);
    {
      std::ofstream out(dir + "/" + kManifestFilename, std::ios::binary);
      BinaryWriter writer(&out);
      writer.WriteU32(kManifestMagic);
      writer.WriteU32(kStoreVersion);
      features::CharSpace(64).Save(&writer);
      // Zero entries means no signature index before the shard table.
      for (int count = 0; count <= which; ++count) {
        writer.WriteU64(count == which ? BinaryReader::kMaxLength : 0);
      }
      writer.WriteU64(7);
      writer.WriteU64(7);
    }
    auto store = ShardStore::Open(dir, {});
    ASSERT_FALSE(store.ok()) << kCounts[which];
    EXPECT_EQ(store.status().code(), StatusCode::kIoError) << kCounts[which];
  }
}

// One entry's signature a column wider than the rest: the store must fail
// to open with IoError instead of aborting when it packs the signatures.
TEST(ShardStoreTest, MixedSignatureWidthsRejected) {
  const std::string dir = testing::TempDir() + "/kb_store_test_mixed_widths";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/" + kManifestFilename, std::ios::binary);
    BinaryWriter writer(&out);
    writer.WriteU32(kManifestMagic);
    writer.WriteU32(kStoreVersion);
    features::CharSpace(64).Save(&writer);
    writer.WriteU64(0);  // extraction hashes
    writer.WriteU64(2);  // entries
    for (size_t width :
         {features::kSignatureWidth, features::kSignatureWidth + 1}) {
      writer.WriteString("ds");
      writer.WriteString("col" + std::to_string(width));
      writer.WriteF64Vector(std::vector<double>(width, 0.5));
      writer.WriteU32(0);
    }
    // Signature index: one bucket holding both entries.
    writer.WriteU64(1);
    writer.WriteU64(features::kSignatureWidth);
    for (size_t c = 0; c < features::kSignatureWidth; ++c) writer.WriteF64(0.5);
    writer.WriteU64(2);
    writer.WriteU32(0);
    writer.WriteU32(0);
    writer.WriteU64(1);  // shard table
    writer.WriteString(ShardFilename(0));
    writer.WriteU64(2);
  }
  auto store = ShardStore::Open(dir, {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

// --- End-to-end detection parity ---------------------------------------------

TEST(ShardStoreTest, DetectionMasksMatchMonolithicByteForByte) {
  const StoreFixture& f = Fixture();
  datagen::MakeOptions gen;
  gen.rows = 150;
  auto nasa = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(nasa.ok());

  // Reference: the in-process trained knowledge base, never written out.
  auto want = f.trained->Detect(nasa->dirty, core::MaskOracle(nasa->mask));
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Store-backed, lazily hydrated, index-matched at probe=all, in memory
  // and streamed in small blocks — and again with a one-shard cache. A
  // column pins its models from its first block through its last, so with
  // one shard of cache the in-memory run (one block) hydrates and evicts
  // column by column, while the streamed run keeps every column's shards
  // pinned, over capacity, until its last block. Every run must agree with
  // the reference mask byte for byte.
  const std::string csv_path =
      testing::TempDir() + "/kb_store_test_nasa_stream.csv";
  ASSERT_TRUE(WriteCsv(nasa->dirty, csv_path).ok());
  for (size_t cache_shards : {size_t{0}, size_t{1}}) {
    for (bool stream : {false, true}) {
      ShardStore::OpenOptions options;
      options.cache_shards = cache_shards;
      auto store = ShardStore::Open(f.store_dir, options);
      ASSERT_TRUE(store.ok());
      auto kb = (*store)->MakeKnowledgeBase();
      ASSERT_TRUE(kb.ok());
      core::SagedConfig config = f.config;
      config.similarity = core::SimilarityMethod::kIndexed;
      config.index_probes = 1'000'000;  // probe=all: exact-parity degenerate
      core::Saged lazy(config);
      lazy.SetKnowledgeBase(std::move(kb).value());
      core::DetectionOptions blocks;
      blocks.block_rows = 32;
      auto got =
          stream ? lazy.DetectStream(csv_path, core::MaskOracle(nasa->mask),
                                     blocks)
                 : lazy.Detect(nasa->dirty, core::MaskOracle(nasa->mask));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->mask == want->mask)
          << "cache_shards=" << cache_shards << " stream=" << stream;
    }
  }
  std::filesystem::remove(csv_path);
}

}  // namespace
}  // namespace saged::kb
