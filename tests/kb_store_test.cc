// Tests for the knowledge-base store: the ShardLruCache eviction policy in
// isolation, a full load equal to the knowledge base it was written from,
// lazy per-model hydration with its kb.* counters, capacity-bounded
// residency (also under concurrent acquires), hostile manifests and shards,
// deterministic writes, and the end-to-end wall — detection masks through a
// lazily-hydrated, index-matched store equal the masks of the in-process
// trained knowledge base byte for byte.

#include "kb/shard_store.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/executor.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "features/char_space.h"
#include "features/featurizer.h"
#include "features/signature.h"
#include "kb/kb_builder.h"
#include "kb/model_cache.h"
#include "ml/matrix.h"

namespace saged::kb {
namespace {

// --- ShardLruCache (pure policy, no I/O) ------------------------------------
// Indices are models (knowledge-base entries); capacity counts models.

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
  EXPECT_EQ(cache.ResidentCount(), 0u);
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
  // The release makes the least recently used unpinned models victims.
  cache.Unpin(0);
  cache.Unpin(2);
  victims = cache.EvictionVictims();
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 0u);
  EXPECT_EQ(victims[1], 2u);
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
  EXPECT_EQ(stats.resident_models, 0u);  // nothing hydrated yet
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
  EXPECT_EQ(loads, 1u);
  // Entry 0 is its shard's first record: the acquire decodes it alone and
  // hydrates nothing else of the shard.
  EXPECT_EQ(Counter("kb.model_loads"), 1u);
  EXPECT_EQ((*store)->GetStats().resident_models, 1u);
  for (size_t i = 1; i < kb->size(); ++i) {
    EXPECT_EQ(kb->entries()[i].model, nullptr) << i;
  }

  // Same entry again: the model is resident — a cache hit, no new load.
  {
    auto lease = kb->AcquireModels({0});
    ASSERT_TRUE(lease.ok());
  }
  EXPECT_EQ(Counter("kb.shard_loads"), loads);
  EXPECT_EQ(Counter("kb.model_loads"), 1u);
  EXPECT_EQ(Counter("kb.cache_hits"), 1u);
}

/// Entries of `shard`, ascending (the store's bucket assignment).
std::vector<size_t> ShardMembers(const ShardStore& store, size_t shard) {
  std::vector<size_t> members;
  const auto& shard_of = store.index()->assignments();
  for (size_t i = 0; i < shard_of.size(); ++i) {
    if (shard_of[i] == shard) members.push_back(i);
  }
  return members;
}

TEST_F(KbCounterTest, CapacityOneEvictsTheColdShard) {
  const StoreFixture& f = Fixture();
  ShardStore::OpenOptions options;
  options.cache_shards = 1;
  auto store = ShardStore::Open(f.store_dir, options);
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  // One shard of cache holds as many models as the largest shard.
  StoreStats stats = (*store)->GetStats();
  ASSERT_GE(stats.n_shards, 2u) << "fixture needs >= 2 shards";
  const size_t largest = static_cast<size_t>(
      std::max_element(stats.shard_sizes.begin(), stats.shard_sizes.end()) -
      stats.shard_sizes.begin());
  EXPECT_EQ(stats.model_capacity, stats.shard_sizes[largest]);

  // The largest shard's members, then another shard's: the second lease
  // leaves one shard's worth of models resident, and the room it needs
  // comes out of the first, colder shard.
  const size_t other = largest == 0 ? 1 : 0;
  const std::vector<size_t> cold = ShardMembers(**store, largest);
  const std::vector<size_t> hot = ShardMembers(**store, other);
  ASSERT_FALSE(hot.empty());
  { auto lease = kb->AcquireModels(cold); ASSERT_TRUE(lease.ok()); }
  { auto lease = kb->AcquireModels(hot); ASSERT_TRUE(lease.ok()); }

  EXPECT_EQ(Counter("kb.shard_loads"), 2u);
  EXPECT_EQ(Counter("kb.model_loads"), cold.size() + hot.size());
  EXPECT_EQ(Counter("kb.evictions"), hot.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    // LRU: the cold shard's first-touched members went first.
    EXPECT_EQ(kb->entries()[cold[i]].model == nullptr, i < hot.size())
        << cold[i];
  }
  for (size_t e : hot) EXPECT_NE(kb->entries()[e].model, nullptr) << e;
  EXPECT_EQ((*store)->GetStats().resident_models, stats.model_capacity);
}

TEST(ShardStoreTest, AcquireAllPinsEverythingDespiteCapacity) {
  const StoreFixture& f = Fixture();
  ShardStore::OpenOptions options;
  options.cache_shards = 1;
  auto store = ShardStore::Open(f.store_dir, options);
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  const size_t capacity = (*store)->GetStats().model_capacity;
  ASSERT_LT(capacity, kb->size());
  {
    // Shards decode in parallel on the caller's executor.
    Executor pool(2);
    auto lease = (*store)->AcquireAll(&*kb, &pool);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    for (const auto& entry : kb->entries()) {
      EXPECT_NE(entry.model, nullptr);
    }
    EXPECT_EQ((*store)->GetStats().resident_models,
              (*store)->GetStats().n_entries);
  }
  // The lease released: residency falls back under the bound.
  EXPECT_EQ((*store)->GetStats().resident_models, capacity);
}

// Four executor tasks lease overlapping model sets through a one-shard
// cache, so every acquire evicts models another task has just released
// and may re-decode models another task is decoding. Every leased model
// must be present and predict exactly what the trained model does.
TEST(ShardStoreTest, ConcurrentAcquiresUnderTinyCache) {
  const StoreFixture& f = Fixture();
  ShardStore::OpenOptions options;
  options.cache_shards = 1;
  auto store = ShardStore::Open(f.store_dir, options);
  ASSERT_TRUE(store.ok());
  auto kb = (*store)->MakeKnowledgeBase();
  ASSERT_TRUE(kb.ok());
  const size_t n = kb->size();
  ASSERT_GT(n, (*store)->GetStats().model_capacity);

  const size_t width =
      features::ColumnFeaturizer::FeatureWidth(f.config.w2v.dim, f.kb().char_space());
  ml::Matrix x(8, width);
  Rng rng(7);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < width; ++c) x.At(r, c) = rng.Uniform(0.0, 1.0);
  }
  std::vector<std::vector<double>> want(n);
  for (size_t e = 0; e < n; ++e) {
    want[e] = f.kb().entries()[e].model->PredictProba(x);
  }

  constexpr size_t kTasks = 4;
  constexpr size_t kRounds = 25;
  std::atomic<size_t> failed_acquires{0};
  std::atomic<size_t> missing{0};
  std::atomic<size_t> mismatched{0};
  Executor pool(kTasks);
  pool.ParallelFor(kTasks, [&](size_t task) {
    for (size_t round = 0; round < kRounds; ++round) {
      // A window of half the store, starting where task and round say:
      // neighbouring tasks overlap, and the windows sweep every shard.
      std::vector<size_t> indices;
      const size_t start = (task * n / kTasks + round * 3) % n;
      for (size_t k = 0; k < (n + 1) / 2; ++k) {
        indices.push_back((start + k) % n);
      }
      auto lease = kb->AcquireModels(indices);
      if (!lease.ok()) {
        ++failed_acquires;
        continue;
      }
      for (size_t e : indices) {
        const ml::BinaryClassifier* model = kb->entries()[e].model.get();
        if (model == nullptr) {
          ++missing;
        } else if (model->PredictProba(x) != want[e]) {
          ++mismatched;
        }
      }
    }
  });
  EXPECT_EQ(failed_acquires.load(), 0u);
  EXPECT_EQ(missing.load(), 0u);
  EXPECT_EQ(mismatched.load(), 0u);
  EXPECT_LE((*store)->GetStats().resident_models,
            (*store)->GetStats().model_capacity);
}

// Writing the same knowledge base with the same options twice gives the
// same bytes in every file of the store.
TEST(ShardStoreTest, WriteIsDeterministic) {
  const StoreFixture& f = Fixture();
  const std::string a = testing::TempDir() + "/kb_store_test_determinism_a";
  const std::string b = testing::TempDir() + "/kb_store_test_determinism_b";
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
  ASSERT_TRUE(WriteShardedStore(f.kb(), a, {}).ok());
  ASSERT_TRUE(WriteShardedStore(f.kb(), b, {}).ok());
  auto store = ShardStore::Open(a, {});
  ASSERT_TRUE(store.ok());
  std::vector<std::string> files = {kManifestFilename};
  for (size_t s = 0; s < (*store)->n_shards(); ++s) {
    files.push_back(ShardFilename(s));
  }
  for (const std::string& file : files) {
    const std::string bytes = ReadFileBytes(a + "/" + file);
    EXPECT_FALSE(bytes.empty()) << file;
    EXPECT_TRUE(bytes == ReadFileBytes(b + "/" + file)) << file;
  }
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
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

// Every record of a one-shard store rewritten to claim the store's last
// entry: the count and the shard id still check out, so only the
// per-record membership check stands between the reader and a knowledge
// base whose other models stay null. (A reader stops after the last model
// it needs, so the first record must be the one that lies.)
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
    const uint64_t last = *n - 1;
    for (uint64_t i = 0; i < *n; ++i) {
      auto at = static_cast<size_t>(in.tellg());
      ASSERT_TRUE(reader.ReadU64().ok());
      ASSERT_TRUE(ReadBaseModel(&reader).ok());
      std::memcpy(bytes.data() + at, &last, sizeof(last));
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
  const char* kCounts[] = {"entries", "shards"};
  for (int which = 0; which < 2; ++which) {
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

// An empty store's manifest, written under `version`. At version 3 the char
// space was followed by an extraction-hash list, written here empty.
void WriteEmptyManifest(const std::string& dir, uint32_t version) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/" + kManifestFilename, std::ios::binary);
  BinaryWriter writer(&out);
  writer.WriteU32(kManifestMagic);
  writer.WriteU32(version);
  features::CharSpace(64).Save(&writer);
  if (version == 3) writer.WriteU64(0);  // extraction hashes
  writer.WriteU64(0);                    // entries (so no signature index)
  writer.WriteU64(0);                    // shard table
}

// A manifest of any other version, such as a v3 store written before the
// extraction hashes left the layout, is an IoError that names both versions.
TEST(ShardStoreTest, OtherStoreVersionRejected) {
  const std::string current = testing::TempDir() + "/kb_store_test_current";
  WriteEmptyManifest(current, kStoreVersion);
  auto opened = ShardStore::Open(current, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->GetStats().n_entries, 0u);

  for (uint32_t version : {kStoreVersion - 1, kStoreVersion + 1}) {
    const std::string dir = testing::TempDir() + "/kb_store_test_version_" +
                            std::to_string(version);
    WriteEmptyManifest(dir, version);
    auto store = ShardStore::Open(dir, {});
    ASSERT_FALSE(store.ok()) << version;
    EXPECT_EQ(store.status().code(), StatusCode::kIoError) << version;
    const std::string message = store.status().ToString();
    EXPECT_NE(message.find("version " + std::to_string(version)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("version " + std::to_string(kStoreVersion)),
              std::string::npos)
        << message;
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
  // and streamed in small blocks, with an unbounded cache and caches of
  // one and eight shards' worth of models. A column pins its models from
  // its first block through its last, so with one shard of cache the
  // in-memory run (one block) hydrates and evicts column by column, while
  // the streamed run keeps every column's models pinned, over capacity,
  // until its last block. Every run must agree with the reference mask
  // byte for byte.
  const std::string csv_path =
      testing::TempDir() + "/kb_store_test_nasa_stream.csv";
  ASSERT_TRUE(WriteCsv(nasa->dirty, csv_path).ok());
  for (size_t cache_shards : {size_t{0}, size_t{1}, size_t{8}}) {
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
