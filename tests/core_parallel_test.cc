// Parallel knowledge extraction: the bit-identical-at-any-thread-count
// guarantee, the content-hash extraction cache, and the config validation /
// flag-registry surface that gates both phases.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "core/config_flags.h"
#include "core/detector.h"
#include "core/knowledge_extractor.h"
#include "datagen/datasets.h"
#include "kb/kb_builder.h"

namespace saged::core {
namespace {

SagedConfig FastConfig() {
  SagedConfig config;
  config.w2v.epochs = 1;
  config.w2v.dim = 6;
  config.labeling_budget = 20;
  return config;
}

datagen::Dataset Gen(const std::string& name, size_t rows) {
  datagen::MakeOptions opts;
  opts.rows = rows;
  auto ds = datagen::MakeDataset(name, opts);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

/// Writes the knowledge base as a store under `dir` and returns every file
/// in it, name then bytes, in name order.
std::string SerializeKb(const Saged& saged, const std::string& dir) {
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(kb::WriteShardedStore(saged.knowledge_base(), dir).ok());
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::string bytes;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes += file.filename().string() + '\n' + buf.str();
  }
  return bytes;
}

Saged MakeLoaded(const SagedConfig& config) {
  Saged saged(config);
  auto adult = Gen("adult", 250);
  auto movies = Gen("movies", 250);
  EXPECT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  EXPECT_TRUE(saged.AddHistoricalDataset(movies.dirty, movies.mask).ok());
  return saged;
}

TEST(ParallelExtraction, ThreadCountYieldsByteIdenticalKnowledgeBase) {
  SagedConfig sequential = FastConfig();
  sequential.extract_threads = 1;
  SagedConfig parallel = FastConfig();
  parallel.extract_threads = 4;
  Saged a = MakeLoaded(sequential);
  Saged b = MakeLoaded(parallel);
  const std::string dir = ::testing::TempDir() + "/core_parallel_test_store";
  std::string sequential_bytes = SerializeKb(a, dir + "_1");
  std::string parallel_bytes = SerializeKb(b, dir + "_4");
  EXPECT_FALSE(sequential_bytes.empty());
  EXPECT_EQ(sequential_bytes, parallel_bytes);
}

TEST(ParallelExtraction, ThreadCountDoesNotChangeDetection) {
  auto beers = Gen("beers", 200);
  SagedConfig sequential = FastConfig();
  sequential.extract_threads = 1;
  SagedConfig parallel = FastConfig();
  parallel.extract_threads = 4;
  Saged a = MakeLoaded(sequential);
  Saged b = MakeLoaded(parallel);
  auto ra = a.Detect(beers.dirty, MaskOracle(beers.mask));
  auto rb = b.Detect(beers.dirty, MaskOracle(beers.mask));
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_TRUE(ra->mask == rb->mask);
  EXPECT_EQ(ra->matched_models, rb->matched_models);
}

TEST(ParallelExtraction, ReAddingSameDatasetHitsCache) {
  telemetry::TelemetryRegistry::Get().Reset();
  telemetry::SetEnabled(true);
  Saged saged(FastConfig());
  auto adult = Gen("adult", 200);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  size_t models = saged.knowledge_base().size();
  ASSERT_GT(models, 0u);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  telemetry::SetEnabled(false);
  // Second ingestion was a no-op served from the cache.
  EXPECT_EQ(saged.knowledge_base().size(), models);
  auto& registry = telemetry::TelemetryRegistry::Get();
  EXPECT_EQ(registry.CounterValue("extract.cache_hits"), 1u);
  EXPECT_EQ(registry.CounterValue("extract.cache_misses"), 1u);
}

TEST(ParallelExtraction, CacheDisabledRetrains) {
  SagedConfig config = FastConfig();
  config.extraction_cache = false;
  Saged saged(config);
  auto adult = Gen("adult", 200);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  size_t models = saged.knowledge_base().size();
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  EXPECT_EQ(saged.knowledge_base().size(), 2 * models);
}

TEST(ParallelExtraction, ChangedLabelsMissCache) {
  Saged saged(FastConfig());
  auto adult = Gen("adult", 200);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  size_t models = saged.knowledge_base().size();
  ErrorMask flipped = adult.mask;
  flipped.Set(0, 0, !flipped.IsDirty(0, 0));
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, flipped).ok());
  EXPECT_GT(saged.knowledge_base().size(), models);
}

TEST(ParallelExtraction, CacheSurvivesSerialization) {
  SagedConfig config = FastConfig();
  auto adult = Gen("adult", 200);
  KnowledgeExtractor extractor(config);
  KnowledgeBase kb(config.char_slots);
  ASSERT_TRUE(extractor.AddDataset(adult.dirty, adult.mask, &kb).ok());
  ASSERT_EQ(kb.extraction_hashes().size(), 1u);

  const std::string dir =
      ::testing::TempDir() + "/core_parallel_test_cache_store";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(kb::WriteShardedStore(kb, dir).ok());
  auto reloaded = kb::LoadFullKnowledgeBase(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->extraction_hashes(), kb.extraction_hashes());

  // The reloaded knowledge base still recognizes its source dataset.
  size_t models = reloaded->size();
  ASSERT_TRUE(extractor.AddDataset(adult.dirty, adult.mask, &*reloaded).ok());
  EXPECT_EQ(reloaded->size(), models);
}

TEST(ParallelExtraction, ContentHashIgnoresThreadCounts) {
  auto adult = Gen("adult", 100);
  SagedConfig a = FastConfig();
  a.extract_threads = 1;
  a.detect_threads = 1;
  SagedConfig b = FastConfig();
  b.extract_threads = 8;
  b.detect_threads = 8;
  EXPECT_EQ(KnowledgeExtractor::ContentHash(adult.dirty, adult.mask, a),
            KnowledgeExtractor::ContentHash(adult.dirty, adult.mask, b));
  SagedConfig c = FastConfig();
  c.seed = 12345;
  EXPECT_NE(KnowledgeExtractor::ContentHash(adult.dirty, adult.mask, a),
            KnowledgeExtractor::ContentHash(adult.dirty, adult.mask, c));
}

TEST(ConfigValidation, AcceptsDefaults) {
  EXPECT_TRUE(SagedConfig{}.Validate().ok());
}

TEST(ConfigValidation, RejectsOutOfRangeKnobs) {
  SagedConfig config;
  config.cosine_threshold = 1.5;
  auto status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("cosine_threshold"), std::string::npos)
      << status.ToString();

  config = SagedConfig{};
  config.labeling_budget = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = SagedConfig{};
  config.char_slots = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = SagedConfig{};
  config.augmentation_fraction = -0.1;
  EXPECT_FALSE(config.Validate().ok());

  config = SagedConfig{};
  config.w2v.dim = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigValidation, ExtractionRejectsInvalidConfig) {
  SagedConfig config = FastConfig();
  config.labeling_budget = 0;
  Saged saged(config);
  auto adult = Gen("adult", 50);
  auto status = saged.AddHistoricalDataset(adult.dirty, adult.mask);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ConfigFlags, RegistryAppliesKnownFlags) {
  SagedConfig config;
  EXPECT_TRUE(IsSagedConfigFlag("budget"));
  EXPECT_FALSE(IsSagedConfigFlag("no-such-flag"));
  ASSERT_TRUE(ApplySagedFlag("budget", "33", &config).ok());
  EXPECT_EQ(config.labeling_budget, 33u);
  ASSERT_TRUE(ApplySagedFlag("extract-threads", "2", &config).ok());
  EXPECT_EQ(config.extract_threads, 2u);
  ASSERT_TRUE(ApplySagedFlag("cache", "off", &config).ok());
  EXPECT_FALSE(config.extraction_cache);
}

TEST(ConfigFlags, UnknownFlagIsNotFound) {
  SagedConfig config;
  auto status = ApplySagedFlag("no-such-flag", "1", &config);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(ConfigFlags, UnparseableValueIsInvalidArgument) {
  SagedConfig config;
  auto status = ApplySagedFlag("budget", "lots", &config);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ConfigFlags, ListAppliesEveryEntry) {
  SagedConfig config;
  ASSERT_TRUE(
      ApplySagedFlagList("budget=10,seed=99,cache=false", &config).ok());
  EXPECT_EQ(config.labeling_budget, 10u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_FALSE(config.extraction_cache);
  EXPECT_FALSE(ApplySagedFlagList("budget", &config).ok());
}

}  // namespace
}  // namespace saged::core
