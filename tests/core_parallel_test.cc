// Parallel knowledge extraction: the bit-identical-at-any-thread-count
// guarantee, re-adding a dataset, and the config validation / flag-registry
// surface that gates both phases.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_flags.h"
#include "core/detector.h"
#include "datagen/datasets.h"
#include "features/char_space.h"
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

TEST(ParallelExtraction, ReAddingSameDatasetAppendsModels) {
  Saged saged(FastConfig());
  auto adult = Gen("adult", 200);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  size_t models = saged.knowledge_base().size();
  ASSERT_TRUE(saged.AddHistoricalDataset(adult.dirty, adult.mask).ok());
  EXPECT_EQ(saged.knowledge_base().size(), 2 * models);
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

// One slot per byte value plus the overflow slot is the most a char space
// can use; a wider one would only pad every feature row.
TEST(ConfigValidation, RejectsCharSlotsBeyondByteRange) {
  SagedConfig config;
  config.char_slots = features::CharSpace::kMaxCapacity;
  EXPECT_TRUE(config.Validate().ok());
  config.char_slots = features::CharSpace::kMaxCapacity + 1;
  auto status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("char_slots"), std::string::npos)
      << status.ToString();
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
  ASSERT_TRUE(ApplySagedFlag("featurize-simd", "off", &config).ok());
  EXPECT_FALSE(config.featurize_simd);
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
      ApplySagedFlagList("budget=10,seed=99,featurize-simd=false", &config)
          .ok());
  EXPECT_EQ(config.labeling_budget, 10u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_FALSE(config.featurize_simd);
  EXPECT_FALSE(ApplySagedFlagList("budget", &config).ok());
}

}  // namespace
}  // namespace saged::core
