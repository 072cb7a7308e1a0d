#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"

#include "common/binary_io.h"
#include "common/telemetry.h"
#include "core/detector.h"
#include "data/csv.h"
#include "datagen/datasets.h"
#include "kb/kb_builder.h"
#include "kb/shard_store.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace saged {
namespace {

// --- Binary primitives --------------------------------------------------------

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(1ull << 40);
  w.WriteI32(-42);
  w.WriteF64(3.14159);
  w.WriteString("hello\0world");
  w.WriteF64Vector({1.0, -2.5, 0.0});
  ASSERT_TRUE(w.ok());

  BinaryReader r(&buf);
  EXPECT_EQ(r.ReadU8().value(), 7);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 1ull << 40);
  EXPECT_EQ(r.ReadI32().value(), -42);
  EXPECT_DOUBLE_EQ(r.ReadF64().value(), 3.14159);
  EXPECT_EQ(r.ReadString().value(), "hello");
  auto v = r.ReadF64Vector();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<double>{1.0, -2.5, 0.0}));
}

TEST(BinaryIoTest, TruncationDetected) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(9999);  // promises a long string that never arrives
  BinaryReader r(&buf);
  EXPECT_FALSE(r.ReadString().ok());
}

// A length prefix at the cap followed by a few bytes: the reader must fail
// on the missing bytes without first allocating what the prefix promises
// (4 GiB of chars, 32 GiB of doubles), so the peak RSS barely moves.
constexpr uint64_t kMaxRssGrowth = uint64_t{256} << 20;

TEST(BinaryIoTest, HugeStringLengthPrefixRejected) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(BinaryReader::kMaxLength);
  w.WriteU32(0x61626364);
  BinaryReader r(&buf);
  const uint64_t before = telemetry::PeakRssBytes();
  auto s = r.ReadString();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kIoError);
  EXPECT_LT(telemetry::PeakRssBytes() - before, kMaxRssGrowth);
}

TEST(BinaryIoTest, HugeVectorLengthPrefixRejected) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(BinaryReader::kMaxLength);
  w.WriteF64(1.0);
  w.WriteF64(2.0);
  BinaryReader r(&buf);
  const uint64_t before = telemetry::PeakRssBytes();
  auto v = r.ReadF64Vector();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
  EXPECT_LT(telemetry::PeakRssBytes() - before, kMaxRssGrowth);
}

// --- Model round trips ---------------------------------------------------------

void MakeBlobs(ml::Matrix* x, std::vector<int>* y, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<double> row = {rng.Normal(label * 3.0, 1.0),
                               rng.Normal(-label * 3.0, 1.0)};
    x->AppendRow(row);
    y->push_back(label);
  }
}

template <typename Model>
void ExpectModelRoundTrip(Model& original) {
  Rng rng(13);
  ml::Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 150, rng);
  ASSERT_TRUE(original.Fit(x, y).ok());

  std::stringstream buf;
  BinaryWriter w(&buf);
  original.Save(&w);
  ASSERT_TRUE(w.ok());

  Model restored;
  BinaryReader r(&buf);
  ASSERT_TRUE(restored.Load(&r).ok());
  auto before = original.PredictProba(x);
  auto after = restored.PredictProba(x);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]) << i;
  }
}

TEST(ModelSerializationTest, RandomForestRoundTrip) {
  ml::RandomForestClassifier model;
  ExpectModelRoundTrip(model);
}

TEST(ModelSerializationTest, GradientBoostingRoundTrip) {
  ml::GradientBoostingClassifier model;
  ExpectModelRoundTrip(model);
}

TEST(ModelSerializationTest, LogisticRegressionRoundTrip) {
  ml::LogisticRegression model;
  ExpectModelRoundTrip(model);
}

TEST(ModelSerializationTest, HugeTreeNodeCountRejected) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU8(0);                          // classification
  w.WriteU64(2);                         // n_features
  w.WriteU64(BinaryReader::kMaxLength);  // node count
  w.WriteI32(-1);                        // the start of one node
  w.WriteF64(0.0);
  BinaryReader r(&buf);
  ml::DecisionTree tree(ml::DecisionTree::Task::kClassification, {});
  Status status = tree.Load(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// A forest or booster record with no trees: prediction would abort on it,
// so Load must refuse it.
TEST(ModelSerializationTest, ZeroTreeEnsemblesRejected) {
  {
    std::stringstream buf;
    BinaryWriter w(&buf);
    w.WriteU64(2);  // n_features
    w.WriteU64(0);  // tree count
    BinaryReader r(&buf);
    ml::RandomForestClassifier forest;
    EXPECT_EQ(forest.Load(&r).code(), StatusCode::kIoError);
  }
  {
    std::stringstream buf;
    BinaryWriter w(&buf);
    w.WriteF64(0.1);  // learning rate
    w.WriteF64(0.0);  // base score
    w.WriteU64(0);    // tree count
    BinaryReader r(&buf);
    ml::GradientBoostingClassifier booster;
    EXPECT_EQ(booster.Load(&r).code(), StatusCode::kIoError);
  }
}

// --- Knowledge-base store round trip ---------------------------------------------

class KbSerializationTest : public ::testing::Test {
 protected:
  static core::Saged MakeTrainedSaged() {
    datagen::MakeOptions gen;
    gen.rows = 250;
    auto adult = datagen::MakeDataset("adult", gen);
    EXPECT_TRUE(adult.ok());
    core::SagedConfig config;
    config.w2v.epochs = 1;
    config.w2v.dim = 6;
    config.labeling_budget = 15;
    core::Saged saged(config);
    EXPECT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
    return saged;
  }

  /// A per-test store directory: ctest runs each case as its own process,
  /// in parallel under -j.
  static std::string StoreDir() {
    return testing::TempDir() + "/saged_kb_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  /// Cuts `path` to half its length.
  static void Truncate(const std::string& path) {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  }
};

// A knowledge base written to a store and loaded back detects exactly as
// the trained one, in memory and streamed from a CSV in small blocks.
TEST_F(KbSerializationTest, StreamRoundTripPreservesDetections) {
  core::Saged original = MakeTrainedSaged();
  const std::string dir = StoreDir();
  ASSERT_TRUE(kb::WriteShardedStore(original.knowledge_base(), dir).ok());
  auto restored_kb = kb::LoadFullKnowledgeBase(dir);
  ASSERT_TRUE(restored_kb.ok()) << restored_kb.status().ToString();
  EXPECT_EQ(restored_kb->size(), original.knowledge_base().size());

  core::Saged restored(original.config());
  restored.SetKnowledgeBase(std::move(restored_kb).value());

  datagen::MakeOptions gen;
  gen.rows = 200;
  auto nasa = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(nasa.ok());
  auto a = original.Detect(nasa->dirty, core::MaskOracle(nasa->mask));
  auto b = restored.Detect(nasa->dirty, core::MaskOracle(nasa->mask));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->mask == b->mask);

  const std::string csv_path = dir + "_nasa.csv";
  ASSERT_TRUE(WriteCsv(nasa->dirty, csv_path).ok());
  core::DetectionOptions blocks;
  blocks.block_rows = 32;
  auto c = restored.DetectStream(csv_path, core::MaskOracle(nasa->mask),
                                 blocks);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(a->mask == c->mask);
  std::filesystem::remove(csv_path);
}

TEST_F(KbSerializationTest, FileRoundTrip) {
  core::Saged saged = MakeTrainedSaged();
  const std::string dir = StoreDir();
  ASSERT_TRUE(kb::WriteShardedStore(saged.knowledge_base(), dir).ok());
  auto kb = kb::LoadFullKnowledgeBase(dir);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  ASSERT_EQ(kb->size(), saged.knowledge_base().size());
  for (size_t i = 0; i < kb->size(); ++i) {
    EXPECT_EQ(kb->entries()[i].dataset,
              saged.knowledge_base().entries()[i].dataset);
    EXPECT_EQ(kb->entries()[i].signature,
              saged.knowledge_base().entries()[i].signature);
  }
}

TEST_F(KbSerializationTest, GarbageFileRejected) {
  std::string path = testing::TempDir() + "/saged_kb_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a knowledge base";
  }
  auto store = kb::ShardStore::Open(path, {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
  EXPECT_NE(store.status().ToString().find("saged extract"), std::string::npos)
      << store.status().ToString();
  EXPECT_FALSE(kb::LoadFullKnowledgeBase(path).ok());
  EXPECT_FALSE(kb::ShardStore::Open("/nonexistent/kb_store", {}).ok());
}

// The manifest cut short: Open itself fails.
TEST_F(KbSerializationTest, TruncatedFileRejected) {
  core::Saged saged = MakeTrainedSaged();
  const std::string dir = StoreDir();
  ASSERT_TRUE(kb::WriteShardedStore(saged.knowledge_base(), dir).ok());
  Truncate(dir + "/" + kb::kManifestFilename);
  auto store = kb::ShardStore::Open(dir, {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

// A shard cut short: Open reads the manifest only and succeeds; hydrating
// the shard fails.
TEST_F(KbSerializationTest, TruncatedShardRejected) {
  core::Saged saged = MakeTrainedSaged();
  const std::string dir = StoreDir();
  ASSERT_TRUE(kb::WriteShardedStore(saged.knowledge_base(), dir).ok());
  Truncate(dir + "/" + kb::ShardFilename(0));
  auto store = kb::ShardStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto full = kb::LoadFullKnowledgeBase(dir);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kIoError);
}

TEST_F(KbSerializationTest, MlpModelsRejected) {
  datagen::MakeOptions gen;
  gen.rows = 150;
  auto adult = datagen::MakeDataset("adult", gen);
  ASSERT_TRUE(adult.ok());
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.base_model = core::ModelType::kMlp;
  core::Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  auto status = kb::WriteShardedStore(saged.knowledge_base(), StoreDir());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace saged
