// Edge cases and failure-injection tests: degenerate inputs, pathological
// columns, and misuse of the public APIs must fail cleanly with Status
// errors (never crash) and the detectors must stay sane on hostile data.

#include <cmath>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/detector.h"
#include "core/meta_classifier.h"
#include "datagen/datasets.h"
#include "features/featurizer.h"
#include "features/signature.h"
#include "ml/agglomerative.h"
#include "ml/mlp.h"
#include "pipeline/downstream.h"
#include "pipeline/repair.h"
#include "text/word2vec.h"

namespace saged {
namespace {

Table ConstantTable(size_t rows) {
  Table t("constant");
  std::vector<Cell> a(rows, "same");
  std::vector<Cell> b(rows, "42");
  EXPECT_TRUE(t.AddColumn(Column("a", std::move(a))).ok());
  EXPECT_TRUE(t.AddColumn(Column("b", std::move(b))).ok());
  return t;
}

// --- Degenerate detection inputs ------------------------------------------------

TEST(RobustnessTest, BaselinesSurviveConstantColumns) {
  Table t = ConstantTable(50);
  baselines::DetectionContext ctx;
  ctx.dirty = &t;
  ctx.oracle = [](size_t, size_t) { return 0; };
  for (const auto& name : baselines::AllBaselineNames()) {
    auto detector = baselines::MakeBaseline(name);
    ASSERT_TRUE(detector.ok()) << name;
    auto mask = (*detector)->Detect(ctx);
    ASSERT_TRUE(mask.ok()) << name;
    // Constant data has no anomalies to flag.
    EXPECT_EQ(mask->DirtyCount(), 0u) << name;
  }
}

TEST(RobustnessTest, BaselinesSurviveSingleRow) {
  Table t("one");
  ASSERT_TRUE(t.AddColumn(Column("x", {"value"})).ok());
  ASSERT_TRUE(t.AddColumn(Column("y", {"7"})).ok());
  baselines::DetectionContext ctx;
  ctx.dirty = &t;
  ctx.oracle = [](size_t, size_t) { return 0; };
  ctx.labeling_budget = 5;
  for (const auto& name : baselines::AllBaselineNames()) {
    auto detector = baselines::MakeBaseline(name);
    ASSERT_TRUE(detector.ok()) << name;
    EXPECT_TRUE((*detector)->Detect(ctx).ok()) << name;
  }
}

TEST(RobustnessTest, SagedSurvivesConstantDirtyTable) {
  datagen::MakeOptions gen;
  gen.rows = 150;
  auto adult = datagen::MakeDataset("adult", gen);
  ASSERT_TRUE(adult.ok());
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.labeling_budget = 10;
  core::Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  Table t = ConstantTable(80);
  auto result = saged.Detect(t, [](size_t, size_t) { return 0; });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->mask.DirtyCount(), 0u);
}

TEST(RobustnessTest, SagedBudgetLargerThanTable) {
  datagen::MakeOptions gen;
  gen.rows = 120;
  auto adult = datagen::MakeDataset("adult", gen);
  auto nasa = datagen::MakeDataset("nasa", gen);
  ASSERT_TRUE(adult.ok());
  ASSERT_TRUE(nasa.ok());
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.labeling_budget = 10000;  // way beyond the 120 rows
  core::Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  auto result = saged.Detect(nasa->dirty, core::MaskOracle(nasa->mask));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->labeled_tuples, 120u);
}

TEST(RobustnessTest, OracleLyingStillTerminates) {
  // An oracle that answers randomly (simulating a careless labeler) must
  // not crash detection; accuracy is allowed to degrade.
  datagen::MakeOptions gen;
  gen.rows = 150;
  auto adult = datagen::MakeDataset("adult", gen);
  auto beers = datagen::MakeDataset("beers", gen);
  ASSERT_TRUE(adult.ok());
  ASSERT_TRUE(beers.ok());
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.labeling_budget = 15;
  core::Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  size_t calls = 0;
  auto result = saged.Detect(beers->dirty, [&calls](size_t r, size_t c) {
    ++calls;
    return static_cast<int>((r + c) % 2);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_GT(calls, 0u);
}

// --- Featurization edge cases ------------------------------------------------------

TEST(RobustnessTest, FeaturizerHandlesAllMissingColumn) {
  text::Word2Vec w2v;
  features::CharSpace space(16);
  Column col("mv", {"", "NULL", "", "NA", ""});
  features::ColumnFeaturizer::RegisterChars(col, &space);
  features::ColumnFeaturizer featurizer(&w2v, &space);
  auto m = featurizer.Featurize(col);
  ASSERT_TRUE(m.ok());
  for (double v : m->data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, SignatureFiniteOnWeirdColumns) {
  for (const Column& col :
       {Column("empty_strings", {"", "", ""}),
        Column("huge", {std::string(5000, 'x'), "y", "z"}),
        Column("unicodeish", {"\xc3\xa9\xc3\xa9", "\xf0\x9f\x98\x80", "a"}),
        Column("numbers", {"1e300", "-1e300", "0"})}) {
    auto sig = features::ColumnSignature(col);
    for (double v : sig) EXPECT_TRUE(std::isfinite(v)) << col.name();
  }
}

// --- ML edge cases -------------------------------------------------------------------

TEST(RobustnessTest, AgglomerativeIdenticalPoints) {
  ml::Matrix x(10, 2, 1.0);  // all identical
  ml::Agglomerative agg;
  ASSERT_TRUE(agg.Fit(x).ok());
  auto labels = agg.Cut(3);
  EXPECT_EQ(labels.size(), 10u);
}

TEST(RobustnessTest, MlpSingleFeatureConstant) {
  ml::Matrix x(30, 1, 2.0);
  std::vector<double> y(30, 1.0);
  ml::MlpOptions opts;
  opts.task = ml::MlpTask::kRegression;
  opts.epochs = 10;
  ml::Mlp net(opts, 3);
  ASSERT_TRUE(net.Fit(x, y).ok());
  const ml::Matrix predictions = net.Predict(x);
  for (double v : predictions.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(RobustnessTest, MetaClassifierAllDirtyLabels) {
  ml::Matrix meta(30, 3);
  for (size_t r = 0; r < 10; ++r) {
    for (size_t c = 0; c < 3; ++c) meta.At(r, c) = 0.9;
  }
  core::MetaClassifier clf(core::ModelType::kRandomForest, 3);
  ASSERT_TRUE(clf.Fit(meta, {0, 1, 2}, {1, 1, 1}).ok());
  EXPECT_TRUE(clf.IsFallback());
  auto pred = clf.Predict(meta);
  EXPECT_EQ(pred[0], 1);   // votes like the labeled dirty cells
  EXPECT_EQ(pred[20], 0);  // votes of 0 stay clean
}

// --- Repair edge cases -----------------------------------------------------------------

TEST(RobustnessTest, RepairFullyFlaggedColumnIsNoop) {
  Table t = ConstantTable(30);
  ErrorMask all(30, 2);
  for (size_t r = 0; r < 30; ++r) {
    all.Set(r, 0);
    all.Set(r, 1);
  }
  auto repaired = pipeline::RepairTable(t, all);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->NumRows(), 30u);  // nothing to learn from; intact
}

TEST(RobustnessTest, DownstreamRejectsTinyTables) {
  Table t = ConstantTable(10);
  EXPECT_FALSE(
      pipeline::PrepareForModel(t, 0, pipeline::TaskType::kBinaryClassification)
          .ok());
}

TEST(RobustnessTest, DownstreamVsCleanShapeMismatchRejected) {
  Table a = ConstantTable(60);
  Table b = ConstantTable(50);
  ml::MlpOptions opts;
  EXPECT_FALSE(pipeline::TrainOnVersionScoreOnClean(
                   a, b, 0, pipeline::TaskType::kRegression, opts, 3)
                   .ok());
}

// --- High error rates ---------------------------------------------------------------

TEST(RobustnessTest, DetectionAtExtremeErrorRate) {
  // Smart Factory's 83% error rate is the stress case from Table 1.
  datagen::MakeOptions gen;
  gen.rows = 200;
  auto adult = datagen::MakeDataset("adult", gen);
  auto sf = datagen::MakeDataset("smart_factory", gen);
  ASSERT_TRUE(adult.ok());
  ASSERT_TRUE(sf.ok());
  EXPECT_GT(sf->mask.ErrorRate(), 0.8);
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.labeling_budget = 20;
  core::Saged saged(config);
  ASSERT_TRUE(saged.AddHistoricalDataset(adult->dirty, adult->mask).ok());
  auto result = saged.Detect(sf->dirty, core::MaskOracle(sf->mask));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(sf->mask.Score(result->mask).F1(), 0.6);
}

}  // namespace
}  // namespace saged
