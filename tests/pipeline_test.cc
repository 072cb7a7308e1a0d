#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "pipeline/downstream.h"
#include "pipeline/evaluation.h"
#include "pipeline/repair.h"
#include "pipeline/tuner.h"

namespace saged::pipeline {
namespace {

datagen::Dataset Gen(const std::string& name, size_t rows) {
  datagen::MakeOptions opts;
  opts.rows = rows;
  auto ds = datagen::MakeDataset(name, opts);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

// --- Repair --------------------------------------------------------------------

TEST(RepairTest, PerfectMaskRestoresNumericsApproximately) {
  auto ds = Gen("nasa", 300);
  auto repaired = RepairTable(ds.dirty, ds.mask);
  ASSERT_TRUE(repaired.ok());
  // Repaired numeric cells should be closer to the clean values than the
  // dirty ones were, in aggregate.
  double dirty_err = 0.0;
  double repaired_err = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < ds.clean.NumRows(); ++r) {
    for (size_t c = 0; c < ds.clean.NumCols(); ++c) {
      if (!ds.mask.IsDirty(r, c)) continue;
      auto truth = CellAsNumber(ds.clean.cell(r, c));
      auto dirty = CellAsNumber(ds.dirty.cell(r, c));
      auto fixed = CellAsNumber(repaired->cell(r, c));
      if (!truth || !fixed) continue;
      repaired_err += std::abs(*fixed - *truth);
      dirty_err += dirty ? std::abs(*dirty - *truth) : std::abs(*truth);
      ++n;
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_LT(repaired_err, dirty_err);
}

TEST(RepairTest, UntouchedCellsPreserved) {
  auto ds = Gen("beers", 150);
  auto repaired = RepairTable(ds.dirty, ds.mask);
  ASSERT_TRUE(repaired.ok());
  for (size_t r = 0; r < ds.dirty.NumRows(); ++r) {
    for (size_t c = 0; c < ds.dirty.NumCols(); ++c) {
      if (!ds.mask.IsDirty(r, c)) {
        EXPECT_EQ(repaired->cell(r, c), ds.dirty.cell(r, c));
      }
    }
  }
}

TEST(RepairTest, EmptyMaskIsIdentity) {
  auto ds = Gen("nasa", 60);
  ErrorMask empty(ds.dirty.NumRows(), ds.dirty.NumCols());
  auto repaired = RepairTable(ds.dirty, empty);
  ASSERT_TRUE(repaired.ok());
  for (size_t r = 0; r < ds.dirty.NumRows(); ++r) {
    EXPECT_EQ(repaired->Row(r), ds.dirty.Row(r));
  }
}

// Two cells near DBL_MAX overflow their column's sum. Its missing cell is
// filled with the column mean, which must stay finite: the regression trees
// that repair the other numeric columns reject non-finite features, and
// would otherwise hand column b to the mode/edit-distance repair ("0").
TEST(RepairTest, OverflowingColumnMeanKeepsNumericRepair) {
  std::vector<Cell> big;
  std::vector<Cell> c;
  std::vector<Cell> b;
  for (int r = 0; r < 20; ++r) {
    const int cv = r >= 10 && r < 15 ? 0 : r;
    big.push_back(r >= 18 ? "1.7976931348623157e308"
                          : r == 17 ? "" : std::to_string(r));
    c.push_back(std::to_string(cv));
    b.push_back(std::to_string(2 * cv));
  }
  b[5] = "999";
  Table t("overflow");
  ASSERT_TRUE(t.AddColumn(Column("big", big)).ok());
  ASSERT_TRUE(t.AddColumn(Column("c", c)).ok());
  ASSERT_TRUE(t.AddColumn(Column("b", b)).ok());
  ErrorMask mask(t.NumRows(), t.NumCols());
  mask.Set(5, 2);
  auto repaired = RepairTable(t, mask);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  auto fixed = CellAsNumber(repaired->cell(5, 2));
  ASSERT_TRUE(fixed.has_value()) << repaired->cell(5, 2);
  EXPECT_NEAR(*fixed, 10.0, 4.0) << repaired->cell(5, 2);
}

TEST(RepairTest, RejectsShapeMismatch) {
  auto ds = Gen("nasa", 30);
  EXPECT_FALSE(RepairTable(ds.dirty, ErrorMask(2, 2)).ok());
}

// --- Downstream model -------------------------------------------------------------

TEST(DownstreamTest, PrepareShapes) {
  auto ds = Gen("nasa", 200);
  auto prep = PrepareForModel(ds.clean, 5, TaskType::kRegression);
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->x.cols(), ds.clean.NumCols() - 1);
  EXPECT_EQ(prep->y_reg.size(), prep->x.rows());
}

TEST(DownstreamTest, PrepareRejectsBadLabelColumn) {
  auto ds = Gen("nasa", 50);
  EXPECT_FALSE(PrepareForModel(ds.clean, 99, TaskType::kRegression).ok());
}

TEST(DownstreamTest, RegressionLearnsNasaResponse) {
  auto ds = Gen("nasa", 600);
  auto prep = PrepareForModel(ds.clean, 5, TaskType::kRegression);
  ASSERT_TRUE(prep.ok());
  ml::MlpOptions opts;
  opts.epochs = 120;
  auto score = TrainAndScore(*prep, opts, 3);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_GT(*score, 0.3);  // clear signal vs the R^2=0 mean baseline
}

TEST(DownstreamTest, ClassificationLearnsFactoryRegime) {
  auto ds = Gen("smart_factory", 500);
  auto label = ds.clean.ColumnIndex("label");
  ASSERT_TRUE(label.ok());
  auto prep =
      PrepareForModel(ds.clean, *label, TaskType::kMultiClassification);
  ASSERT_TRUE(prep.ok());
  ml::MlpOptions opts;
  opts.epochs = 100;
  auto score = TrainAndScore(*prep, opts, 5);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_GT(*score, 0.5);
}

TEST(DownstreamTest, DirtyDataScoresWorseThanClean) {
  datagen::MakeOptions opts;
  opts.rows = 600;
  opts.error_rate = 0.35;
  auto ds = datagen::MakeDataset("nasa", opts);
  ASSERT_TRUE(ds.ok());
  auto clean_score =
      DownstreamScoreVsClean(ds->clean, ds->clean, 5, TaskType::kRegression, 7);
  auto dirty_score =
      DownstreamScoreVsClean(ds->dirty, ds->clean, 5, TaskType::kRegression, 7);
  ASSERT_TRUE(clean_score.ok());
  ASSERT_TRUE(dirty_score.ok());
  EXPECT_GT(*clean_score, *dirty_score);
}

// --- Tuner ------------------------------------------------------------------------

TEST(TunerTest, FindsWorkingConfig) {
  auto ds = Gen("nasa", 300);
  auto prep = PrepareForModel(ds.clean, 5, TaskType::kRegression);
  ASSERT_TRUE(prep.ok());
  TunerOptions opts;
  opts.trials = 3;
  opts.epochs = 30;
  auto best = TuneMlp(*prep, opts, 11);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_FALSE(best->hidden.empty());
  EXPECT_GT(best->learning_rate, 0.0);
}

// --- Evaluation harness --------------------------------------------------------------

TEST(EvaluationTest, RunBaselineScores) {
  auto ds = Gen("beers", 200);
  auto row = RunBaseline("mink", ds, 20, 3);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->tool, "mink");
  EXPECT_EQ(row->dataset, "beers");
  EXPECT_GE(row->f1, 0.0);
  EXPECT_LE(row->f1, 1.0);
  EXPECT_GE(row->seconds, 0.0);
}

TEST(EvaluationTest, MakeSagedWithHistoryAndRun) {
  core::SagedConfig config;
  config.w2v.epochs = 1;
  config.w2v.dim = 6;
  datagen::MakeOptions gen;
  gen.rows = 250;
  auto saged = MakeSagedWithHistory(config, {"adult", "movies"}, gen);
  ASSERT_TRUE(saged.ok()) << saged.status().ToString();
  auto ds = Gen("beers", 250);
  auto row = RunSaged(*saged, ds);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->tool, "saged");
  EXPECT_GT(row->f1, 0.4);
}

TEST(EvaluationTest, DownstreamScoreWithPerfectMaskBeatsDirty) {
  datagen::MakeOptions opts;
  opts.rows = 600;
  opts.error_rate = 0.35;
  auto ds = datagen::MakeDataset("nasa", opts);
  ASSERT_TRUE(ds.ok());
  auto repaired_score = DownstreamScoreWithMask(*ds, ds->mask, 5,
                                                TaskType::kRegression, 7);
  auto dirty_score =
      DownstreamScoreVsClean(ds->dirty, ds->clean, 5, TaskType::kRegression, 7);
  ASSERT_TRUE(repaired_score.ok()) << repaired_score.status().ToString();
  ASSERT_TRUE(dirty_score.ok());
  EXPECT_GT(*repaired_score, *dirty_score - 0.05);
}

}  // namespace
}  // namespace saged::pipeline
