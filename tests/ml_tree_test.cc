#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/preprocess.h"
#include "ml/random_forest.h"

namespace saged::ml {
namespace {

// --- Matrix ------------------------------------------------------------------

TEST(MatrixTest, ShapeAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.Row(1)[2], 7.0);
}

TEST(MatrixTest, FromRowsAndAppend) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows(), 2u);
  std::vector<double> extra = {5, 6};
  m.AppendRow(extra);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 6.0);
}

TEST(MatrixTest, SelectRowsAndCols) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  Matrix rows = m.SelectRows({2, 0});
  EXPECT_DOUBLE_EQ(rows.At(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(rows.At(1, 2), 3.0);
  Matrix cols = m.SelectCols({1});
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_DOUBLE_EQ(cols.At(2, 0), 8.0);
}

TEST(MatrixTest, ConcatCols) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = a.ConcatCols(b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c.At(1, 2), 6.0);
}

TEST(MatrixTest, ColumnStats) {
  Matrix m = Matrix::FromRows({{0, 10}, {2, 10}});
  auto means = m.ColumnMeans();
  EXPECT_DOUBLE_EQ(means[0], 1.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
  auto sd = m.ColumnStdDevs();
  EXPECT_DOUBLE_EQ(sd[0], 1.0);
  EXPECT_DOUBLE_EQ(sd[1], 0.0);
}

TEST(MatrixTest, Distances) {
  std::vector<double> a = {0, 0};
  std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  std::vector<double> c = {1, 0};
  std::vector<double> d = {0, 1};
  EXPECT_NEAR(CosineSimilarity(c, d), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(c, c), 1.0, 1e-12);
  std::vector<double> zero = {0, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(zero, c), 0.0);
}

// --- Metrics -----------------------------------------------------------------

TEST(MetricsTest, ConfusionAndF1) {
  std::vector<int> truth = {1, 1, 0, 0, 1};
  std::vector<int> pred = {1, 0, 0, 1, 1};
  auto c = Confusion(truth, pred);
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_NEAR(c.F1(), 2.0 * (2.0 / 3) * (2.0 / 3) / (4.0 / 3), 1e-12);
}

TEST(MetricsTest, AccuracyAndMacroF1) {
  std::vector<int> truth = {0, 1, 2, 2};
  std::vector<int> pred = {0, 1, 2, 1};
  EXPECT_DOUBLE_EQ(Accuracy(truth, pred), 0.75);
  EXPECT_GT(MacroF1(truth, pred), 0.5);
  EXPECT_DOUBLE_EQ(MacroF1(truth, truth), 1.0);
}

TEST(MetricsTest, Regression) {
  std::vector<double> truth = {1, 2, 3};
  std::vector<double> same = truth;
  EXPECT_DOUBLE_EQ(MeanSquaredError(truth, same), 0.0);
  EXPECT_DOUBLE_EQ(R2Score(truth, same), 1.0);
  std::vector<double> mean_pred = {2, 2, 2};
  EXPECT_NEAR(R2Score(truth, mean_pred), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError(truth, mean_pred), 2.0 / 3.0);
}

// --- Preprocess -----------------------------------------------------------

TEST(PreprocessTest, StandardScaler) {
  Matrix m = Matrix::FromRows({{0, 5}, {2, 5}, {4, 5}});
  StandardScaler scaler;
  Matrix s = scaler.FitTransform(m);
  EXPECT_NEAR(s.At(0, 0), -1.2247, 1e-3);
  EXPECT_NEAR(s.At(1, 0), 0.0, 1e-12);
  // Constant column: centered only.
  EXPECT_NEAR(s.At(0, 1), 0.0, 1e-12);
}

TEST(PreprocessTest, MinMaxScaler) {
  Matrix m = Matrix::FromRows({{0.0}, {10.0}});
  MinMaxScaler scaler;
  Matrix s = scaler.FitTransform(m);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 1.0);
}

TEST(PreprocessTest, LabelEncoder) {
  LabelEncoder enc;
  EXPECT_EQ(enc.FitOne("a"), 0);
  EXPECT_EQ(enc.FitOne("b"), 1);
  EXPECT_EQ(enc.FitOne("a"), 0);
  EXPECT_EQ(enc.Transform("b"), 1);
  EXPECT_EQ(enc.Transform("unseen"), 0);
  EXPECT_EQ(enc.NumClasses(), 2u);
}

TEST(PreprocessTest, TrainTestSplit) {
  Rng rng(3);
  auto split = TrainTestSplit(100, 0.25, rng);
  EXPECT_EQ(split.test.size(), 25u);
  EXPECT_EQ(split.train.size(), 75u);
}

// --- Decision tree ----------------------------------------------------------

/// Labels separable by a single threshold on feature 0.
void MakeThresholdData(Matrix* x, std::vector<int>* y, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    double v = rng.Uniform(0.0, 1.0);
    double noise = rng.Uniform(0.0, 1.0);
    std::vector<double> row = {v, noise};
    x->AppendRow(row);
    y->push_back(v > 0.5 ? 1 : 0);
  }
}

TEST(DecisionTreeTest, LearnsThreshold) {
  Rng rng(17);
  Matrix x;
  std::vector<int> y;
  MakeThresholdData(&x, &y, 200, rng);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  auto pred = tree.Predict(x);
  EXPECT_GT(Accuracy(y, pred), 0.98);
}

TEST(DecisionTreeTest, RejectsEmpty) {
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(Matrix(), {}).ok());
}

TEST(DecisionTreeTest, RejectsSizeMismatch) {
  Matrix x = Matrix::FromRows({{1.0}, {2.0}});
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(x, {1}).ok());
}

// Ranks need a total order, so NaN and +-Inf features are an error in the
// tree and, through it, in every ensemble built on trees.
TEST(DecisionTreeTest, NonFiniteFeaturesRejected) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    Matrix x =
        Matrix::FromRows({{0.0, 1.0}, {1.0, 2.0}, {2.0, 3.0}, {3.0, 4.0}});
    x.At(2, 1) = bad;
    const std::vector<int> y = {0, 0, 1, 1};
    const std::vector<double> yd(y.begin(), y.end());
    DecisionTree classifier(DecisionTree::Task::kClassification, {});
    EXPECT_EQ(classifier.Fit(x, yd).code(), StatusCode::kInvalidArgument)
        << bad;
    DecisionTree regressor(DecisionTree::Task::kRegression, {});
    EXPECT_EQ(regressor.Fit(x, yd).code(), StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(DecisionTreeClassifier().Fit(x, y).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(DecisionTreeRegressor().Fit(x, yd).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(RandomForestClassifier().Fit(x, y).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(RandomForestRegressor().Fit(x, yd).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(GradientBoostingClassifier().Fit(x, y).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// The binned split search counts positives, so classification labels must
// be 0/1; regression targets must be finite.
TEST(DecisionTreeTest, InvalidTargetsRejected) {
  const Matrix x = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {3.0}});
  DecisionTree classifier(DecisionTree::Task::kClassification, {});
  EXPECT_EQ(classifier.Fit(x, {0, 1, 2, 1}).code(),
            StatusCode::kInvalidArgument);
  DecisionTree regressor(DecisionTree::Task::kRegression, {});
  EXPECT_EQ(regressor
                .Fit(x, {0.0, 1.0, std::numeric_limits<double>::infinity(),
                         1.0})
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<size_t> out_of_range = {0, 4};
  EXPECT_EQ(regressor.Fit(x, {0.0, 1.0, 2.0, 3.0}, &out_of_range).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionTreeTest, ConstantLabelsGiveConstantProba) {
  Matrix x = Matrix::FromRows({{1.0}, {2.0}, {3.0}});
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(x, {1, 1, 1}).ok());
  for (double p : tree.PredictProba(x)) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(DecisionTreeTest, MaxDepthLimitsNodes) {
  Rng rng(23);
  Matrix x;
  std::vector<int> y;
  MakeThresholdData(&x, &y, 300, rng);
  std::vector<double> yd(y.begin(), y.end());
  TreeOptions opts;
  opts.max_depth = 1;
  DecisionTree stump(DecisionTree::Task::kClassification, opts, 1);
  ASSERT_TRUE(stump.Fit(x, yd).ok());
  EXPECT_LE(stump.NumNodes(), 3u);
}

TEST(DecisionTreeTest, RegressionLearnsStep) {
  Rng rng(29);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double v = rng.Uniform(0.0, 1.0);
    std::vector<double> row = {v};
    x.AppendRow(row);
    y.push_back(v > 0.5 ? 10.0 : -10.0);
  }
  DecisionTreeRegressor tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  auto pred = tree.Predict(x);
  EXPECT_LT(MeanSquaredError(y, pred), 1.0);
}

TEST(DecisionTreeTest, ApplyAndLeafMutation) {
  Matrix x = Matrix::FromRows({{0.0}, {1.0}, {0.1}, {0.9}});
  std::vector<double> y = {0, 1, 0, 1};
  DecisionTree tree(DecisionTree::Task::kRegression, {}, 5);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  int leaf = tree.ApplyOne(x.Row(0));
  ASSERT_TRUE(tree.IsLeaf(leaf));
  tree.SetLeafValue(leaf, 42.0);
  EXPECT_DOUBLE_EQ(tree.PredictOne(x.Row(0)), 42.0);
}

TEST(DecisionTreeTest, FeatureImportanceIdentifiesSignal) {
  Rng rng(31);
  Matrix x;
  std::vector<int> y;
  MakeThresholdData(&x, &y, 400, rng);  // signal is feature 0
  std::vector<double> yd(y.begin(), y.end());
  DecisionTree tree(DecisionTree::Task::kClassification, {}, 7);
  ASSERT_TRUE(tree.Fit(x, yd).ok());
  auto imp = tree.FeatureImportances(2);
  EXPECT_GT(imp[0], imp[1]);
}

/// One serialized node, in DecisionTree::Save's field order.
struct RawNode {
  int32_t feature;
  int32_t left;
  int32_t right;
};

std::string SerializeTree(uint64_t n_features,
                          const std::vector<RawNode>& nodes) {
  std::stringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteU8(0);  // classification
  writer.WriteU64(n_features);
  writer.WriteU64(nodes.size());
  for (const RawNode& node : nodes) {
    writer.WriteI32(node.feature);
    writer.WriteF64(0.5);  // threshold
    writer.WriteI32(node.left);
    writer.WriteI32(node.right);
    writer.WriteF64(0.25);  // value
    writer.WriteF64(0.0);   // gain
    writer.WriteU64(1);     // n_samples
  }
  return buf.str();
}

// Trees a hostile shard could carry: Load must reject each with IoError.
// A self-loop would make every prediction spin forever, a negative child
// or a feature past the row would read out of bounds. If a regression lets
// the self-loop load, the prediction below hangs and the test's ctest
// TIMEOUT turns the hang into a failure.
TEST(DecisionTreeTest, HostileNodesRejected) {
  constexpr int32_t kLeaf = -1;
  struct Case {
    const char* name;
    uint64_t n_features;
    std::vector<RawNode> nodes;
  };
  const Case cases[] = {
      {"self-loop", 1, {{0, 0, 0}}},
      {"backward child", 1, {{kLeaf, kLeaf, kLeaf}, {0, 0, 0}}},
      {"negative child", 1, {{0, -3, 1}, {kLeaf, kLeaf, kLeaf}}},
      {"child past the end", 1, {{0, 1, 2}, {kLeaf, kLeaf, kLeaf}}},
      {"feature past n_features",
       2,
       {{5, 1, 2}, {kLeaf, kLeaf, kLeaf}, {kLeaf, kLeaf, kLeaf}}},
      {"no nodes", 1, {}},
  };
  for (const Case& c : cases) {
    std::stringstream in(SerializeTree(c.n_features, c.nodes));
    BinaryReader reader(&in);
    DecisionTree tree(DecisionTree::Task::kClassification, {});
    Status status = tree.Load(&reader);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << c.name;
    if (status.ok() && std::string(c.name) == "self-loop") {
      const std::vector<double> row = {0.0};
      tree.PredictOne(row);
    }
  }

  // The same shapes with every index in range load and predict.
  std::stringstream in(SerializeTree(
      2, {{1, 1, 2}, {kLeaf, kLeaf, kLeaf}, {kLeaf, kLeaf, kLeaf}}));
  BinaryReader reader(&in);
  DecisionTree tree(DecisionTree::Task::kClassification, {});
  ASSERT_TRUE(tree.Load(&reader).ok());
  const std::vector<double> row = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(tree.PredictOne(row), 0.25);
}

/// Property sweep: the tree never predicts probabilities outside [0, 1]
/// regardless of depth.
class TreeDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeDepthSweep, ProbaBounded) {
  Rng rng(41 + GetParam());
  Matrix x;
  std::vector<int> y;
  MakeThresholdData(&x, &y, 150, rng);
  TreeOptions opts;
  opts.max_depth = GetParam();
  DecisionTreeClassifier tree(opts, 11);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  for (double p : tree.PredictProba(x)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace saged::ml
