#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/gaussian_mixture.h"
#include "ml/knn_shapley.h"
#include "ml/metrics.h"

namespace saged::ml {
namespace {

// --- KNN-Shapley -------------------------------------------------------------

TEST(KnnShapleyTest, HelpfulPointsScoreHigher) {
  // Train: two points of class 1 near the validation point, two of class 0
  // far away. Validation label is 1: near matching points should carry the
  // highest Shapley value.
  Matrix train = Matrix::FromRows({{0.0}, {0.2}, {5.0}, {6.0}});
  std::vector<int> train_y = {1, 1, 0, 0};
  Matrix val = Matrix::FromRows({{0.1}});
  std::vector<int> val_y = {1};
  auto values = KnnShapley(train, train_y, val, val_y, 2);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_GT(values[0], values[2]);
  EXPECT_GT(values[1], values[3]);
}

TEST(KnnShapleyTest, EfficiencyProperty) {
  // Shapley values of all training points sum to the utility of the full
  // set: the kNN accuracy on the validation point (here 1.0 or 0.0 per
  // point, averaged).
  Matrix train = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {3.0}});
  std::vector<int> train_y = {1, 0, 1, 0};
  Matrix val = Matrix::FromRows({{0.1}, {2.9}});
  std::vector<int> val_y = {1, 0};
  size_t k = 1;
  auto values = KnnShapley(train, train_y, val, val_y, k);
  double sum = 0.0;
  for (double v : values) sum += v;
  // 1-NN of 0.1 is point 0 (label 1, correct); 1-NN of 2.9 is point 3
  // (label 0, correct) -> utility = 1.0.
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(KnnShapleyTest, EmptyInputsSafe) {
  auto values = KnnShapley(Matrix(), {}, Matrix(), {}, 3);
  EXPECT_TRUE(values.empty());
}

class KnnShapleySweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KnnShapleySweep, SumEqualsUtilityForAnyK) {
  Rng rng(100 + GetParam());
  Matrix train;
  std::vector<int> train_y;
  for (int i = 0; i < 30; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<double> row = {label * 4.0 + rng.Normal(0, 1.0)};
    train.AppendRow(row);
    train_y.push_back(label);
  }
  Matrix val;
  std::vector<int> val_y;
  for (int i = 0; i < 5; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    std::vector<double> row = {label * 4.0 + rng.Normal(0, 1.0)};
    val.AppendRow(row);
    val_y.push_back(label);
  }
  size_t k = GetParam();
  auto values = KnnShapley(train, train_y, val, val_y, k);
  // Efficiency: sum of values equals mean kNN match fraction over val.
  double utility = 0.0;
  for (size_t v = 0; v < val_y.size(); ++v) {
    std::vector<std::pair<double, size_t>> order(train_y.size());
    for (size_t i = 0; i < train_y.size(); ++i) {
      order[i] = {EuclideanDistance(val.Row(v), train.Row(i)), i};
    }
    std::sort(order.begin(), order.end());
    double match = 0.0;
    for (size_t j = 0; j < k && j < order.size(); ++j) {
      match += train_y[order[j].second] == val_y[v] ? 1.0 : 0.0;
    }
    utility += match / static_cast<double>(std::min(k, order.size()));
  }
  utility /= static_cast<double>(val_y.size());
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(sum, utility, 1e-9) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnShapleySweep, ::testing::Values(1, 3, 5, 10));

// --- Gaussian mixture --------------------------------------------------------

TEST(GaussianMixtureTest, RecoversTwoModes) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) values.push_back(rng.Normal(0.0, 0.5));
  for (int i = 0; i < 400; ++i) values.push_back(rng.Normal(10.0, 0.5));
  GaussianMixture1D gmm(2, 100, 3);
  ASSERT_TRUE(gmm.Fit(values).ok());
  auto means = gmm.means();
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 0.3);
  EXPECT_NEAR(means[1], 10.0, 0.3);
}

TEST(GaussianMixtureTest, OutliersScoreLow) {
  Rng rng(25);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.Normal(5.0, 1.0));
  GaussianMixture1D gmm(2, 60, 5);
  ASSERT_TRUE(gmm.Fit(values).ok());
  auto inlier_ll = gmm.ScoreSamples({5.0});
  auto outlier_ll = gmm.ScoreSamples({500.0});
  EXPECT_GT(inlier_ll[0], outlier_ll[0]);
}

TEST(GaussianMixtureTest, WeightsSumToOne) {
  Rng rng(27);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.Uniform(0, 100));
  GaussianMixture1D gmm(3, 50, 7);
  ASSERT_TRUE(gmm.Fit(values).ok());
  double sum = 0.0;
  for (double w : gmm.weights()) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GaussianMixtureTest, RejectsEmpty) {
  GaussianMixture1D gmm(2);
  EXPECT_FALSE(gmm.Fit({}).ok());
}

TEST(GaussianMixtureTest, SingleValueDegenerate) {
  GaussianMixture1D gmm(2);
  ASSERT_TRUE(gmm.Fit({3.0}).ok());
  EXPECT_GT(gmm.Pdf(3.0), 0.0);
}

}  // namespace
}  // namespace saged::ml
