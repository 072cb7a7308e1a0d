#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/knowledge_extractor.h"
#include "data/content_hash.h"
#include "datagen/datasets.h"
#include "kb/kb_builder.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"

namespace saged::ml {
namespace {

/// Two Gaussian blobs, linearly separable with noise.
void MakeBlobs(Matrix* x, std::vector<int>* y, size_t n, Rng& rng,
               double separation = 3.0) {
  for (size_t i = 0; i < n; ++i) {
    int label = rng.Bernoulli(0.5) ? 1 : 0;
    double cx = label ? separation : 0.0;
    std::vector<double> row = {rng.Normal(cx, 1.0), rng.Normal(-cx, 1.0)};
    x->AppendRow(row);
    y->push_back(label);
  }
}

/// XOR pattern: not linearly separable, demands depth.
void MakeXor(Matrix* x, std::vector<int>* y, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(-1.0, 1.0);
    double b = rng.Uniform(-1.0, 1.0);
    std::vector<double> row = {a, b};
    x->AppendRow(row);
    y->push_back((a > 0) != (b > 0) ? 1 : 0);
  }
}

// --- Random forest ----------------------------------------------------------

TEST(RandomForestTest, SeparatesBlobs) {
  Rng rng(5);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 300, rng);
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.95);
}

TEST(RandomForestTest, SolvesXor) {
  Rng rng(7);
  Matrix x;
  std::vector<int> y;
  MakeXor(&x, &y, 500, rng);
  ForestOptions opts;
  opts.n_trees = 24;
  RandomForestClassifier forest(opts, 3);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.9);
}

TEST(RandomForestTest, MaxSamplesCapsTraining) {
  Rng rng(11);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 400, rng);
  ForestOptions opts;
  opts.max_samples = 50;
  RandomForestClassifier forest(opts, 1);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.9);  // still learns
}

TEST(RandomForestTest, FeatureImportancesNormalized) {
  Rng rng(13);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 200, rng);
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto imp = forest.FeatureImportances();
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RandomForestRegressorTest, FitsLinearTrend) {
  Rng rng(15);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double v = rng.Uniform(0.0, 10.0);
    std::vector<double> row = {v};
    x.AppendRow(row);
    y.push_back(2.0 * v + rng.Normal(0.0, 0.1));
  }
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto pred = forest.Predict(x);
  EXPECT_GT(R2Score(y, pred), 0.95);
}

// --- Gradient boosting ------------------------------------------------------

TEST(GradientBoostingTest, SeparatesBlobs) {
  Rng rng(17);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 300, rng);
  GradientBoostingClassifier gb;
  ASSERT_TRUE(gb.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.95);
}

TEST(GradientBoostingTest, SolvesXor) {
  Rng rng(19);
  Matrix x;
  std::vector<int> y;
  MakeXor(&x, &y, 500, rng);
  GradientBoostingClassifier gb;
  ASSERT_TRUE(gb.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.9);
}

TEST(GradientBoostingTest, MoreRoundsHelpOrHold) {
  Rng rng(21);
  Matrix x;
  std::vector<int> y;
  MakeXor(&x, &y, 400, rng);
  BoostingOptions few;
  few.n_rounds = 2;
  BoostingOptions many;
  many.n_rounds = 40;
  GradientBoostingClassifier weak(few, 5);
  GradientBoostingClassifier strong(many, 5);
  ASSERT_TRUE(weak.Fit(x, y).ok());
  ASSERT_TRUE(strong.Fit(x, y).ok());
  EXPECT_GE(Accuracy(y, strong.Predict(x)) + 1e-9,
            Accuracy(y, weak.Predict(x)));
}

TEST(GradientBoostingTest, SubsampleStillLearns) {
  Rng rng(23);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 300, rng);
  BoostingOptions opts;
  opts.subsample = 0.5;
  GradientBoostingClassifier gb(opts, 7);
  ASSERT_TRUE(gb.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.9);
}

TEST(GradientBoostingTest, ProbaBounded) {
  Rng rng(25);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 100, rng);
  GradientBoostingClassifier gb;
  ASSERT_TRUE(gb.Fit(x, y).ok());
  for (double p : gb.PredictProba(x)) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

// --- Logistic regression ----------------------------------------------------

TEST(LogisticRegressionTest, SeparatesBlobs) {
  Rng rng(27);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 300, rng);
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, lr.Predict(x)), 0.95);
}

TEST(LogisticRegressionTest, HandlesImbalance) {
  Rng rng(29);
  Matrix x;
  std::vector<int> y;
  // 10:1 imbalance; balanced class weights should still find positives.
  for (int i = 0; i < 220; ++i) {
    int label = i % 11 == 0 ? 1 : 0;
    std::vector<double> row = {label ? 3.0 + rng.Normal(0, 0.5)
                                     : rng.Normal(0, 0.5)};
    x.AppendRow(row);
    y.push_back(label);
  }
  LogisticRegression lr;
  ASSERT_TRUE(lr.Fit(x, y).ok());
  auto c = Confusion(y, lr.Predict(x));
  EXPECT_GT(c.Recall(), 0.9);
}

TEST(LogisticRegressionTest, RejectsEmpty) {
  LogisticRegression lr;
  EXPECT_FALSE(lr.Fit(Matrix(), {}).ok());
}

// --- MLP ---------------------------------------------------------------------

TEST(MlpTest, BinaryBlobs) {
  Rng rng(31);
  Matrix x;
  std::vector<int> y;
  MakeBlobs(&x, &y, 300, rng);
  MlpClassifier net;
  ASSERT_TRUE(net.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, net.Predict(x)), 0.95);
}

TEST(MlpTest, SolvesXor) {
  Rng rng(33);
  Matrix x;
  std::vector<int> y;
  MakeXor(&x, &y, 600, rng);
  MlpOptions opts;
  opts.hidden = {16, 16};
  opts.epochs = 200;
  MlpClassifier net(opts, 3);
  ASSERT_TRUE(net.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, net.Predict(x)), 0.9);
}

TEST(MlpTest, RegressionFitsLine) {
  Rng rng(35);
  Matrix x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double v = rng.Uniform(-1.0, 1.0);
    std::vector<double> row = {v};
    x.AppendRow(row);
    y.push_back(3.0 * v + 0.5);
  }
  MlpOptions opts;
  opts.task = MlpTask::kRegression;
  opts.epochs = 200;
  Mlp net(opts, 5);
  ASSERT_TRUE(net.Fit(x, y).ok());
  Matrix pred = net.Predict(x);
  std::vector<double> y_hat(pred.rows());
  for (size_t i = 0; i < pred.rows(); ++i) y_hat[i] = pred.At(i, 0);
  EXPECT_GT(R2Score(y, y_hat), 0.95);
}

TEST(MlpTest, MulticlassSoftmaxSumsToOne) {
  Rng rng(37);
  Matrix x;
  Matrix targets(90, 3);
  for (int i = 0; i < 90; ++i) {
    int cls = i % 3;
    std::vector<double> row = {static_cast<double>(cls) + rng.Normal(0, 0.2)};
    x.AppendRow(row);
    targets.At(i, static_cast<size_t>(cls)) = 1.0;
  }
  MlpOptions opts;
  opts.task = MlpTask::kMulticlass;
  opts.n_outputs = 3;
  opts.epochs = 150;
  Mlp net(opts, 7);
  ASSERT_TRUE(net.Fit(x, targets).ok());
  Matrix proba = net.Predict(x);
  for (size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (double v : proba.Row(r)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  auto classes = net.PredictClasses(x);
  std::vector<int> truth(90);
  for (int i = 0; i < 90; ++i) truth[static_cast<size_t>(i)] = i % 3;
  EXPECT_GT(Accuracy(truth, classes), 0.9);
}

TEST(MlpTest, RejectsTargetMismatch) {
  Mlp net;
  Matrix x = Matrix::FromRows({{1.0}});
  Matrix y(2, 1);
  EXPECT_FALSE(net.Fit(x, y).ok());
}

// --- Byte-identity golden ---------------------------------------------------
//
// FNV-1a digests of the serialized bytes of tree-learner fits over fixed
// matrices, recorded from the per-node (value, label) pair-sort split search
// that the rank-based search replaced: every fit must produce the same
// forests byte for byte. The matrices are built from integer draws and exact
// constants only, so the bytes depend on no libm call except the boosters'
// exp.

/// Eight columns that cover the split search's edge cases: many distinct
/// values (the sorted-key path below the root), few tied levels (the binned
/// path), a constant column, signed zeros, adjacent doubles whose midpoint
/// rounds up onto the right value, magnitudes whose midpoint overflows to
/// +inf, a coarse grid, and a column that is constant in all but three rows.
Matrix GoldenMatrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  const double below_one = std::nextafter(1.0, 0.0);
  const double above_one = std::nextafter(1.0, 2.0);
  const double adjacent[] = {below_one, 1.0, above_one, 2.0};
  const double zeros[] = {-0.0, 0.0, 1.0, -1.0};
  const double huge[] = {-1e308, 0.0, 1e308, 1.5e308};
  Matrix x(n, 8);
  for (size_t r = 0; r < n; ++r) {
    x.At(r, 0) = static_cast<double>(rng.UniformInt(int64_t{-5000}, 5000)) /
                 1024.0;
    x.At(r, 1) = static_cast<double>(rng.UniformInt(5));
    x.At(r, 2) = 3.5;
    x.At(r, 3) = zeros[rng.UniformInt(4)];
    x.At(r, 4) = adjacent[rng.UniformInt(4)];
    x.At(r, 5) = huge[rng.UniformInt(4)];
    x.At(r, 6) = static_cast<double>(rng.UniformInt(40)) * 0.1;
    x.At(r, 7) = r % 97 == 5 ? -2.0 : 0.0;
  }
  return x;
}

/// Labels that depend on several columns, with 10% flipped.
std::vector<int> GoldenLabels(const Matrix& x, uint64_t seed) {
  Rng rng(seed ^ 0x5bd1e995ull);
  std::vector<int> y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    bool dirty = (x.At(r, 0) > 0.75) != (x.At(r, 1) == 3.0);
    if (x.At(r, 3) == 0.0 && x.At(r, 4) >= 1.0) dirty = !dirty;
    if (rng.UniformInt(10) == 0) dirty = !dirty;
    y[r] = dirty ? 1 : 0;
  }
  return y;
}

/// Regression targets with ties and signed zeros.
std::vector<double> GoldenTargets(const Matrix& x) {
  std::vector<double> y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    double t = std::floor(x.At(r, 0)) * 0.5 + x.At(r, 1);
    y[r] = x.At(r, 3) == 0.0 ? (r % 2 == 0 ? -0.0 : 0.0) : t;
  }
  return y;
}

template <typename Model>
uint64_t SavedDigest(const Model& model) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  model.Save(&writer);
  Fnv1a h;
  h.Update(out.str());
  return h.Digest();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenFit {
  const char* name;
  uint64_t digest;
};

/// Fits every learner on the golden matrices and returns one digest each.
std::vector<GoldenFit> FitGoldenModels() {
  std::vector<GoldenFit> fits;
  auto add = [&fits](const char* name, uint64_t digest) {
    fits.push_back({name, digest});
  };
  const Matrix x = GoldenMatrix(240, 1);
  const std::vector<int> y = GoldenLabels(x, 1);
  const std::vector<double> yd(y.begin(), y.end());
  const std::vector<double> target = GoldenTargets(x);
  const Matrix small = GoldenMatrix(9, 2);
  const std::vector<int> y_small = GoldenLabels(small, 2);

  {
    RandomForestClassifier forest({}, 3);
    EXPECT_TRUE(forest.Fit(x, y).ok());
    add("forest default", SavedDigest(forest));
  }
  {
    ForestOptions opts;
    opts.n_trees = 6;
    opts.sqrt_features = false;
    opts.subsample = 0.5;
    opts.tree = {.max_depth = 30, .min_samples_leaf = 1,
                 .min_samples_split = 2, .max_features = -1};
    RandomForestClassifier forest(opts, 4);
    EXPECT_TRUE(forest.Fit(x, y).ok());
    add("forest leaf 1", SavedDigest(forest));
  }
  {
    ForestOptions opts;
    opts.n_trees = 5;
    opts.max_samples = 100;
    opts.tree.min_samples_leaf = 40;
    opts.tree.min_samples_split = 80;
    RandomForestClassifier forest(opts, 5);
    EXPECT_TRUE(forest.Fit(x, y).ok());
    add("forest leaf 40", SavedDigest(forest));
  }
  {
    ForestOptions opts;
    opts.n_trees = 8;
    opts.tree.min_samples_leaf = 1;
    opts.tree.min_samples_split = 2;
    RandomForestClassifier forest(opts, 6);
    EXPECT_TRUE(forest.Fit(small, y_small).ok());
    add("forest 9 rows", SavedDigest(forest));
  }
  {
    ForestOptions opts;
    opts.n_trees = 6;
    RandomForestRegressor forest(opts, 7);
    EXPECT_TRUE(forest.Fit(x, target).ok());
    // The regressor has no Save: digest its predictions instead.
    Fnv1a h;
    for (double v : forest.Predict(x)) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h.Update(bits);
    }
    add("forest regressor", h.Digest());
  }
  {
    GradientBoostingClassifier booster({}, 8);
    EXPECT_TRUE(booster.Fit(x, y).ok());
    add("booster default", SavedDigest(booster));
  }
  {
    BoostingOptions opts;
    opts.n_rounds = 12;
    opts.subsample = 0.7;
    opts.tree = {.max_depth = 6, .min_samples_leaf = 1, .min_samples_split = 2,
                 .max_features = 3};
    GradientBoostingClassifier booster(opts, 9);
    EXPECT_TRUE(booster.Fit(x, y).ok());
    add("booster subsample", SavedDigest(booster));
  }
  {
    DecisionTree tree(DecisionTree::Task::kClassification, {}, 10);
    EXPECT_TRUE(tree.Fit(x, yd).ok());
    add("tree default", SavedDigest(tree));
  }
  {
    TreeOptions opts{.max_depth = 12, .min_samples_leaf = 60,
                     .min_samples_split = 120, .max_features = -1};
    DecisionTree tree(DecisionTree::Task::kClassification, opts, 11);
    EXPECT_TRUE(tree.Fit(x, yd).ok());
    add("tree leaf 60", SavedDigest(tree));
  }
  {
    // A bootstrap-style sample with duplicate rows.
    Rng rng(12);
    std::vector<size_t> sample(150);
    for (auto& i : sample) i = static_cast<size_t>(rng.UniformInt(40));
    TreeOptions opts{.max_depth = 20, .min_samples_leaf = 1,
                     .min_samples_split = 2, .max_features = 2};
    DecisionTree tree(DecisionTree::Task::kClassification, opts, 12);
    EXPECT_TRUE(tree.Fit(x, yd, &sample).ok());
    add("tree duplicates", SavedDigest(tree));
  }
  {
    DecisionTree tree(DecisionTree::Task::kRegression, {}, 13);
    EXPECT_TRUE(tree.Fit(x, target).ok());
    add("regression tree", SavedDigest(tree));
  }
  return fits;
}

/// Digest of every entry a knowledge extraction over small adult and movies
/// tables produces: dataset, column, signature bits and model bytes.
uint64_t KnowledgeBaseDigest(uint64_t seed) {
  core::SagedConfig config;
  config.seed = seed;
  config.w2v.epochs = 1;
  core::KnowledgeBase kb(config.char_slots);
  core::KnowledgeExtractor extractor(config);
  for (const char* name : {"adult", "movies"}) {
    datagen::MakeOptions gen;
    gen.rows = 120;
    gen.seed = seed;
    auto ds = datagen::MakeDataset(name, gen);
    EXPECT_TRUE(ds.ok()) << name;
    if (!ds.ok()) return 0;
    EXPECT_TRUE(extractor.AddDataset(ds->dirty, ds->mask, &kb).ok()) << name;
  }
  Fnv1a h;
  h.Update(kb.size());
  for (const auto& entry : kb.entries()) {
    h.Update(entry.dataset);
    h.Update(entry.column);
    for (double v : entry.signature) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h.Update(bits);
    }
    std::ostringstream out;
    BinaryWriter writer(&out);
    EXPECT_TRUE(kb::WriteBaseModel(*entry.model, &writer).ok());
    h.Update(out.str());
  }
  return h.Digest();
}

TEST(ModelGoldenTest, FitsMatchPairSortGolden) {
  const GoldenFit kGolden[] = {
      {"forest default", 0xc2873def0d1bca56ull},
      {"forest leaf 1", 0x82b33ba64ec3d34full},
      {"forest leaf 40", 0xea8a0164a87268deull},
      {"forest 9 rows", 0xd947697bf07a7e7cull},
      {"forest regressor", 0x190a102eb5f60a93ull},
      {"booster default", 0x47d516b1bf46765aull},
      {"booster subsample", 0xcdc326ac27bf5b3eull},
      {"tree default", 0x9274ed8b2a4ce251ull},
      {"tree leaf 60", 0x5b8f9f0ba0254c8cull},
      {"tree duplicates", 0xfe1f4e86decd641cull},
      {"regression tree", 0x6f47ad256dfd6f65ull},
  };
  const std::vector<GoldenFit> fits = FitGoldenModels();
  ASSERT_EQ(fits.size(), std::size(kGolden));
  for (size_t i = 0; i < fits.size(); ++i) {
    EXPECT_EQ(std::string(fits[i].name), kGolden[i].name);
    EXPECT_EQ(Hex(fits[i].digest), Hex(kGolden[i].digest)) << fits[i].name;
  }
}

TEST(ModelGoldenTest, KnowledgeBaseMatchesPairSortGolden) {
  EXPECT_EQ(Hex(KnowledgeBaseDigest(1)), Hex(0xe1376189fe2464c2ull));
  EXPECT_EQ(Hex(KnowledgeBaseDigest(2)), Hex(0x46538d62a4ad462cull));
}

}  // namespace
}  // namespace saged::ml
