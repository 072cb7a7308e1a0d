#ifndef SAGED_ML_RANDOM_FOREST_H_
#define SAGED_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace saged::ml {

/// Bagged ensemble hyperparameters.
struct ForestOptions {
  size_t n_trees = 16;
  TreeOptions tree;
  /// Per-tree bootstrap sample size as a fraction of the training set.
  double subsample = 1.0;
  /// Cap on the absolute per-tree sample (0 = no cap). Keeps base-model
  /// training tractable on the large scalability datasets.
  size_t max_samples = 0;
  /// When true, each split considers sqrt(n_features) features.
  bool sqrt_features = true;
};

/// Random forest classifier: the default base / meta learner in SAGED (the
/// paper names random forests and XGBoost as interchangeable choices).
class RandomForestClassifier : public BinaryClassifier {
 public:
  explicit RandomForestClassifier(ForestOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

  /// Mean impurity-decrease importances (normalized to sum 1).
  std::vector<double> FeatureImportances() const;

  /// Persists / restores the fitted forest.
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  ForestOptions options_;
  uint64_t seed_;
  size_t n_features_ = 0;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

/// Random forest regressor (categorical repair imputer backend).
class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  std::vector<double> Predict(const Matrix& x) const override;

 private:
  ForestOptions options_;
  uint64_t seed_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_RANDOM_FOREST_H_
