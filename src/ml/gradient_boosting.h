#ifndef SAGED_ML_GRADIENT_BOOSTING_H_
#define SAGED_ML_GRADIENT_BOOSTING_H_

#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace saged::ml {

/// Gradient-boosted trees hyperparameters (binary logistic loss).
struct BoostingOptions {
  size_t n_rounds = 30;
  double learning_rate = 0.2;
  TreeOptions tree{.max_depth = 4, .min_samples_leaf = 2, .min_samples_split = 4,
                   .max_features = -1};
  /// Stochastic GB: per-round row subsample fraction.
  double subsample = 1.0;
};

/// XGBoost-style gradient boosting with Newton leaf updates on the logistic
/// loss. Stands in for the paper's XGBoost base/meta classifier choice.
class GradientBoostingClassifier : public BinaryClassifier {
 public:
  explicit GradientBoostingClassifier(BoostingOptions options = {},
                                      uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

  /// Persists / restores the fitted ensemble (learning rate included, since
  /// it scales every stored leaf at prediction time).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  double RawScore(std::span<const double> row) const;

  BoostingOptions options_;
  uint64_t seed_;
  double base_score_ = 0.0;  // log-odds prior
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_GRADIENT_BOOSTING_H_
