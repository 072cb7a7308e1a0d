#ifndef SAGED_ML_LOGISTIC_REGRESSION_H_
#define SAGED_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/binary_io.h"
#include "ml/classifier.h"

namespace saged::ml {

/// L2-regularized logistic regression trained by full-batch gradient
/// descent with a constant learning rate. Cheap linear baseline learner.
struct LogisticOptions {
  double learning_rate = 0.5;
  double l2 = 1e-4;
  size_t epochs = 200;
  /// Balance classes by weighting the minority class up (useful when only a
  /// handful of dirty cells are labeled).
  bool class_weight_balanced = true;
};

class LogisticRegression : public BinaryClassifier {
 public:
  explicit LogisticRegression(LogisticOptions options = {})
      : options_(options) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Persists / restores the fitted model (including the folded-in scaler).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  LogisticOptions options_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  // Feature scaling folded into the model so callers need not pre-scale.
  std::vector<double> means_;
  std::vector<double> inv_std_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_LOGISTIC_REGRESSION_H_
