#ifndef SAGED_ML_CLASSIFIER_H_
#define SAGED_ML_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

namespace saged::ml {

/// Contract shared by every binary learner in the library: base models over
/// column features, meta-classifiers over meta-features, and the learners
/// inside baseline detectors. Labels are 0 (clean) / 1 (dirty).
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// Trains on the given rows. `y.size()` must equal `x.rows()`.
  virtual Status Fit(const Matrix& x, const std::vector<int>& y) = 0;

  /// P(label == 1) per row. Only valid after a successful Fit.
  virtual std::vector<double> PredictProba(const Matrix& x) const = 0;

  /// Hard labels at the given probability threshold.
  std::vector<int> Predict(const Matrix& x, double threshold = 0.5) const {
    auto proba = PredictProba(x);
    std::vector<int> out(proba.size());
    for (size_t i = 0; i < proba.size(); ++i) {
      out[i] = proba[i] >= threshold ? 1 : 0;
    }
    return out;
  }
};

/// Regression counterpart (used by the repair imputers and boosting).
class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual Status Fit(const Matrix& x, const std::vector<double>& y) = 0;
  virtual std::vector<double> Predict(const Matrix& x) const = 0;
};

}  // namespace saged::ml

#endif  // SAGED_ML_CLASSIFIER_H_
