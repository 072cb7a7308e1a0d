#ifndef SAGED_ML_KNN_H_
#define SAGED_ML_KNN_H_

#include <vector>

#include "ml/classifier.h"

namespace saged::ml {

/// Brute-force k-nearest-neighbor binary classifier (vote fraction as
/// probability). Small training sets only — distances are exact scans.
class KnnClassifier : public BinaryClassifier {
 public:
  explicit KnnClassifier(size_t k = 5) : k_(k) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

 private:
  size_t k_;
  Matrix train_x_;
  std::vector<int> train_y_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_KNN_H_
