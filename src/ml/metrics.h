#ifndef SAGED_ML_METRICS_H_
#define SAGED_ML_METRICS_H_

#include <cstddef>
#include <vector>

namespace saged::ml {

/// Binary classification confusion counts (positive class = 1).
struct BinaryConfusion {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  size_t tn = 0;

  double Precision() const;
  double Recall() const;
  double F1() const;
};

/// Builds the confusion matrix for 0/1 labels.
BinaryConfusion Confusion(const std::vector<int>& truth,
                          const std::vector<int>& predicted);

/// Multi-class accuracy.
double Accuracy(const std::vector<int>& truth, const std::vector<int>& predicted);

/// Macro-averaged F1 over the classes present in `truth`.
double MacroF1(const std::vector<int>& truth, const std::vector<int>& predicted);

/// Regression metrics.
double MeanSquaredError(const std::vector<double>& truth,
                        const std::vector<double>& predicted);
double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& predicted);
double R2Score(const std::vector<double>& truth,
               const std::vector<double>& predicted);

}  // namespace saged::ml

#endif  // SAGED_ML_METRICS_H_
