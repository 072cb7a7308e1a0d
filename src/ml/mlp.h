#ifndef SAGED_ML_MLP_H_
#define SAGED_ML_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/matrix.h"
#include "ml/preprocess.h"

namespace saged::ml {

/// What the output layer models.
enum class MlpTask {
  kRegression,  // linear output, MSE loss
  kBinary,      // sigmoid output, logistic loss
  kMulticlass,  // softmax output, cross-entropy loss
};

/// Multilayer perceptron hyperparameters — the knobs the Figure-16 tuner
/// searches over (learning rate, number of hidden layers, units per layer).
struct MlpOptions {
  std::vector<size_t> hidden = {32, 16};
  double learning_rate = 1e-2;
  size_t epochs = 120;
  size_t batch_size = 32;
  double l2 = 1e-5;
  MlpTask task = MlpTask::kBinary;
  /// Output width: 1 for regression/binary, #classes for multiclass.
  size_t n_outputs = 1;
};

/// Fully-connected ReLU network trained with Adam. Inputs are standardized
/// internally. This is the paper's "MLP network" base-model option and the
/// Keras downstream model substitute.
class Mlp {
 public:
  explicit Mlp(MlpOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  /// Trains on targets `y` (rows aligned with `x`; width must equal
  /// n_outputs, with multiclass expecting one-hot rows).
  Status Fit(const Matrix& x, const Matrix& y);

  /// Convenience for 1-D targets.
  Status Fit(const Matrix& x, const std::vector<double>& y);

  /// Network outputs after the task's activation (probabilities for
  /// classification tasks, raw values for regression).
  Matrix Predict(const Matrix& x) const;

  /// Argmax class per row (multiclass) / thresholded label (binary).
  std::vector<int> PredictClasses(const Matrix& x) const;

  const MlpOptions& options() const { return options_; }

 private:
  struct Layer {
    Matrix w;               // in x out
    std::vector<double> b;  // out
  };

  Matrix Forward(const Matrix& x, std::vector<Matrix>* activations) const;

  MlpOptions options_;
  uint64_t seed_;
  std::vector<Layer> layers_;
  StandardScaler scaler_;
  bool fitted_ = false;
};

/// BinaryClassifier adapter so the MLP can serve as a SAGED base or meta
/// model interchangeably with forests and boosting.
class MlpClassifier : public BinaryClassifier {
 public:
  explicit MlpClassifier(MlpOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {
    options_.task = MlpTask::kBinary;
    options_.n_outputs = 1;
  }

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

 private:
  MlpOptions options_;
  uint64_t seed_;
  std::unique_ptr<Mlp> net_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_MLP_H_
