#ifndef SAGED_ML_DECISION_TREE_H_
#define SAGED_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "ml/classifier.h"
#include "ml/matrix.h"

namespace saged::ml {

/// Hyperparameters shared by trees and the ensembles built on them.
struct TreeOptions {
  int max_depth = 10;
  size_t min_samples_leaf = 2;
  size_t min_samples_split = 4;
  /// Number of features considered per split; <= 0 means all features.
  int max_features = -1;
};

/// Per-feature ranks of a training matrix, built once per ensemble fit and
/// shared by all its trees: every cell becomes the uint32 rank of its value
/// among the feature's sorted distinct values. Rank order is value order
/// (-0.0 and +0.0 share a rank), so a split search over ranks sees the
/// same candidates as one over values.
class FeatureRanks {
 public:
  /// InvalidArgument when `x` is empty, holds NaN or +-Inf (ranks need a
  /// total order), or has more rows than a uint32 rank can index.
  static Result<FeatureRanks> Build(const Matrix& x);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Rank of every row's value in feature `f`.
  std::span<const uint32_t> ranks(size_t f) const {
    return {ranks_.data() + f * rows_, rows_};
  }
  /// Feature `f`'s sorted distinct values; a rank indexes into them.
  std::span<const double> values(size_t f) const {
    return {values_.data() + offsets_[f], offsets_[f + 1] - offsets_[f]};
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint32_t> ranks_;   // column-major, cols x rows
  std::vector<double> values_;    // every feature's distinct values
  std::vector<size_t> offsets_;   // feature f's values start at offsets_[f]
};

/// CART decision tree supporting gini (classification) and variance
/// (regression) splits. Leaf values are the positive-class fraction /
/// target mean; gradient boosting rewrites them via SetLeafValue.
class DecisionTree {
 public:
  enum class Task { kClassification, kRegression };

  DecisionTree(Task task, TreeOptions options, uint64_t seed = 42)
      : task_(task), options_(options), rng_(seed) {}

  /// Fits on rows `sample` of `x` (all rows when `sample` is null).
  /// y holds 0/1 for classification, finite targets for regression.
  /// InvalidArgument when `x` holds NaN or +-Inf.
  Status Fit(const Matrix& x, const std::vector<double>& y,
             const std::vector<size_t>* sample = nullptr);
  /// Same, over ranks an ensemble built once for all its trees.
  Status Fit(const FeatureRanks& ranks, const std::vector<double>& y,
             const std::vector<size_t>* sample = nullptr);

  /// Leaf value for one row (P(dirty) or predicted target).
  double PredictOne(std::span<const double> row) const;
  std::vector<double> Predict(const Matrix& x) const;

  /// Index (into the node array) of the leaf a row lands in.
  int ApplyOne(std::span<const double> row) const;

  /// Overwrites a leaf's value (Newton step in gradient boosting).
  void SetLeafValue(int node_index, double value);

  size_t NumNodes() const { return nodes_.size(); }
  bool IsLeaf(int node_index) const { return nodes_[node_index].feature < 0; }

  /// Total impurity decrease attributed to each feature (unnormalized).
  std::vector<double> FeatureImportances(size_t n_features) const;

  /// Persists / restores the fitted tree (knowledge-base serialization).
  void Save(BinaryWriter* writer) const;
  Status Load(BinaryReader* reader);

 private:
  struct Node {
    int feature = -1;     // -1 marks a leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;   // leaf payload
    double gain = 0.0;    // impurity decrease at this split
    size_t n_samples = 0;
  };

  struct SplitScratch;

  int BuildNode(const FeatureRanks& ranks, const std::vector<double>& y,
                std::vector<size_t>& idx, size_t begin, size_t end, int depth,
                SplitScratch& scratch);

  Task task_;
  TreeOptions options_;
  Rng rng_;
  std::vector<Node> nodes_;
  size_t n_features_ = 0;
};

/// BinaryClassifier adapter for a single tree.
class DecisionTreeClassifier : public BinaryClassifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  Status Fit(const Matrix& x, const std::vector<int>& y) override;
  std::vector<double> PredictProba(const Matrix& x) const override;

 private:
  TreeOptions options_;
  uint64_t seed_;
  std::unique_ptr<DecisionTree> tree_;
};

/// Regressor adapter for a single tree (used by imputers).
class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions options = {}, uint64_t seed = 42)
      : options_(options), seed_(seed) {}

  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  std::vector<double> Predict(const Matrix& x) const override;

 private:
  TreeOptions options_;
  uint64_t seed_;
  std::unique_ptr<DecisionTree> tree_;
};

}  // namespace saged::ml

#endif  // SAGED_ML_DECISION_TREE_H_
