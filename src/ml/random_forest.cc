#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace saged::ml {

namespace {

/// Bootstrap sample of size `target` drawn from [0, n).
std::vector<size_t> Bootstrap(size_t n, size_t target, Rng& rng) {
  std::vector<size_t> idx(target);
  for (auto& v : idx) v = static_cast<size_t>(rng.UniformInt(n));
  return idx;
}

size_t PerTreeSampleSize(const ForestOptions& options, size_t n) {
  size_t target =
      static_cast<size_t>(std::ceil(options.subsample * static_cast<double>(n)));
  target = std::max<size_t>(target, 1);
  if (options.max_samples > 0) target = std::min(target, options.max_samples);
  return target;
}

TreeOptions EffectiveTreeOptions(const ForestOptions& options,
                                 size_t n_features) {
  TreeOptions tree = options.tree;
  if (options.sqrt_features && tree.max_features <= 0) {
    tree.max_features = std::max(
        1, static_cast<int>(std::lround(std::sqrt(double(n_features)))));
  }
  return tree;
}

}  // namespace

Status RandomForestClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("empty training matrix");
  if (y.size() != x.rows()) return Status::InvalidArgument("label size mismatch");
  trees_.clear();
  n_features_ = x.cols();
  std::vector<double> yd(y.begin(), y.end());
  SAGED_ASSIGN_OR_RETURN(const FeatureRanks ranks, FeatureRanks::Build(x));
  Rng rng(seed_);
  TreeOptions tree_opts = EffectiveTreeOptions(options_, x.cols());
  size_t per_tree = PerTreeSampleSize(options_, x.rows());
  for (size_t t = 0; t < options_.n_trees; ++t) {
    auto tree = std::make_unique<DecisionTree>(
        DecisionTree::Task::kClassification, tree_opts, rng.Next());
    auto sample = Bootstrap(x.rows(), per_tree, rng);
    SAGED_RETURN_NOT_OK(tree->Fit(ranks, yd, &sample));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> RandomForestClassifier::PredictProba(const Matrix& x) const {
  SAGED_CHECK(!trees_.empty()) << "forest not fitted";
  std::vector<double> proba(x.rows(), 0.0);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) {
      proba[r] += tree->PredictOne(x.Row(r));
    }
  }
  for (auto& p : proba) p /= static_cast<double>(trees_.size());
  return proba;
}

void RandomForestClassifier::Save(BinaryWriter* writer) const {
  writer->WriteU64(n_features_);
  writer->WriteU64(trees_.size());
  for (const auto& tree : trees_) tree->Save(writer);
}

Status RandomForestClassifier::Load(BinaryReader* reader) {
  SAGED_ASSIGN_OR_RETURN(n_features_, reader->ReadU64());
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  // A fitted forest has at least one tree; prediction checks for one.
  if (n == 0 || n > 1 << 20) return Status::IoError("corrupt forest");
  trees_.clear();
  for (uint64_t t = 0; t < n; ++t) {
    auto tree = std::make_unique<DecisionTree>(
        DecisionTree::Task::kClassification, TreeOptions{}, 0);
    SAGED_RETURN_NOT_OK(tree->Load(reader));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> RandomForestClassifier::FeatureImportances() const {
  std::vector<double> imp(n_features_, 0.0);
  for (const auto& tree : trees_) {
    auto t = tree->FeatureImportances(n_features_);
    for (size_t i = 0; i < imp.size(); ++i) imp[i] += t[i];
  }
  double total = 0.0;
  for (double v : imp) total += v;
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

Status RandomForestRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("empty training matrix");
  if (y.size() != x.rows()) return Status::InvalidArgument("label size mismatch");
  trees_.clear();
  SAGED_ASSIGN_OR_RETURN(const FeatureRanks ranks, FeatureRanks::Build(x));
  Rng rng(seed_);
  TreeOptions tree_opts = EffectiveTreeOptions(options_, x.cols());
  size_t per_tree = PerTreeSampleSize(options_, x.rows());
  for (size_t t = 0; t < options_.n_trees; ++t) {
    auto tree = std::make_unique<DecisionTree>(DecisionTree::Task::kRegression,
                                               tree_opts, rng.Next());
    auto sample = Bootstrap(x.rows(), per_tree, rng);
    SAGED_RETURN_NOT_OK(tree->Fit(ranks, y, &sample));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

std::vector<double> RandomForestRegressor::Predict(const Matrix& x) const {
  SAGED_CHECK(!trees_.empty()) << "forest not fitted";
  std::vector<double> out(x.rows(), 0.0);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) {
      out[r] += tree->PredictOne(x.Row(r));
    }
  }
  for (auto& v : out) v /= static_cast<double>(trees_.size());
  return out;
}

}  // namespace saged::ml
