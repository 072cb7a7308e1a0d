#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/contracts.h"
#include "common/rng.h"

namespace saged::ml {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

Status GradientBoostingClassifier::Fit(const Matrix& x,
                                       const std::vector<int>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("empty training matrix");
  if (y.size() != x.rows()) return Status::InvalidArgument("label size mismatch");
  trees_.clear();
  SAGED_ASSIGN_OR_RETURN(const FeatureRanks ranks, FeatureRanks::Build(x));

  const size_t n = x.rows();
  double pos = 0.0;
  for (int v : y) pos += v;
  double p0 = std::clamp(pos / static_cast<double>(n), 1e-4, 1.0 - 1e-4);
  base_score_ = std::log(p0 / (1.0 - p0));

  std::vector<double> raw(n, base_score_);
  std::vector<double> residual(n);
  Rng rng(seed_);

  for (size_t round = 0; round < options_.n_rounds; ++round) {
    // Negative gradient of logistic loss: y - sigmoid(raw).
    for (size_t i = 0; i < n; ++i) {
      residual[i] = static_cast<double>(y[i]) - Sigmoid(raw[i]);
    }

    std::vector<size_t> sample;
    if (options_.subsample < 1.0) {
      size_t k = std::max<size_t>(
          1, static_cast<size_t>(options_.subsample * static_cast<double>(n)));
      sample = rng.SampleWithoutReplacement(n, k);
    } else {
      sample.resize(n);
      std::iota(sample.begin(), sample.end(), 0);
    }

    auto tree = std::make_unique<DecisionTree>(DecisionTree::Task::kRegression,
                                               options_.tree, rng.Next());
    SAGED_RETURN_NOT_OK(tree->Fit(ranks, residual, &sample));

    // Newton step per leaf: sum(residual) / sum(p (1 - p)).
    std::unordered_map<int, std::pair<double, double>> leaf_stats;
    for (size_t i : sample) {
      int leaf = tree->ApplyOne(x.Row(i));
      double p = Sigmoid(raw[i]);
      auto& stats = leaf_stats[leaf];
      stats.first += residual[i];
      stats.second += p * (1.0 - p);
    }
    for (const auto& [leaf, stats] : leaf_stats) {
      double denom = std::max(stats.second, 1e-8);
      tree->SetLeafValue(leaf, stats.first / denom);
    }

    for (size_t i = 0; i < n; ++i) {
      raw[i] += options_.learning_rate * tree->PredictOne(x.Row(i));
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

void GradientBoostingClassifier::Save(BinaryWriter* writer) const {
  writer->WriteF64(options_.learning_rate);
  writer->WriteF64(base_score_);
  writer->WriteU64(trees_.size());
  for (const auto& tree : trees_) tree->Save(writer);
}

Status GradientBoostingClassifier::Load(BinaryReader* reader) {
  SAGED_ASSIGN_OR_RETURN(options_.learning_rate, reader->ReadF64());
  SAGED_ASSIGN_OR_RETURN(base_score_, reader->ReadF64());
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  // A fitted booster has at least one tree; prediction checks for one.
  if (n == 0 || n > 1 << 20) return Status::IoError("corrupt booster");
  trees_.clear();
  for (uint64_t t = 0; t < n; ++t) {
    auto tree = std::make_unique<DecisionTree>(DecisionTree::Task::kRegression,
                                               TreeOptions{}, 0);
    SAGED_RETURN_NOT_OK(tree->Load(reader));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double GradientBoostingClassifier::RawScore(std::span<const double> row) const {
  double score = base_score_;
  for (const auto& tree : trees_) {
    score += options_.learning_rate * tree->PredictOne(row);
  }
  return score;
}

std::vector<double> GradientBoostingClassifier::PredictProba(
    const Matrix& x) const {
  SAGED_CHECK(!trees_.empty()) << "booster not fitted";
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = Sigmoid(RawScore(x.Row(r)));
  return out;
}

}  // namespace saged::ml
