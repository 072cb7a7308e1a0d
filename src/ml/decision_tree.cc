#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.h"
#include "common/strings.h"

namespace saged::ml {

namespace {

/// Impurity of a node summarized by (sum, sum_sq, count) of targets.
/// For classification (y in {0,1}) this computes gini via the mean p:
/// gini = 2p(1-p); for regression it is the variance. Both are minimized by
/// the same weighted-sum criterion, so one scan serves both tasks.
double Impurity(DecisionTree::Task task, double sum, double sum_sq,
                double count) {
  if (count <= 0.0) return 0.0;
  double mean = sum / count;
  if (task == DecisionTree::Task::kClassification) {
    return 2.0 * mean * (1.0 - mean);
  }
  double var = sum_sq / count - mean * mean;
  return std::max(var, 0.0);
}

}  // namespace

Result<FeatureRanks> FeatureRanks::Build(const Matrix& x) {
  if (x.rows() == 0) return Status::InvalidArgument("empty training matrix");
  if (x.rows() >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("%zu rows exceed the uint32 rank range", x.rows()));
  }
  FeatureRanks out;
  out.rows_ = x.rows();
  out.cols_ = x.cols();
  out.ranks_.resize(out.rows_ * out.cols_);
  out.offsets_.reserve(out.cols_ + 1);
  out.offsets_.push_back(0);
  std::vector<std::pair<double, uint32_t>> sorted(out.rows_);
  for (size_t f = 0; f < out.cols_; ++f) {
    for (size_t r = 0; r < out.rows_; ++r) {
      const double v = x.At(r, f);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("non-finite value at row %zu, feature %zu", r, f));
      }
      sorted[r] = {v, static_cast<uint32_t>(r)};
    }
    std::sort(sorted.begin(), sorted.end());
    uint32_t* ranks = out.ranks_.data() + f * out.rows_;
    for (size_t i = 0; i < out.rows_; ++i) {
      if (i == 0 || sorted[i].first != sorted[i - 1].first) {
        out.values_.push_back(sorted[i].first);
      }
      ranks[sorted[i].second] =
          static_cast<uint32_t>(out.values_.size() - 1 - out.offsets_.back());
    }
    out.offsets_.push_back(out.values_.size());
  }
  return out;
}

/// Per-tree split-search scratch, sized once in Fit and reused by every
/// node. The bins are all zero between nodes: a scan clears what it read.
struct DecisionTree::SplitScratch {
  std::vector<uint32_t> count;     // classification: samples per rank
  std::vector<uint32_t> positive;  // classification: positives per rank
  std::vector<uint64_t> keys;      // classification: rank << 1 | label
  std::vector<std::pair<uint32_t, double>> pairs;  // regression: (rank, y)
};

Status DecisionTree::Fit(const Matrix& x, const std::vector<double>& y,
                         const std::vector<size_t>* sample) {
  SAGED_ASSIGN_OR_RETURN(const FeatureRanks ranks, FeatureRanks::Build(x));
  return Fit(ranks, y, sample);
}

Status DecisionTree::Fit(const FeatureRanks& ranks,
                         const std::vector<double>& y,
                         const std::vector<size_t>* sample) {
  if (y.size() != ranks.rows()) {
    return Status::InvalidArgument(StrFormat(
        "y has %zu entries, x has %zu rows", y.size(), ranks.rows()));
  }
  for (double v : y) {
    const bool valid = task_ == Task::kClassification
                           ? v == 0.0 || v == 1.0
                           : std::isfinite(v);
    if (!valid) {
      return Status::InvalidArgument(
          task_ == Task::kClassification ? "classification labels must be 0/1"
                                         : "non-finite regression target");
    }
  }
  nodes_.clear();
  n_features_ = ranks.cols();
  std::vector<size_t> idx;
  if (sample != nullptr) {
    idx = *sample;
    for (size_t i : idx) {
      if (i >= ranks.rows()) {
        return Status::InvalidArgument(StrFormat(
            "sample row %zu out of range (%zu rows)", i, ranks.rows()));
      }
    }
  } else {
    idx.resize(ranks.rows());
    std::iota(idx.begin(), idx.end(), 0);
  }
  if (idx.empty()) return Status::InvalidArgument("empty sample");
  SplitScratch scratch;
  if (task_ == Task::kClassification) {
    size_t max_distinct = 0;
    for (size_t f = 0; f < n_features_; ++f) {
      max_distinct = std::max(max_distinct, ranks.values(f).size());
    }
    scratch.count.assign(max_distinct, 0);
    scratch.positive.assign(max_distinct, 0);
    scratch.keys.reserve(idx.size());
  } else {
    scratch.pairs.reserve(idx.size());
  }
  BuildNode(ranks, y, idx, 0, idx.size(), 0, scratch);
  return Status::OK();
}

// Searching ranks picks the same split as searching sorted (value, label)
// pairs, so fits are byte-identical to that search (ModelGoldenTest):
//   - rank order is value order, so the candidates are the same adjacent
//     distinct values, visited per feature in the same ascending order,
//     with the same `gain > best_gain` tie-break and `0.5 * (a + b)`
//     threshold (a zero's sign cannot change a + b when a != b);
//   - 0/1 label sums are exact integers, so per-rank bin sums equal the
//     per-sample running sums;
//   - regression sorts (rank, target) pairs, which is the old summation
//     order up to swapping equal pairs.
int DecisionTree::BuildNode(const FeatureRanks& ranks,
                            const std::vector<double>& y,
                            std::vector<size_t>& idx, size_t begin, size_t end,
                            int depth, SplitScratch& scratch) {
  const size_t n = end - begin;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    sum += y[idx[i]];
    sum_sq += y[idx[i]] * y[idx[i]];
  }
  const double node_impurity = Impurity(task_, sum, sum_sq, n);

  int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].value = sum / static_cast<double>(n);
  nodes_[node_index].n_samples = n;

  bool can_split = depth < options_.max_depth &&
                   n >= options_.min_samples_split && node_impurity > 1e-12;
  if (!can_split) return node_index;

  // Candidate feature subset (random forests pass max_features = sqrt).
  std::vector<size_t> features(n_features_);
  std::iota(features.begin(), features.end(), 0);
  size_t n_try = n_features_;
  if (options_.max_features > 0 &&
      static_cast<size_t>(options_.max_features) < n_features_) {
    n_try = static_cast<size_t>(options_.max_features);
    rng_.Shuffle(features);
  }

  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  // Scores the split between distinct values `lo` and `hi` of feature `f`
  // with `left_n` samples (summing to left_sum / left_sq) at or below lo.
  auto consider = [&](size_t f, size_t left_n, double left_sum,
                      double left_sq, double lo, double hi) {
    size_t right_n = n - left_n;
    if (left_n < options_.min_samples_leaf ||
        right_n < options_.min_samples_leaf) {
      return;
    }
    double right_sum = sum - left_sum;
    double right_sq = sum_sq - left_sq;
    double weighted =
        (static_cast<double>(left_n) * Impurity(task_, left_sum, left_sq, left_n) +
         static_cast<double>(right_n) *
             Impurity(task_, right_sum, right_sq, right_n)) /
        static_cast<double>(n);
    double gain = node_impurity - weighted;
    if (gain > best_gain) {
      best_gain = gain;
      best_feature = static_cast<int>(f);
      best_threshold = 0.5 * (lo + hi);
    }
  };

  for (size_t fi = 0; fi < n_try; ++fi) {
    const size_t f = features[fi];
    const std::span<const uint32_t> rank = ranks.ranks(f);
    const std::span<const double> values = ranks.values(f);
    if (task_ == Task::kRegression) {
      auto& pairs = scratch.pairs;
      pairs.clear();
      for (size_t i = begin; i < end; ++i) {
        pairs.emplace_back(rank[idx[i]], y[idx[i]]);
      }
      std::sort(pairs.begin(), pairs.end());
      if (pairs.front().first == pairs.back().first) continue;  // constant
      double left_sum = 0.0;
      double left_sq = 0.0;
      for (size_t i = 0; i + 1 < n; ++i) {
        left_sum += pairs[i].second;
        left_sq += pairs[i].second * pairs[i].second;
        // Only split between distinct feature values.
        if (pairs[i].first == pairs[i + 1].first) continue;
        consider(f, i + 1, left_sum, left_sq, values[pairs[i].first],
                 values[pairs[i + 1].first]);
      }
    } else if (values.size() <= 2 * n) {
      // Few distinct values for the node's size: bin the samples by rank
      // and scan the bins, clearing each as it is read.
      uint32_t lo = std::numeric_limits<uint32_t>::max();
      uint32_t hi = 0;
      for (size_t i = begin; i < end; ++i) {
        const uint32_t r = rank[idx[i]];
        ++scratch.count[r];
        scratch.positive[r] += y[idx[i]] != 0.0 ? 1 : 0;
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      size_t left_n = 0;
      uint32_t left_pos = 0;
      uint32_t prev = lo;
      for (uint32_t r = lo; r <= hi; ++r) {
        if (scratch.count[r] == 0) continue;
        if (left_n > 0) {
          consider(f, left_n, left_pos, left_pos, values[prev], values[r]);
        }
        left_n += scratch.count[r];
        left_pos += scratch.positive[r];
        prev = r;
        scratch.count[r] = 0;
        scratch.positive[r] = 0;
      }
    } else {
      // Many distinct values: sort packed (rank, label) keys.
      auto& keys = scratch.keys;
      keys.clear();
      for (size_t i = begin; i < end; ++i) {
        keys.push_back(uint64_t{rank[idx[i]]} << 1 |
                       (y[idx[i]] != 0.0 ? 1 : 0));
      }
      std::sort(keys.begin(), keys.end());
      if (keys.front() >> 1 == keys.back() >> 1) continue;  // constant
      uint32_t left_pos = 0;
      for (size_t i = 0; i + 1 < n; ++i) {
        left_pos += static_cast<uint32_t>(keys[i] & 1);
        const uint64_t r = keys[i] >> 1;
        const uint64_t next = keys[i + 1] >> 1;
        if (r == next) continue;
        consider(f, i + 1, left_pos, left_pos, values[r], values[next]);
      }
    }
  }

  if (best_feature < 0) return node_index;

  // Partition idx[begin, end) in place around the threshold. A value is at
  // or below it exactly when its rank is below `cut`, the number of
  // distinct values at or below it.
  const auto feature = static_cast<size_t>(best_feature);
  const std::span<const double> values = ranks.values(feature);
  const auto cut = static_cast<uint32_t>(
      std::upper_bound(values.begin(), values.end(), best_threshold) -
      values.begin());
  const std::span<const uint32_t> rank = ranks.ranks(feature);
  size_t mid = begin;
  for (size_t i = begin; i < end; ++i) {
    if (rank[idx[i]] < cut) {
      std::swap(idx[i], idx[mid]);
      ++mid;
    }
  }
  if (mid == begin || mid == end) return node_index;  // degenerate partition

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].gain = best_gain * static_cast<double>(n);
  int left = BuildNode(ranks, y, idx, begin, mid, depth + 1, scratch);
  int right = BuildNode(ranks, y, idx, mid, end, depth + 1, scratch);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

int DecisionTree::ApplyOne(std::span<const double> row) const {
  SAGED_CHECK(!nodes_.empty()) << "tree not fitted";
  int node = 0;
  while (nodes_[node].feature >= 0) {
    size_t f = static_cast<size_t>(nodes_[node].feature);
    node = row[f] <= nodes_[node].threshold ? nodes_[node].left
                                            : nodes_[node].right;
  }
  return node;
}

double DecisionTree::PredictOne(std::span<const double> row) const {
  return nodes_[ApplyOne(row)].value;
}

std::vector<double> DecisionTree::Predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = PredictOne(x.Row(r));
  return out;
}

void DecisionTree::SetLeafValue(int node_index, double value) {
  SAGED_CHECK(IsLeaf(node_index)) << "node " << node_index << " is not a leaf";
  nodes_[static_cast<size_t>(node_index)].value = value;
}

void DecisionTree::Save(BinaryWriter* writer) const {
  writer->WriteU8(task_ == Task::kClassification ? 0 : 1);
  writer->WriteU64(n_features_);
  writer->WriteU64(nodes_.size());
  for (const auto& node : nodes_) {
    writer->WriteI32(node.feature);
    writer->WriteF64(node.threshold);
    writer->WriteI32(node.left);
    writer->WriteI32(node.right);
    writer->WriteF64(node.value);
    writer->WriteF64(node.gain);
    writer->WriteU64(node.n_samples);
  }
}

Status DecisionTree::Load(BinaryReader* reader) {
  SAGED_ASSIGN_OR_RETURN(uint8_t task, reader->ReadU8());
  task_ = task == 0 ? Task::kClassification : Task::kRegression;
  SAGED_ASSIGN_OR_RETURN(n_features_, reader->ReadU64());
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  if (n == 0 || n > BinaryReader::kMaxLength) {
    return Status::IoError("corrupt tree");
  }
  // The count is untrusted until its bytes arrive: reserve at most a
  // bounded prefix of it (64Ki nodes; a default depth-10 tree has at most
  // 2047, so a real tree loads with one allocation) and grow past that.
  constexpr uint64_t kMaxReservedNodes = uint64_t{1} << 16;
  nodes_.clear();
  nodes_.reserve(static_cast<size_t>(std::min(n, kMaxReservedNodes)));
  for (uint64_t i = 0; i < n; ++i) {
    Node node;
    SAGED_ASSIGN_OR_RETURN(node.feature, reader->ReadI32());
    SAGED_ASSIGN_OR_RETURN(node.threshold, reader->ReadF64());
    SAGED_ASSIGN_OR_RETURN(node.left, reader->ReadI32());
    SAGED_ASSIGN_OR_RETURN(node.right, reader->ReadI32());
    SAGED_ASSIGN_OR_RETURN(node.value, reader->ReadF64());
    SAGED_ASSIGN_OR_RETURN(node.gain, reader->ReadF64());
    SAGED_ASSIGN_OR_RETURN(node.n_samples, reader->ReadU64());
    // Fit builds the tree in pre-order, so an internal node's children
    // come after it: with every child in (i, n), ApplyOne's walk strictly
    // advances and stops at a leaf inside the array.
    if (node.feature >= 0) {
      const auto index = static_cast<long long>(i);
      const auto count = static_cast<long long>(n);
      if (node.left <= index || node.left >= count || node.right <= index ||
          node.right >= count) {
        return Status::IoError("corrupt tree: child index out of range");
      }
      if (static_cast<uint64_t>(node.feature) >= n_features_) {
        return Status::IoError("corrupt tree: split feature out of range");
      }
    }
    nodes_.push_back(node);
  }
  return Status::OK();
}

std::vector<double> DecisionTree::FeatureImportances(size_t n_features) const {
  std::vector<double> imp(n_features, 0.0);
  for (const auto& node : nodes_) {
    if (node.feature >= 0 && static_cast<size_t>(node.feature) < n_features) {
      imp[static_cast<size_t>(node.feature)] += node.gain;
    }
  }
  return imp;
}

Status DecisionTreeClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  std::vector<double> yd(y.begin(), y.end());
  tree_ = std::make_unique<DecisionTree>(DecisionTree::Task::kClassification,
                                         options_, seed_);
  return tree_->Fit(x, yd);
}

std::vector<double> DecisionTreeClassifier::PredictProba(const Matrix& x) const {
  SAGED_CHECK(tree_ != nullptr) << "classifier not fitted";
  return tree_->Predict(x);
}

Status DecisionTreeRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  tree_ = std::make_unique<DecisionTree>(DecisionTree::Task::kRegression,
                                         options_, seed_);
  return tree_->Fit(x, y);
}

std::vector<double> DecisionTreeRegressor::Predict(const Matrix& x) const {
  SAGED_CHECK(tree_ != nullptr) << "regressor not fitted";
  return tree_->Predict(x);
}

}  // namespace saged::ml
