#include "pipeline/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/strings.h"
#include "common/trace.h"
#include "data/value.h"
#include "ml/decision_tree.h"
#include "ml/matrix.h"

namespace saged::pipeline {

namespace {

/// Numeric encoding of the full table: numeric columns parse (missing ->
/// column mean), non-numeric columns label-encode.
ml::Matrix EncodeTable(const Table& t, std::vector<bool>* numeric_out) {
  const size_t rows = t.NumRows();
  const size_t cols = t.NumCols();
  ml::Matrix x(rows, cols);
  numeric_out->assign(cols, false);
  for (size_t j = 0; j < cols; ++j) {
    auto nums = t.column(j).AsNumbers();
    size_t numeric_n = 0;
    double sum = 0.0;
    for (const auto& v : nums) {
      if (v) {
        ++numeric_n;
        sum += *v;
      }
    }
    bool numeric = numeric_n * 2 >= rows && numeric_n > 0;
    (*numeric_out)[j] = numeric;
    if (numeric) {
      double mean = sum / static_cast<double>(numeric_n);
      if (!std::isfinite(mean)) {
        // The sum overflowed (cells near DBL_MAX). Sum each cell's share
        // instead, and clamp its rounding, so the trees below, which reject
        // non-finite features, can still train on this column.
        mean = 0.0;
        for (const auto& v : nums) {
          if (v) mean += *v / static_cast<double>(numeric_n);
        }
        mean = std::clamp(mean, std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::max());
      }
      for (size_t r = 0; r < rows; ++r) {
        x.At(r, j) = nums[r] ? *nums[r] : mean;
      }
    } else {
      std::unordered_map<std::string, double> ids;
      for (size_t r = 0; r < rows; ++r) {
        auto [it, inserted] =
            ids.emplace(t.cell(r, j), static_cast<double>(ids.size()));
        x.At(r, j) = it->second;
      }
    }
  }
  return x;
}

std::string FormatLike(const Column& column, double value) {
  // Match the column's integer/decimal style.
  size_t decimals = 0;
  for (const auto& v : column.values()) {
    size_t dot = v.find('.');
    if (dot != std::string::npos) {
      decimals = std::max(decimals, v.size() - dot - 1);
    }
  }
  decimals = std::min<size_t>(decimals, 6);
  if (decimals == 0) {
    return StrFormat("%lld", static_cast<long long>(std::llround(value)));
  }
  return StrFormat("%.*f", static_cast<int>(decimals), value);
}

}  // namespace

Result<Table> RepairTable(const Table& dirty, const ErrorMask& detections,
                          uint64_t seed) {
  SAGED_TRACE_SPAN("pipeline/repair");
  const size_t rows = dirty.NumRows();
  const size_t cols = dirty.NumCols();
  if (detections.rows() != rows || detections.cols() != cols) {
    return Status::InvalidArgument("detection mask shape mismatch");
  }
  Table repaired = dirty;
  repaired.set_name(dirty.name() + "_repaired");

  std::vector<bool> numeric;
  ml::Matrix encoded = EncodeTable(dirty, &numeric);

  for (size_t j = 0; j < cols; ++j) {
    std::vector<size_t> flagged;
    std::vector<size_t> clean;
    for (size_t r = 0; r < rows; ++r) {
      (detections.IsDirty(r, j) ? flagged : clean).push_back(r);
    }
    if (flagged.empty()) continue;

    if (numeric[j] && clean.size() >= 10) {
      // Decision-tree regression from the other columns. Detection is never
      // perfect: undetected errors (e.g. a typo'd exponent parsing as 1e94)
      // would poison the imputer's training targets and then spread through
      // leaf averages, so train only on targets inside a robust quantile
      // envelope and clamp predictions to it.
      // Median/MAD envelope (50% breakdown): with imperfect detection a
      // sizable share of the "clean" rows still carries extreme values, so
      // quantile-based bounds would themselves be set by errors.
      std::vector<double> sorted;
      sorted.reserve(clean.size());
      for (size_t r : clean) sorted.push_back(encoded.At(r, j));
      std::sort(sorted.begin(), sorted.end());
      double med = sorted[sorted.size() / 2];
      std::vector<double> dev(sorted.size());
      for (size_t i = 0; i < sorted.size(); ++i) {
        dev[i] = std::abs(sorted[i] - med);
      }
      std::sort(dev.begin(), dev.end());
      double robust_sd = 1.4826 * dev[dev.size() / 2];
      if (robust_sd < 1e-12) {
        robust_sd = std::abs(med) > 1e-12 ? 0.05 * std::abs(med) : 1.0;
      }
      double lo = med - 8.0 * robust_sd;
      double hi = med + 8.0 * robust_sd;

      std::vector<size_t> feature_cols;
      for (size_t c = 0; c < cols; ++c) {
        if (c != j) feature_cols.push_back(c);
      }
      ml::Matrix features = encoded.SelectCols(feature_cols);
      std::vector<size_t> train_rows;
      std::vector<double> train_y;
      for (size_t r : clean) {
        double v = encoded.At(r, j);
        if (v < lo || v > hi) continue;  // suspected undetected error
        train_rows.push_back(r);
        train_y.push_back(v);
      }

      ml::TreeOptions opts;
      opts.max_depth = 8;
      ml::DecisionTreeRegressor model(opts, seed + j);
      if (train_rows.size() >= 10 &&
          model.Fit(features.SelectRows(train_rows), train_y).ok()) {
        ml::Matrix pred_x = features.SelectRows(flagged);
        auto preds = model.Predict(pred_x);
        for (size_t i = 0; i < flagged.size(); ++i) {
          double v = std::clamp(preds[i], lo, hi);
          repaired.set_cell(flagged[i], j, FormatLike(dirty.column(j), v));
        }
        continue;
      }
    }

    // Categorical/text repair: prefer the closest frequent unflagged value
    // by edit distance (a typo'd "Stoutt" snaps back to "Stout"); fall back
    // to the column mode when nothing is plausibly close.
    std::unordered_map<std::string, size_t> freq;
    for (size_t r : clean) ++freq[dirty.cell(r, j)];
    if (freq.empty()) continue;  // entire column flagged: leave as is
    std::vector<std::pair<std::string, size_t>> domain(freq.begin(),
                                                       freq.end());
    // Most frequent first so ties in distance resolve to common values.
    std::sort(domain.begin(), domain.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    const std::string& mode = domain.front().first;
    // Cap the scan: huge open domains make edit-distance repair both slow
    // and meaningless, so only the frequent head is considered.
    size_t scan = std::min<size_t>(domain.size(), 256);
    for (size_t r : flagged) {
      const std::string& bad = dirty.cell(r, j);
      size_t best_dist = std::max<size_t>(1, bad.size() / 4) + 1;
      const std::string* best_value = nullptr;
      for (size_t d = 0; d < scan; ++d) {
        const std::string& cand = domain[d].first;
        if (cand.size() + best_dist <= bad.size() ||
            bad.size() + best_dist <= cand.size()) {
          continue;  // length difference alone exceeds the budget
        }
        size_t dist = EditDistance(bad, cand);
        if (dist < best_dist) {
          best_dist = dist;
          best_value = &cand;
        }
      }
      repaired.set_cell(r, j, best_value != nullptr ? *best_value : mode);
    }
  }
  return repaired;
}

}  // namespace saged::pipeline
