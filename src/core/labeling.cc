#include "core/labeling.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "ml/agglomerative.h"

namespace saged::core {

namespace {
/// Row cap for the clustering sampler's dendrograms: agglomerative
/// clustering is quadratic, and sampling preserves the strategy's behaviour.
constexpr size_t kClusteringSampleCap = 300;
}  // namespace

namespace internal {

std::vector<size_t> SelectRandom(size_t n_rows, size_t budget, Rng& rng) {
  return rng.SampleWithoutReplacement(n_rows, budget);
}

std::vector<size_t> SelectHeuristic(const std::vector<ml::Matrix>& meta,
                                    const std::vector<size_t>& vote_cols,
                                    size_t budget, Rng& rng) {
  if (meta.empty()) return {};
  const size_t n = meta[0].rows();
  // Count positive meta-feature values per tuple across all columns; break
  // ties randomly so equal-count tuples are not biased by index order.
  std::vector<std::pair<double, size_t>> scored(n);
  for (size_t r = 0; r < n; ++r) {
    double ones = 0.0;
    for (size_t j = 0; j < meta.size(); ++j) {
      auto row = meta[j].Row(r);
      size_t votes = j < vote_cols.size() && vote_cols[j] > 0
                         ? std::min(vote_cols[j], row.size())
                         : row.size();
      for (size_t c = 0; c < votes; ++c) ones += row[c];
    }
    scored[r] = {ones + 1e-6 * rng.Uniform(), r};
  }
  size_t k = std::min(budget, n);
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), std::greater<>());
  std::vector<size_t> out(k);
  for (size_t i = 0; i < k; ++i) out[i] = scored[i].second;
  return out;
}

std::vector<size_t> SelectClustering(const std::vector<ml::Matrix>& meta,
                                     size_t budget, size_t sample_cap,
                                     Rng& rng) {
  if (meta.empty()) return {};
  const size_t n = meta[0].rows();
  budget = std::min(budget, n);

  // Quadratic dendrograms: work on a row subsample when the dataset is big.
  std::vector<size_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  if (n > sample_cap) {
    pool = rng.SampleWithoutReplacement(n, sample_cap);
    std::sort(pool.begin(), pool.end());
  }
  const size_t p = pool.size();

  // One dendrogram per column over the pooled rows, built once; each
  // iteration cuts it into a growing number of clusters.
  std::vector<ml::Agglomerative> dendrograms(meta.size());
  for (size_t j = 0; j < meta.size(); ++j) {
    ml::Matrix sub = meta[j].SelectRows(pool);
    if (!dendrograms[j].Fit(sub).ok()) return SelectRandom(n, budget, rng);
  }

  std::vector<size_t> selected;
  std::unordered_set<size_t> selected_pool_idx;
  for (size_t iter = 0; iter < budget; ++iter) {
    size_t k = std::min<size_t>(2 + iter, p);
    // Score per pooled row: number of columns whose cluster contains no
    // labeled row yet; softmax-sample a tuple from that distribution.
    std::vector<std::vector<size_t>> labels(meta.size());
    for (size_t j = 0; j < meta.size(); ++j) labels[j] = dendrograms[j].Cut(k);

    std::vector<double> score(p, 0.0);
    for (size_t j = 0; j < meta.size(); ++j) {
      std::vector<char> cluster_labeled(k, 0);
      for (size_t idx : selected_pool_idx) cluster_labeled[labels[j][idx]] = 1;
      for (size_t i = 0; i < p; ++i) {
        if (!cluster_labeled[labels[j][i]]) score[i] += 1.0;
      }
    }
    for (size_t idx : selected_pool_idx) score[idx] = -1e9;  // already taken

    // Softmax over coverage scores.
    double mx = *std::max_element(score.begin(), score.end());
    std::vector<double> probs(p);
    for (size_t i = 0; i < p; ++i) {
      probs[i] = score[i] < -1e8 ? 0.0 : std::exp(score[i] - mx);
    }
    size_t pick = rng.Weighted(probs);
    if (selected_pool_idx.count(pick)) {
      // Degenerate distribution; fall back to any unselected row.
      for (size_t i = 0; i < p; ++i) {
        if (!selected_pool_idx.count(i)) {
          pick = i;
          break;
        }
      }
    }
    selected_pool_idx.insert(pick);
    selected.push_back(pool[pick]);
    if (selected_pool_idx.size() >= p) break;
  }
  return selected;
}

std::vector<size_t> SelectActiveLearning(const SagedConfig& config,
                                         const std::vector<ml::Matrix>& meta,
                                         size_t budget, const OracleFn& oracle,
                                         Rng& rng) {
  if (meta.empty()) return {};
  const size_t n = meta[0].rows();
  budget = std::min(budget, n);
  const size_t n_cols = meta.size();

  // Bootstrap with two random tuples so every column has some labels.
  std::vector<size_t> selected = SelectRandom(n, std::min<size_t>(2, budget), rng);
  std::unordered_set<size_t> taken(selected.begin(), selected.end());

  // Per-column oracle answers for selected tuples.
  std::vector<std::vector<int>> y(n_cols);
  auto record = [&](size_t row) {
    for (size_t j = 0; j < n_cols; ++j) {
      y[j].push_back(oracle(row, j));
    }
  };
  for (size_t row : selected) record(row);

  while (selected.size() < budget) {
    // Train a quick per-column classifier and measure certainty.
    double worst_certainty = 2.0;
    std::vector<double> worst_proba;
    for (size_t j = 0; j < n_cols; ++j) {
      bool has0 = std::find(y[j].begin(), y[j].end(), 0) != y[j].end();
      bool has1 = std::find(y[j].begin(), y[j].end(), 1) != y[j].end();
      std::vector<double> proba;
      if (has0 && has1) {
        auto model = MakeModel(ModelType::kLogisticRegression, config.seed);
        ml::Matrix train = meta[j].SelectRows(selected);
        if (model.ok() && (*model)->Fit(train, y[j]).ok()) {
          proba = (*model)->PredictProba(meta[j]);
        }
      }
      if (proba.empty()) {
        // Untrainable column: treat as maximally uncertain.
        proba.assign(n, 0.5);
      }
      double certainty = 0.0;
      for (double v : proba) certainty += std::abs(v - 0.5) * 2.0;
      certainty /= static_cast<double>(n);
      if (certainty < worst_certainty) {
        worst_certainty = certainty;
        worst_proba = std::move(proba);
      }
    }

    // Least certain unlabeled tuple within the chosen column.
    double best_u = -1.0;
    size_t pick = 0;
    bool found = false;
    for (size_t r = 0; r < n; ++r) {
      if (taken.count(r)) continue;
      double u = 1.0 - std::abs(worst_proba[r] - 0.5) * 2.0;
      u += 1e-7 * rng.Uniform();  // random tie-break
      if (u > best_u) {
        best_u = u;
        pick = r;
        found = true;
      }
    }
    if (!found) break;
    taken.insert(pick);
    selected.push_back(pick);
    record(pick);
  }
  return selected;
}

}  // namespace internal

std::vector<size_t> SelectTuples(const SagedConfig& config,
                                 const std::vector<ml::Matrix>& meta,
                                 const std::vector<size_t>& vote_cols,
                                 size_t budget, const OracleFn& oracle,
                                 Rng& rng) {
  if (meta.empty() || meta[0].rows() == 0 || budget == 0) return {};
  SAGED_TRACE_SPAN("label/select_tuples");
  SAGED_COUNTER_ADD("label.budget_spent", std::min(budget, meta[0].rows()));
  const size_t n = meta[0].rows();
  switch (config.labeling) {
    case LabelingStrategy::kRandom:
      return internal::SelectRandom(n, budget, rng);
    case LabelingStrategy::kHeuristic:
      return internal::SelectHeuristic(meta, vote_cols, budget, rng);
    case LabelingStrategy::kClustering:
      return internal::SelectClustering(meta, budget, kClusteringSampleCap,
                                        rng);
    case LabelingStrategy::kActiveLearning:
      return internal::SelectActiveLearning(config, meta, budget, oracle, rng);
  }
  return internal::SelectRandom(n, budget, rng);
}

}  // namespace saged::core
