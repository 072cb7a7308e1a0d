#include "core/matcher.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/contracts.h"
#include "common/telemetry.h"

namespace saged::core {

namespace {

/// Records the similarity of each selected base model (the paper's Figure 7
/// quantity) plus match-set size; only runs when telemetry is enabled.
void RecordMatchTelemetry(const KnowledgeBase& kb,
                          const std::vector<double>& signature,
                          const std::vector<size_t>& selected) {
  if (!telemetry::Enabled()) return;
  SAGED_COUNTER_INC("match.calls");
  SAGED_COUNTER_ADD("match.models_matched", selected.size());
  for (size_t i : selected) {
    SAGED_HISTOGRAM_OBSERVE(
        "match.similarity",
        ml::CosineSimilarity(kb.entries()[i].signature, signature));
  }
}

std::vector<size_t> AllEntries(size_t n) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

}  // namespace

std::vector<size_t> SelectRelevant(const KnowledgeBase& kb,
                                   const std::vector<double>& signature,
                                   std::vector<size_t> candidates,
                                   double threshold, size_t max_models) {
  // One similarity per candidate; every later step reuses these values, so
  // equal-similarity ordering cannot drift between steps.
  std::vector<double> sims(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    sims[i] =
        ml::CosineSimilarity(kb.entries()[candidates[i]].signature, signature);
  }
  return SelectRelevant(kb, signature, std::move(candidates), std::move(sims),
                        threshold, max_models);
}

std::vector<size_t> SelectRelevant(const KnowledgeBase& kb,
                                   const std::vector<double>& signature,
                                   std::vector<size_t> candidates,
                                   std::vector<double> sims, double threshold,
                                   size_t max_models) {
  SAGED_DCHECK(sims.size() == candidates.size());
  std::vector<size_t> out;
  std::vector<double> out_sims;
  out.reserve(candidates.size());
  out_sims.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (sims[i] >= threshold) {
      out.push_back(candidates[i]);
      out_sims.push_back(sims[i]);
    }
  }
  if (out.empty() && !candidates.empty()) {
    // Fallback: the single most similar candidate, lowest index on ties.
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (sims[i] > sims[best] ||
          (sims[i] == sims[best] && candidates[i] < candidates[best])) {
        best = i;
      }
    }
    out.push_back(candidates[best]);
    out_sims.push_back(sims[best]);
  }
  if (out.size() > max_models) {
    // Deterministic (similarity desc, index asc) key — NOT a stable sort
    // over whatever order the candidates arrived in, so a bucket-probing
    // matcher and the full scan truncate ties identically. The key is a
    // total order (index breaks every tie), so partial_sort of the top
    // max_models yields the same selection as a full sort at O(S) instead
    // of O(S log S) — on near-duplicate inventories the survivor set is
    // large and this truncation, not the similarity scan, dominates.
    std::vector<size_t> order(out.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + max_models, order.end(),
                      [&](size_t a, size_t b) {
                        if (out_sims[a] != out_sims[b]) {
                          return out_sims[a] > out_sims[b];
                        }
                        return out[a] < out[b];
                      });
    std::vector<size_t> capped(max_models);
    for (size_t i = 0; i < max_models; ++i) capped[i] = out[order[i]];
    out = std::move(capped);
  }
  RecordMatchTelemetry(kb, signature, out);
  return out;
}

Matcher::Matcher(const KnowledgeBase* kb,
                 std::shared_ptr<const SignatureIndex> partition,
                 size_t probes, double threshold, size_t max_models,
                 bool count_index_probes)
    : kb_(kb),
      partition_(std::move(partition)),
      probes_(probes),
      threshold_(threshold),
      max_models_(max_models),
      count_index_probes_(count_index_probes) {}

std::vector<size_t> Matcher::Match(const std::vector<double>& signature) const {
  if (partition_ == nullptr || probes_ >= partition_->n_buckets()) {
    // The exact scan: every entry, ascending, without touching centroids.
    if (count_index_probes_) {
      SAGED_COUNTER_INC("kb.index_queries");
      SAGED_COUNTER_ADD("kb.index_candidates", kb_->size());
    }
    return SelectRelevant(*kb_, signature, AllEntries(kb_->size()),
                          threshold_, max_models_);
  }
  SignatureIndex::Probed probed = partition_->Probe(signature, probes_);
  if (count_index_probes_) {
    SAGED_COUNTER_INC("kb.index_queries");
    SAGED_COUNTER_ADD("kb.index_candidates", probed.entries.size());
  }
  if (probed.entries.empty()) {
    // Every probed bucket is empty: fall back to the whole knowledge base's
    // most similar entry (SelectRelevant's fallback, since no similarity
    // reaches an infinite threshold).
    return SelectRelevant(*kb_, signature, AllEntries(kb_->size()),
                          std::numeric_limits<double>::infinity(),
                          max_models_);
  }
  return SelectRelevant(*kb_, signature, std::move(probed.entries),
                        std::move(probed.sims), threshold_, max_models_);
}

Result<std::unique_ptr<Matcher>> MakeMatcher(const SagedConfig& config,
                                             const KnowledgeBase* kb) {
  if (kb->empty()) {
    return Status::InvalidArgument(
        "knowledge base is empty; run knowledge extraction first");
  }
  const size_t max_models = config.max_models_per_column;
  switch (config.similarity) {
    case SimilarityMethod::kCosine:
      return std::make_unique<Matcher>(kb, nullptr, 0, config.cosine_threshold,
                                       max_models,
                                       /*count_index_probes=*/false);
    case SimilarityMethod::kClustering: {
      SAGED_ASSIGN_OR_RETURN(
          SignatureIndex partition,
          SignatureIndex::Build(kb->SignatureMatrix(),
                                config.n_signature_clusters, config.seed,
                                SignatureIndex::Space::kRaw));
      return std::make_unique<Matcher>(
          kb, std::make_shared<const SignatureIndex>(std::move(partition)), 1,
          kNoMatchThreshold, max_models, /*count_index_probes=*/false);
    }
    case SimilarityMethod::kIndexed: {
      const std::shared_ptr<const SignatureIndex>& index =
          kb->signature_index();
      if (index == nullptr) {
        return Status::InvalidArgument(
            "similarity=indexed needs an index-bearing knowledge base: open "
            "a sharded store (kb::ShardStore) first");
      }
      if (index->n_entries() != kb->size()) {
        return Status::InvalidArgument(
            "signature index covers a different knowledge base (entry "
            "counts differ); rebuild it with `saged kb build-index`");
      }
      const size_t probes = config.index_probes != 0
                                ? config.index_probes
                                : SignatureIndex::AutoProbes(index->n_buckets());
      return std::make_unique<Matcher>(kb, index, probes,
                                       config.cosine_threshold, max_models,
                                       /*count_index_probes=*/true);
    }
  }
  return Status::InvalidArgument("unknown similarity method");
}

}  // namespace saged::core
