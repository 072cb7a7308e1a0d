#ifndef SAGED_CORE_MATCHER_H_
#define SAGED_CORE_MATCHER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/knowledge_base.h"
#include "core/signature_index.h"

namespace saged::core {

/// Sentinel threshold below any cosine similarity: SelectRelevant keeps
/// every candidate (the clustering policy's "inherit the whole cluster").
inline constexpr double kNoMatchThreshold = -2.0;

/// Shared B_rel selection over an explicit candidate set. Every matcher
/// policy funnels through this, so index-vs-scan parity is well-defined:
///   1. candidates with similarity >= threshold survive, in candidate
///      order;
///   2. when none survives (and candidates is non-empty), the single most
///      similar candidate is kept — ties broken toward the lowest index —
///      so detection can proceed (the documented fallback);
///   3. a survivor set larger than max_models is truncated under the
///      deterministic (similarity descending, index ascending) key.
/// Records the match.* telemetry for the final selection.
std::vector<size_t> SelectRelevant(const KnowledgeBase& kb,
                                   const std::vector<double>& signature,
                                   std::vector<size_t> candidates,
                                   double threshold, size_t max_models);

/// SelectRelevant with the similarities already computed: sims[i] must be
/// bit-identical to CosineSimilarity(entries[candidates[i]].signature,
/// signature). SignatureIndex::Probe computes them from its packed
/// bucket-major signature copy (contiguous scan instead of a pointer-chase
/// per candidate); since the copies are exact, selection — and therefore
/// every downstream mask byte — matches the scan path.
std::vector<size_t> SelectRelevant(const KnowledgeBase& kb,
                                   const std::vector<double>& signature,
                                   std::vector<size_t> candidates,
                                   std::vector<double> sims, double threshold,
                                   size_t max_models);

/// Selects the relevant base pre-trained models B_rel for one dirty column,
/// given its signature (Section 3.1). Every SimilarityMethod is one probe
/// policy over a SignatureIndex partition of the knowledge base:
///   * cosine: no partition; every entry is a candidate, and those with
///     similarity >= cosine_threshold join B_rel;
///   * clustering: a raw-space K-Means partition with n_signature_clusters
///     buckets, fitted per matcher; the nearest bucket is probed once and
///     its members join B_rel wholesale (kNoMatchThreshold, Figure 4);
///   * indexed: the knowledge base's normalized signature index, probed
///     index_probes times (0 = AutoProbes), with cosine_threshold.
/// Candidates then go through SelectRelevant. Probing every bucket is the
/// exact scan, byte-identical to cosine. When every probed bucket is empty
/// (K-Means may leave a bucket empty, and a loaded index may carry one),
/// the knowledge base's single most similar entry is returned, so Match is
/// never empty for a non-empty knowledge base.
class Matcher {
 public:
  /// `partition` == nullptr scans every entry. `count_index_probes` records
  /// the kb.index_queries / kb.index_candidates counters (indexed policy).
  Matcher(const KnowledgeBase* kb,
          std::shared_ptr<const SignatureIndex> partition, size_t probes,
          double threshold, size_t max_models, bool count_index_probes);

  /// Indices into kb.entries(), selected as documented on the class.
  std::vector<size_t> Match(const std::vector<double>& signature) const;

 private:
  const KnowledgeBase* kb_;
  std::shared_ptr<const SignatureIndex> partition_;
  size_t probes_;
  double threshold_;
  size_t max_models_;
  bool count_index_probes_;
};

/// Builds the matcher policy selected by `config`. `similarity = kIndexed`
/// requires a knowledge base carrying a signature index over all of its
/// entries (a kb::ShardStore product).
Result<std::unique_ptr<Matcher>> MakeMatcher(const SagedConfig& config,
                                             const KnowledgeBase* kb);

}  // namespace saged::core

#endif  // SAGED_CORE_MATCHER_H_
