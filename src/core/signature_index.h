#ifndef SAGED_CORE_SIGNATURE_INDEX_H_
#define SAGED_CORE_SIGNATURE_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "ml/matrix.h"

namespace saged::core {

/// K-Means partition of base-model signatures into buckets — the IVF-flat
/// layout every matching policy probes (see core/matcher.h):
///   * kNormalized: signatures are L2-normalized before clustering and
///     before each query, so Euclidean nearest-centroid order equals cosine
///     similarity order. This is the sharded store's signature index; its
///     bucket assignment also keys the store's shard files
///     (src/kb/shard_store.h), so "probe few buckets" and "load few shards"
///     are the same locality.
///   * kRaw: clusters the signatures as they are — the paper's K-Means
///     clustering over historical columns (Section 3.1, Figure 4).
/// Deterministic for a given (signature order, n_buckets, seed, space):
/// ml::KMeans is seeded and the bucket members keep entry order.
///
/// Every partition keeps a bucket-major copy of the entry signatures so a
/// probe scans each bucket contiguously (without it, per-candidate
/// pointer-chases through scattered BaseModelEntry heap blocks eat most of
/// what the probing saved). The copies are exact, so similarities computed
/// from them are bit-identical to the entry-by-entry scan.
class SignatureIndex {
 public:
  enum class Space { kNormalized, kRaw };

  /// Default bucket count: ceil(sqrt(n_entries)), at least 1 — the classic
  /// IVF balance point where centroid scan and bucket scan cost the same.
  static size_t AutoBuckets(size_t n_entries);

  /// Default probe count: n_buckets/32, at least 4 (clamped to n_buckets).
  /// Empirically holds recall@max_models >= 0.95 on the synthetic corpus
  /// while scanning a few percent of the entries; bench_kb_scale gates it.
  static size_t AutoProbes(size_t n_buckets);

  /// Fits the partition over `signatures` (one row per knowledge-base
  /// entry, in entry order). `n_buckets` = 0 uses AutoBuckets; the count is
  /// clamped to the entry count by KMeans.
  static Result<SignatureIndex> Build(const ml::Matrix& signatures,
                                      size_t n_buckets, uint64_t seed,
                                      Space space = Space::kNormalized);

  size_t n_buckets() const { return buckets_.size(); }
  size_t n_entries() const { return assignments_.size(); }
  /// Entry index -> bucket id.
  const std::vector<uint32_t>& assignments() const { return assignments_; }
  /// Bucket id -> member entry indices, ascending.
  const std::vector<std::vector<size_t>>& buckets() const { return buckets_; }

  /// The `probes` nearest bucket ids in ascending centroid distance from
  /// the query (normalized first in kNormalized space); equal distances
  /// break toward the lower bucket id. The result is the prefix of the full
  /// order, selected in O(n_buckets) instead of a full sort.
  std::vector<size_t> TopBuckets(const std::vector<double>& signature,
                                 size_t probes) const;

  /// Members of the `probes` nearest buckets, in ascending entry order,
  /// with each one's cosine similarity to `signature`.
  struct Probed {
    std::vector<size_t> entries;
    std::vector<double> sims;
  };
  Probed Probe(const std::vector<double>& signature, size_t probes) const;

  /// Manifest-embedded serialization (centroids + assignments). Only
  /// normalized indexes are persisted; Load re-packs from `signatures`
  /// (one row per entry, in entry order) and rejects an index whose
  /// centroid width is not features::kSignatureWidth or whose assignment
  /// count differs from the signature rows.
  void Save(BinaryWriter* writer) const;
  static Result<SignatureIndex> Load(BinaryReader* reader,
                                     const ml::Matrix& signatures);

 private:
  Space space_ = Space::kNormalized;
  ml::Matrix centroids_;  // in space_
  std::vector<uint32_t> assignments_;
  std::vector<std::vector<size_t>> buckets_;
  ml::Matrix packed_;  // raw (unnormalized) signatures, bucket-major
  std::vector<size_t> packed_begin_;  // first packed row of each bucket

  /// Derives buckets_ from assignments_ and packs `signatures`.
  void Pack(size_t n_buckets, const ml::Matrix& signatures);
};

}  // namespace saged::core

#endif  // SAGED_CORE_SIGNATURE_INDEX_H_
