#include "core/signature_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.h"
#include "features/signature.h"
#include "ml/kmeans.h"

namespace saged::core {

namespace {

/// L2-normalized copy (zero vectors stay zero, mirroring the convention of
/// ml::CosineSimilarity, which maps them to similarity 0).
std::vector<double> Normalized(std::span<const double> v) {
  double norm_sq = 0.0;
  for (double x : v) norm_sq += x * x;
  std::vector<double> out(v.begin(), v.end());
  if (norm_sq > 0.0) {
    double inv = 1.0 / std::sqrt(norm_sq);
    for (double& x : out) x *= inv;
  }
  return out;
}

}  // namespace

size_t SignatureIndex::AutoBuckets(size_t n_entries) {
  if (n_entries == 0) return 1;
  auto buckets =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n_entries))));
  return std::max<size_t>(1, buckets);
}

size_t SignatureIndex::AutoProbes(size_t n_buckets) {
  return std::min(n_buckets, std::max<size_t>(4, n_buckets / 32));
}

Result<SignatureIndex> SignatureIndex::Build(const ml::Matrix& signatures,
                                             size_t n_buckets, uint64_t seed,
                                             Space space) {
  if (signatures.empty()) {
    return Status::InvalidArgument(
        "cannot build a signature index over an empty knowledge base");
  }
  if (n_buckets == 0) n_buckets = AutoBuckets(signatures.rows());

  ml::KMeans kmeans(std::min(n_buckets, signatures.rows()), 100, seed);
  if (space == Space::kRaw) {
    SAGED_RETURN_NOT_OK(kmeans.Fit(signatures));
  } else {
    ml::Matrix normalized;
    for (size_t r = 0; r < signatures.rows(); ++r) {
      normalized.AppendRow(Normalized(signatures.Row(r)));
    }
    SAGED_RETURN_NOT_OK(kmeans.Fit(normalized));
  }

  SignatureIndex index;
  index.space_ = space;
  index.centroids_ = kmeans.centroids();
  index.assignments_.reserve(signatures.rows());
  for (size_t label : kmeans.labels()) {
    index.assignments_.push_back(static_cast<uint32_t>(label));
  }
  index.Pack(kmeans.k(), signatures);
  return index;
}

void SignatureIndex::Pack(size_t n_buckets, const ml::Matrix& signatures) {
  buckets_.assign(n_buckets, {});
  for (size_t i = 0; i < assignments_.size(); ++i) {
    buckets_[assignments_[i]].push_back(i);
  }
  std::vector<size_t> bucket_major;
  bucket_major.reserve(assignments_.size());
  packed_begin_.clear();
  for (const auto& members : buckets_) {
    packed_begin_.push_back(bucket_major.size());
    bucket_major.insert(bucket_major.end(), members.begin(), members.end());
  }
  packed_ = signatures.SelectRows(bucket_major);
}

std::vector<size_t> SignatureIndex::TopBuckets(
    const std::vector<double>& signature, size_t probes) const {
  std::vector<double> query =
      space_ == Space::kRaw ? signature : Normalized(signature);
  std::vector<double> dist(centroids_.rows());
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    dist[c] = ml::EuclideanDistance(centroids_.Row(c), query);
  }
  std::vector<size_t> order(centroids_.rows());
  for (size_t c = 0; c < order.size(); ++c) order[c] = c;
  auto key = [&](size_t a, size_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  };
  // The key is a total order (bucket id breaks ties), so nth_element picks
  // the same prefix set a full sort would; sorting just that prefix then
  // reproduces the full order's prefix exactly.
  if (probes < order.size()) {
    std::nth_element(order.begin(), order.begin() + probes, order.end(), key);
    order.resize(probes);
  }
  std::sort(order.begin(), order.end(), key);
  return order;
}

SignatureIndex::Probed SignatureIndex::Probe(
    const std::vector<double>& signature, size_t probes) const {
  const std::vector<size_t> top = TopBuckets(signature, probes);
  size_t total = 0;
  for (size_t bucket : top) total += buckets_[bucket].size();
  // Score each probed bucket as one contiguous sweep over the packed rows.
  std::vector<std::pair<size_t, double>> scored;
  scored.reserve(total);
  std::vector<size_t> bounds{0};
  for (size_t bucket : top) {
    const auto& members = buckets_[bucket];
    const size_t row0 = packed_begin_[bucket];
    for (size_t i = 0; i < members.size(); ++i) {
      scored.emplace_back(
          members[i], ml::CosineSimilarity(packed_.Row(row0 + i), signature));
    }
    bounds.push_back(scored.size());
  }
  // Candidate order is part of the selection contract (SelectRelevant keeps
  // survivor order below the cap): ascending, as if scanning a sub-KB.
  // `scored` is a concatenation of ascending runs (each bucket keeps entry
  // order), so pairwise merges reach that order in O(C log P) — a full
  // re-sort's O(C log C) would hand back a big slice of the scan time the
  // probing just saved.
  while (bounds.size() > 2) {
    std::vector<size_t> merged{bounds[0]};
    for (size_t i = 0; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(scored.begin() + bounds[i],
                         scored.begin() + bounds[i + 1],
                         scored.begin() + bounds[i + 2]);
      merged.push_back(bounds[i + 2]);
    }
    if (bounds.size() % 2 == 0) merged.push_back(bounds.back());
    bounds = std::move(merged);
  }
  Probed out;
  out.entries.reserve(scored.size());
  out.sims.reserve(scored.size());
  for (const auto& [entry, sim] : scored) {
    out.entries.push_back(entry);
    out.sims.push_back(sim);
  }
  return out;
}

void SignatureIndex::Save(BinaryWriter* writer) const {
  SAGED_CHECK(space_ == Space::kNormalized)
      << "only the normalized signature index is persisted";
  writer->WriteU64(centroids_.rows());
  writer->WriteU64(centroids_.cols());
  for (size_t r = 0; r < centroids_.rows(); ++r) {
    for (double v : centroids_.Row(r)) writer->WriteF64(v);
  }
  writer->WriteU64(assignments_.size());
  for (uint32_t a : assignments_) writer->WriteU32(a);
}

Result<SignatureIndex> SignatureIndex::Load(BinaryReader* reader,
                                            const ml::Matrix& signatures) {
  SignatureIndex index;
  SAGED_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  SAGED_ASSIGN_OR_RETURN(uint64_t cols, reader->ReadU64());
  // Queries are kSignatureWidth wide; a centroid of any other width would
  // make TopBuckets read past one of them.
  if (cols != features::kSignatureWidth) {
    return Status::IoError("signature-index centroid width is not " +
                           std::to_string(features::kSignatureWidth));
  }
  if (rows == 0 || rows > BinaryReader::kMaxLength / cols) {
    return Status::IoError("corrupt signature-index centroid shape");
  }
  SAGED_ASSIGN_OR_RETURN(std::vector<double> centroids,
                         reader->ReadF64s(rows * cols));
  index.centroids_ = ml::Matrix(rows, cols);
  index.centroids_.mutable_data().swap(centroids);
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  if (n != signatures.rows()) {
    return Status::IoError("signature index disagrees with entry count");
  }
  // K-Means never fits more buckets than entries.
  if (rows > n) {
    return Status::IoError("corrupt signature-index assignment count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    SAGED_ASSIGN_OR_RETURN(uint32_t a, reader->ReadU32());
    if (a >= rows) {
      return Status::IoError("signature-index assignment out of range");
    }
    index.assignments_.push_back(a);
  }
  index.Pack(rows, signatures);
  return index;
}

}  // namespace saged::core
