#include "kb/signature_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.h"
#include "common/telemetry.h"
#include "core/config.h"
#include "ml/kmeans.h"

namespace saged::kb {

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

Result<SignatureIndex> SignatureIndex::Build(const core::KnowledgeBase& kb,
                                             size_t n_buckets, uint64_t seed) {
  if (kb.empty()) {
    return Status::InvalidArgument(
        "cannot build a signature index over an empty knowledge base");
  }
  if (n_buckets == 0) n_buckets = AutoBuckets(kb.size());

  ml::Matrix normalized;
  for (const auto& entry : kb.entries()) {
    normalized.AppendRow(Normalized(entry.signature));
  }

  ml::KMeans kmeans(std::min(n_buckets, kb.size()), 100, seed);
  SAGED_RETURN_NOT_OK(kmeans.Fit(normalized));

  SignatureIndex index;
  index.centroids_ = kmeans.centroids();
  index.assignments_.reserve(kb.size());
  for (size_t label : kmeans.labels()) {
    index.assignments_.push_back(static_cast<uint32_t>(label));
  }
  index.RebuildBuckets(kmeans.k());
  index.PackSignatures(kb);
  return index;
}

void SignatureIndex::PackSignatures(const core::KnowledgeBase& kb) {
  SAGED_CHECK_EQ(kb.size(), n_entries())
      << "signature index covers a different knowledge base";
  const size_t width = kb.entries().front().signature.size();
  packed_begin_.assign(buckets_.size() + 1, 0);
  for (size_t b = 0; b < buckets_.size(); ++b) {
    packed_begin_[b + 1] = packed_begin_[b] + buckets_[b].size();
  }
  packed_ = ml::Matrix(n_entries(), width);
  size_t row = 0;
  for (const auto& members : buckets_) {
    for (size_t e : members) {
      const auto& signature = kb.entries()[e].signature;
      SAGED_CHECK_EQ(signature.size(), width)
          << "knowledge-base signatures disagree on width";
      std::copy(signature.begin(), signature.end(), packed_.Row(row).begin());
      ++row;
    }
  }
}

void SignatureIndex::RebuildBuckets(size_t n_buckets) {
  buckets_.assign(n_buckets, {});
  for (size_t i = 0; i < assignments_.size(); ++i) {
    buckets_[assignments_[i]].push_back(i);
  }
}

std::vector<size_t> SignatureIndex::ProbeOrder(
    const std::vector<double>& signature) const {
  return TopBuckets(signature, n_buckets());
}

std::vector<size_t> SignatureIndex::TopBuckets(
    const std::vector<double>& signature, size_t probes) const {
  std::vector<double> query = Normalized(signature);
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
  // reproduces ProbeOrder's order exactly.
  if (probes < order.size()) {
    std::nth_element(order.begin(), order.begin() + probes, order.end(), key);
    order.resize(probes);
  }
  std::sort(order.begin(), order.end(), key);
  return order;
}

std::vector<size_t> SignatureIndex::Candidates(
    const std::vector<double>& signature, size_t probes) const {
  if (probes >= n_buckets()) {
    // Exact-scan degenerate: every entry, ascending, without touching the
    // centroids — byte-identical input to what CosineMatcher scans.
    std::vector<size_t> all(n_entries());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  std::vector<size_t> order = TopBuckets(signature, probes);
  probes = std::min(probes, order.size());
  size_t total = 0;
  for (size_t p = 0; p < probes; ++p) total += buckets_[order[p]].size();
  std::vector<size_t> out;
  out.reserve(total);
  std::vector<size_t> bounds{0};
  for (size_t p = 0; p < probes; ++p) {
    const auto& members = buckets_[order[p]];
    out.insert(out.end(), members.begin(), members.end());
    bounds.push_back(out.size());
  }
  // Candidate order is part of the selection contract (SelectRelevant keeps
  // survivor order below the cap): ascending, as if scanning a sub-KB.
  // `out` is a concatenation of ascending runs (each bucket keeps entry
  // order), so pairwise merges reach that order in O(C log P) — a full
  // re-sort's O(C log C) would hand back a big slice of the scan time the
  // probing just saved.
  while (bounds.size() > 2) {
    std::vector<size_t> merged{bounds[0]};
    for (size_t i = 0; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(out.begin() + bounds[i], out.begin() + bounds[i + 1],
                         out.begin() + bounds[i + 2]);
      merged.push_back(bounds[i + 2]);
    }
    if (bounds.size() % 2 == 0) merged.push_back(bounds.back());
    bounds = std::move(merged);
  }
  return out;
}

void SignatureIndex::Save(BinaryWriter* writer) const {
  writer->WriteU64(centroids_.rows());
  writer->WriteU64(centroids_.cols());
  for (size_t r = 0; r < centroids_.rows(); ++r) {
    for (double v : centroids_.Row(r)) writer->WriteF64(v);
  }
  writer->WriteU64(assignments_.size());
  for (uint32_t a : assignments_) writer->WriteU32(a);
}

Result<SignatureIndex> SignatureIndex::Load(BinaryReader* reader) {
  SignatureIndex index;
  SAGED_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadU64());
  SAGED_ASSIGN_OR_RETURN(uint64_t cols, reader->ReadU64());
  if (rows == 0 || rows > BinaryReader::kMaxLength ||
      (cols != 0 && rows > BinaryReader::kMaxLength / cols)) {
    return Status::IoError("corrupt signature-index centroid shape");
  }
  SAGED_ASSIGN_OR_RETURN(std::vector<double> centroids,
                         reader->ReadF64s(rows * cols));
  index.centroids_ = ml::Matrix(rows, cols);
  index.centroids_.mutable_data().swap(centroids);
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  // K-Means never fits more buckets than entries; the bound also keeps a
  // zero-width shape from sizing the bucket table past the file's bytes.
  if (n > BinaryReader::kMaxLength || rows > n) {
    return Status::IoError("corrupt signature-index assignment count");
  }
  for (uint64_t i = 0; i < n; ++i) {
    SAGED_ASSIGN_OR_RETURN(uint32_t a, reader->ReadU32());
    if (a >= rows) {
      return Status::IoError("signature-index assignment out of range");
    }
    index.assignments_.push_back(a);
  }
  index.RebuildBuckets(rows);
  return index;
}

IndexedMatcher::IndexedMatcher(const core::KnowledgeBase* kb,
                               const SignatureIndex* index, double threshold,
                               size_t max_models, size_t probes)
    : kb_(kb),
      index_(index),
      threshold_(threshold),
      max_models_(max_models),
      probes_(probes) {}

std::vector<size_t> IndexedMatcher::Match(
    const std::vector<double>& signature) const {
  if (!index_->packed() || probes_ >= index_->n_buckets()) {
    // Degenerate (probe everything) or unpacked index: explicit candidate
    // list through the shared scan — at probe=all this is byte-identical
    // input to what CosineMatcher scans.
    std::vector<size_t> candidates = index_->Candidates(signature, probes_);
    SAGED_COUNTER_INC("kb.index_queries");
    SAGED_COUNTER_ADD("kb.index_candidates", candidates.size());
    return core::SelectRelevant(*kb_, signature, std::move(candidates),
                                threshold_, max_models_);
  }

  // Fast path: score each probed bucket as one contiguous sweep over the
  // packed bucket-major signatures, then merge the (entry, sim) runs into
  // ascending entry order — the candidate order the selection contract
  // requires (see Candidates()).
  std::vector<size_t> order = index_->TopBuckets(signature, probes_);
  const size_t probes = std::min(probes_, order.size());
  size_t total = 0;
  for (size_t p = 0; p < probes; ++p) {
    total += index_->buckets()[order[p]].size();
  }
  std::vector<std::pair<size_t, double>> scored;
  scored.reserve(total);
  std::vector<size_t> bounds{0};
  for (size_t p = 0; p < probes; ++p) {
    const size_t bucket = order[p];
    const auto& members = index_->buckets()[bucket];
    const size_t row0 = index_->packed_begin(bucket);
    const auto& packed = index_->packed_signatures();
    for (size_t i = 0; i < members.size(); ++i) {
      scored.emplace_back(
          members[i], ml::CosineSimilarity(packed.Row(row0 + i), signature));
    }
    bounds.push_back(scored.size());
  }
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

  std::vector<size_t> candidates(scored.size());
  std::vector<double> sims(scored.size());
  for (size_t i = 0; i < scored.size(); ++i) {
    candidates[i] = scored[i].first;
    sims[i] = scored[i].second;
  }
  SAGED_COUNTER_INC("kb.index_queries");
  SAGED_COUNTER_ADD("kb.index_candidates", candidates.size());
  return core::SelectRelevant(*kb_, signature, std::move(candidates),
                              std::move(sims), threshold_, max_models_);
}

void AttachIndex(core::KnowledgeBase* kb, const SignatureIndex* index) {
  kb->SetMatcherFactory(
      [index](const core::SagedConfig& config, const core::KnowledgeBase* kb)
          -> Result<std::unique_ptr<core::Matcher>> {
        if (kb->size() != index->n_entries()) {
          return Status::InvalidArgument(
              "signature index covers a different knowledge base (entry "
              "counts differ); rebuild it with `saged kb build-index`");
        }
        size_t probes = config.index_probes != 0
                            ? config.index_probes
                            : SignatureIndex::AutoProbes(index->n_buckets());
        return std::unique_ptr<core::Matcher>(
            std::make_unique<IndexedMatcher>(kb, index,
                                             config.cosine_threshold,
                                             config.max_models_per_column,
                                             probes));
      });
}

}  // namespace saged::kb
