#ifndef SAGED_CORE_KNOWLEDGE_BASE_H_
#define SAGED_CORE_KNOWLEDGE_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "features/char_space.h"
#include "ml/classifier.h"
#include "ml/matrix.h"

namespace saged::core {

class KnowledgeBase;
class SignatureIndex;

/// One pre-trained base model B_kj and the signature of the historical
/// column it was trained on. In a lazily-backed knowledge base (see
/// src/kb/shard_store.h) `model` may be nullptr until the owning store
/// hydrates the entry; the metadata fields are always resident.
struct BaseModelEntry {
  std::string dataset;
  std::string column;
  std::vector<double> signature;
  std::unique_ptr<ml::BinaryClassifier> model;
};

/// RAII pin on a set of lazily-loaded base models: while any lease covering
/// an entry is alive, the backing store keeps that entry's model resident
/// (and never evicts it). Releasing the last lease makes the models
/// evictable again. For fully-resident knowledge bases the lease is null
/// and means nothing.
using ModelLease = std::shared_ptr<void>;

/// Hook a backing store installs to hydrate models on demand. Receives the
/// knowledge base being hydrated (passed fresh on every call, so moving the
/// KnowledgeBase never strands the store with a stale pointer) and the
/// entry indices about to be used.
using ModelProvider =
    std::function<Result<ModelLease>(KnowledgeBase*, const std::vector<size_t>&)>;

/// Outcome of the knowledge extraction phase: the base-model zoo plus the
/// shared character space that fixes the zero-padded feature width for every
/// later featurization.
class KnowledgeBase {
 public:
  explicit KnowledgeBase(size_t char_slots = 64) : char_space_(char_slots) {}

  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;

  const features::CharSpace& char_space() const { return char_space_; }
  features::CharSpace* mutable_char_space() { return &char_space_; }

  void AddEntry(BaseModelEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<BaseModelEntry>& entries() const { return entries_; }
  /// Mutable access for backing stores that hydrate / evict entry models.
  BaseModelEntry* mutable_entry(size_t i) { return &entries_[i]; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Number of distinct historical datasets contributing entries.
  size_t NumDatasets() const;

  /// Stacked signatures (entries x kSignatureWidth), matcher input.
  ml::Matrix SignatureMatrix() const;

  /// Ensures the models behind `indices` are resident and pins them for the
  /// lifetime of the returned lease. On a plain in-memory knowledge base
  /// (no provider installed) this is a no-op returning a null lease —
  /// models are always resident. Callers must hold the lease across every
  /// read of the covered entries' `model` pointers, and a lease must not
  /// outlive this knowledge base.
  ///
  /// Thread-safe against concurrent AcquireModels calls (the provider
  /// serializes hydration/eviction internally), which is how concurrent
  /// detection requests share one lazily-backed knowledge base.
  [[nodiscard]] Result<ModelLease> AcquireModels(
      const std::vector<size_t>& indices);

  /// Installs the lazy-model hook (see src/kb/shard_store.h). The provider
  /// must outlive this knowledge base.
  void SetModelProvider(ModelProvider provider) {
    model_provider_ = std::move(provider);
  }
  bool has_model_provider() const { return model_provider_ != nullptr; }

  /// The normalized signature index MakeMatcher probes when
  /// config.similarity == kIndexed (set by kb::ShardStore); null when the
  /// knowledge base has none.
  void set_signature_index(std::shared_ptr<const SignatureIndex> index) {
    signature_index_ = std::move(index);
  }
  const std::shared_ptr<const SignatureIndex>& signature_index() const {
    return signature_index_;
  }

 private:
  features::CharSpace char_space_;
  std::vector<BaseModelEntry> entries_;
  ModelProvider model_provider_;
  std::shared_ptr<const SignatureIndex> signature_index_;
};

}  // namespace saged::core

#endif  // SAGED_CORE_KNOWLEDGE_BASE_H_
