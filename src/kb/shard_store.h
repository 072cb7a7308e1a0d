#ifndef SAGED_KB_SHARD_STORE_H_
#define SAGED_KB_SHARD_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/knowledge_base.h"
#include "core/signature_index.h"
#include "features/char_space.h"
#include "kb/model_cache.h"
#include "ml/classifier.h"

namespace saged {
class Executor;
}  // namespace saged

namespace saged::kb {

/// Store-wide facts surfaced by `saged kb stats` and the serve daemon.
struct StoreStats {
  size_t n_entries = 0;
  size_t n_shards = 0;
  size_t n_buckets = 0;        // signature-index buckets (0: empty store)
  size_t resident_models = 0;  // currently hydrated
  size_t model_capacity = 0;   // max resident models; 0 = unbounded
  std::vector<uint64_t> shard_sizes;  // models per shard
};

/// Lazily-loaded, capacity-bounded view of a knowledge-base store (format
/// v4: one manifest plus one shard file per signature bucket, see
/// kb/kb_builder.h). Opening reads only the manifest — entry metadata,
/// the signature index, and the shard table — so a thousand-dataset store
/// is servable in milliseconds. Base models hydrate on first use, inline
/// on the calling thread: an acquire reads each shard holding a requested
/// model that is not resident, up to the last such model, and keeps only
/// the models it asked for.
///
/// Residency is LRU per model (ShardLruCache). Leases returned by
/// KnowledgeBase::AcquireModels pin their models; eviction only ever drops
/// unpinned models, at acquire time and at lease release. Counters:
/// `kb.shard_loads` (shard files read), `kb.model_loads` (models hydrated),
/// `kb.cache_hits` (shard visits whose requested models were all
/// resident), `kb.evictions` (models dropped); each file read runs under a
/// `kb/load_shard` trace span.
///
/// The store hydrates one knowledge base at a time — the most recent
/// MakeKnowledgeBase() product (or whatever KnowledgeBase* the first
/// AcquireModels passes). Pointing it at a different knowledge base resets
/// residency and requires every outstanding lease to have been released.
/// The store must outlive its knowledge bases and their leases.
class ShardStore {
 public:
  struct OpenOptions {
    /// Residency bound in shards (SagedConfig::kb_cache_shards); 0 =
    /// unbounded. The cache holds models: the bound is the model count of
    /// the `cache_shards` largest shards.
    size_t cache_shards = 0;
  };

  /// `path`: a store directory or the manifest file inside one. Every
  /// length and count in the manifest is checked against the bytes that
  /// follow it, and every shard record against the manifest's membership,
  /// so a corrupt or hostile store fails with IoError.
  static Result<std::unique_ptr<ShardStore>> Open(const std::string& path,
                                                  const OpenOptions& options);

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// Builds a knowledge base holding every entry's metadata with models
  /// unhydrated, wired back to this store through a ModelProvider for lazy
  /// hydration, and carrying the store's signature index so
  /// `similarity = indexed` works.
  Result<core::KnowledgeBase> MakeKnowledgeBase();

  /// Hydrates and pins every model (serve warm mode, LoadFullKnowledgeBase).
  /// The returned lease defeats the cache bound until released. Shards
  /// decode in parallel on `executor` when one is given.
  [[nodiscard]] Result<core::ModelLease> AcquireAll(
      core::KnowledgeBase* kb, Executor* executor = nullptr);

  size_t n_entries() const { return entries_.size(); }
  size_t n_shards() const { return shards_.size(); }
  /// nullptr only for an empty store.
  const core::SignatureIndex* index() const { return index_.get(); }
  const features::CharSpace& char_space() const { return char_space_; }

  StoreStats GetStats() const;

 private:
  struct EntryMeta {
    std::string dataset;
    std::string column;
    std::vector<double> signature;
    uint32_t shard = 0;
  };
  struct ShardMeta {
    std::string filename;  // relative to base_dir_
    uint64_t n_models = 0;
  };
  /// Lease payload: unpins its models on destruction (defined in the .cc).
  struct LeaseState;

  ShardStore() = default;

  /// ModelProvider entry point: ensures the models behind `indices` are
  /// resident in `kb` and returns a lease pinning them. With an
  /// `executor`, the shard files to read decode in parallel on it.
  Result<core::ModelLease> Acquire(core::KnowledgeBase* kb,
                                   const std::vector<size_t>& indices,
                                   Executor* executor = nullptr);
  /// Lease destructor: unpins and evicts back to capacity.
  void ReleaseModels(const std::vector<size_t>& entries);

  /// Decodes the models of `entries` (members of `shard`, ascending) into
  /// `models`, reading the shard's records in order and stopping after the
  /// last of them. Pure I/O — called without mu_ held so concurrent
  /// detection threads never serialize on file reads (and so an
  /// executor's help-while-waiting can never re-enter the store while it
  /// holds the lock).
  Status LoadModels(size_t shard, const std::vector<size_t>& entries,
                    std::vector<std::unique_ptr<ml::BinaryClassifier>>* models)
      const;

  /// Drops unpinned LRU models until back under capacity.
  void EvictToCapacity() SAGED_REQUIRES(mu_);

  std::string base_dir_;
  features::CharSpace char_space_{64};
  std::vector<EntryMeta> entries_;
  std::vector<ShardMeta> shards_;
  /// Shard id -> entry indices (ascending); immutable after Open.
  std::vector<std::vector<size_t>> shard_members_;
  /// Packed at Open; shared with every knowledge base this store makes.
  std::shared_ptr<const core::SignatureIndex> index_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  ShardLruCache cache_ SAGED_GUARDED_BY(mu_){0, 0};
  /// Models some thread is currently decoding (claimed, not yet resident).
  std::vector<bool> loading_ SAGED_GUARDED_BY(mu_);
  /// The knowledge base current residency refers to.
  core::KnowledgeBase* hydrated_kb_ SAGED_GUARDED_BY(mu_) = nullptr;
};

}  // namespace saged::kb

#endif  // SAGED_KB_SHARD_STORE_H_
