#include "kb/shard_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <utility>

#include "common/binary_io.h"
#include "common/executor.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "features/signature.h"
#include "kb/kb_builder.h"

namespace saged::kb {

struct ShardStore::LeaseState {
  ShardStore* store;
  std::vector<size_t> entries;

  LeaseState(ShardStore* s, std::vector<size_t> pinned)
      : store(s), entries(std::move(pinned)) {}
  ~LeaseState() { store->ReleaseModels(entries); }
};

Result<std::unique_ptr<ShardStore>> ShardStore::Open(
    const std::string& path, const OpenOptions& options) {
  std::error_code ec;
  const bool is_dir = std::filesystem::is_directory(path, ec);
  std::string dir =
      is_dir ? path : std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const std::string manifest_path =
      is_dir ? path + "/" + kManifestFilename : path;
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + manifest_path + "'");
  BinaryReader reader(&in);
  Result<uint32_t> magic = reader.ReadU32();
  if (!magic.ok() || *magic != kManifestMagic) {
    return Status::IoError(
        "'" + manifest_path +
        "' is not a knowledge-base store manifest (monolithic knowledge-base "
        "files are no longer read; re-run `saged extract` to write a store)");
  }
  SAGED_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kStoreVersion) {
    return Status::IoError(
        "'" + manifest_path + "' is a version " + std::to_string(version) +
        " store; this build reads version " + std::to_string(kStoreVersion) +
        " (re-run `saged extract` to rewrite it)");
  }

  std::unique_ptr<ShardStore> store(new ShardStore());
  store->base_dir_ = dir;
  SAGED_RETURN_NOT_OK(store->char_space_.Load(&reader));

  SAGED_ASSIGN_OR_RETURN(uint64_t n_entries, reader.ReadU64());
  if (n_entries > BinaryReader::kMaxLength) {
    return Status::IoError("corrupt entry count");
  }
  for (uint64_t i = 0; i < n_entries; ++i) {
    EntryMeta meta;
    SAGED_ASSIGN_OR_RETURN(meta.dataset, reader.ReadString());
    SAGED_ASSIGN_OR_RETURN(meta.column, reader.ReadString());
    SAGED_ASSIGN_OR_RETURN(meta.signature, reader.ReadF64Vector());
    if (meta.signature.size() != features::kSignatureWidth) {
      return Status::IoError("entry " + std::to_string(i) +
                             " has a signature of width " +
                             std::to_string(meta.signature.size()) +
                             ", not " +
                             std::to_string(features::kSignatureWidth));
    }
    SAGED_ASSIGN_OR_RETURN(meta.shard, reader.ReadU32());
    store->entries_.push_back(std::move(meta));
  }

  if (n_entries > 0) {
    ml::Matrix signatures;
    for (const EntryMeta& meta : store->entries_) {
      signatures.AppendRow(meta.signature);
    }
    SAGED_ASSIGN_OR_RETURN(core::SignatureIndex index,
                           core::SignatureIndex::Load(&reader, signatures));
    store->index_ =
        std::make_shared<const core::SignatureIndex>(std::move(index));
  }

  SAGED_ASSIGN_OR_RETURN(uint64_t n_shards, reader.ReadU64());
  if (n_shards > BinaryReader::kMaxLength) {
    return Status::IoError("corrupt shard count");
  }
  for (uint64_t s = 0; s < n_shards; ++s) {
    ShardMeta meta;
    SAGED_ASSIGN_OR_RETURN(meta.filename, reader.ReadString());
    SAGED_ASSIGN_OR_RETURN(meta.n_models, reader.ReadU64());
    store->shards_.push_back(std::move(meta));
  }

  store->shard_members_.assign(n_shards, {});
  for (size_t e = 0; e < store->entries_.size(); ++e) {
    uint32_t s = store->entries_[e].shard;
    if (s >= n_shards) {
      return Status::IoError("entry references a shard past the shard table");
    }
    store->shard_members_[s].push_back(e);
  }
  std::vector<uint64_t> sizes;
  for (uint64_t s = 0; s < n_shards; ++s) {
    if (store->shard_members_[s].size() != store->shards_[s].n_models) {
      return Status::IoError("shard table model counts disagree with entries");
    }
    sizes.push_back(store->shards_[s].n_models);
  }

  // The cache holds models; a bound of N shards keeps as many as the N
  // largest shards hold, the most N whole shards could ever have held.
  size_t capacity = 0;
  if (options.cache_shards > 0) {
    const size_t n = std::min<size_t>(options.cache_shards, sizes.size());
    std::partial_sort(sizes.begin(), sizes.begin() + n, sizes.end(),
                      std::greater<>());
    capacity = std::accumulate(sizes.begin(), sizes.begin() + n, size_t{0});
  }
  // saged-lint: allow(lock-discipline): Open constructs the store before any other thread can see it; mu_ has no possible contender yet
  store->cache_ = ShardLruCache(store->entries_.size(), capacity);
  // saged-lint: allow(lock-discipline): as above, the store is not shared yet
  store->loading_.assign(store->entries_.size(), false);
  return store;
}

Result<core::KnowledgeBase> ShardStore::MakeKnowledgeBase() {
  core::KnowledgeBase kb(char_space_.capacity());
  *kb.mutable_char_space() = char_space_;
  for (const EntryMeta& meta : entries_) {
    core::BaseModelEntry entry;
    entry.dataset = meta.dataset;
    entry.column = meta.column;
    entry.signature = meta.signature;
    kb.AddEntry(std::move(entry));
  }
  kb.SetModelProvider(
      [this](core::KnowledgeBase* target, const std::vector<size_t>& indices) {
        return Acquire(target, indices);
      });
  kb.set_signature_index(index_);
  return kb;
}

Result<core::ModelLease> ShardStore::AcquireAll(core::KnowledgeBase* kb,
                                                Executor* executor) {
  std::vector<size_t> all(entries_.size());
  std::iota(all.begin(), all.end(), 0);
  return Acquire(kb, all, executor);
}

Result<core::ModelLease> ShardStore::Acquire(
    core::KnowledgeBase* kb, const std::vector<size_t>& indices,
    Executor* executor) {
  if (kb == nullptr || kb->size() != entries_.size()) {
    return Status::InvalidArgument(
        "knowledge base does not belong to this store");
  }
  for (size_t idx : indices) {
    if (idx >= entries_.size()) {
      return Status::InvalidArgument("model index past the knowledge base");
    }
  }
  // Requested models grouped by shard, ascending within each shard — the
  // order of the shard's records.
  std::vector<size_t> wanted(indices);
  std::sort(wanted.begin(), wanted.end(), [this](size_t a, size_t b) {
    if (entries_[a].shard != entries_[b].shard) {
      return entries_[a].shard < entries_[b].shard;
    }
    return a < b;
  });
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  if (wanted.empty()) return core::ModelLease();

  std::unique_lock<std::mutex> lock(mu_);
  if (hydrated_kb_ != kb) {
    // Re-target: residency refers to entries of one knowledge base at a
    // time. Wait out in-flight loads (their claim pins hydrated_kb_'s
    // identity), then require every lease to be gone before dropping the
    // old object's models from the book-keeping.
    cv_.wait(lock, [this] {
      return std::none_of(loading_.begin(), loading_.end(),
                          [](bool b) { return b; });
    });
    for (size_t e = 0; e < entries_.size(); ++e) {
      if (cache_.PinCount(e) != 0) {
        return Status::InvalidArgument(
            "cannot serve a new knowledge base while a lease on the "
            "previous one is still alive");
      }
    }
    for (size_t e = 0; e < entries_.size(); ++e) cache_.MarkEvicted(e);
    hydrated_kb_ = kb;
  }

  // A shard visit is a hit when every model it is asked for is resident.
  for (size_t i = 0; i < wanted.size();) {
    const uint32_t shard = entries_[wanted[i]].shard;
    bool hit = true;
    for (; i < wanted.size() && entries_[wanted[i]].shard == shard; ++i) {
      hit = hit && cache_.IsResident(wanted[i]);
    }
    if (hit) SAGED_COUNTER_INC("kb.cache_hits");
  }

  // Each model is pinned as soon as it is seen resident, so a concurrent
  // eviction can never take back what this acquire already holds.
  std::vector<bool> pinned(wanted.size(), false);
  for (;;) {
    std::vector<size_t> to_load;  // positions in `wanted`
    bool peer_loading = false;
    for (size_t i = 0; i < wanted.size(); ++i) {
      if (pinned[i]) continue;
      const size_t e = wanted[i];
      if (cache_.IsResident(e)) {
        cache_.Pin(e);
        pinned[i] = true;
      } else if (loading_[e]) {
        peer_loading = true;
      } else {
        to_load.push_back(i);
      }
    }
    if (to_load.empty() && !peer_loading) break;
    if (to_load.empty()) {
      // A concurrent Acquire is decoding a model we need; it will notify.
      cv_.wait(lock);
      continue;
    }

    // Claim the models, then decode them outside the lock: inline on this
    // thread, or one shard file per task on `executor`.
    struct ShardLoad {
      size_t shard = 0;
      std::vector<size_t> entries;
      std::vector<std::unique_ptr<ml::BinaryClassifier>> models;
      Status status = Status::OK();
    };
    std::vector<ShardLoad> loads;
    for (size_t i : to_load) {
      const size_t e = wanted[i];
      loading_[e] = true;
      if (loads.empty() || loads.back().shard != entries_[e].shard) {
        loads.emplace_back();
        loads.back().shard = entries_[e].shard;
      }
      loads.back().entries.push_back(e);
    }
    lock.unlock();
    auto load_one = [&](size_t i) {
      loads[i].status =
          LoadModels(loads[i].shard, loads[i].entries, &loads[i].models);
    };
    if (executor != nullptr && loads.size() > 1) {
      executor->ParallelFor(loads.size(), load_one);
    } else {
      for (size_t i = 0; i < loads.size(); ++i) load_one(i);
    }
    lock.lock();
    Status status = Status::OK();
    for (ShardLoad& load : loads) {
      for (size_t e : load.entries) loading_[e] = false;
      if (!load.status.ok()) {
        if (status.ok()) status = load.status;
        continue;
      }
      for (size_t k = 0; k < load.entries.size(); ++k) {
        const size_t e = load.entries[k];
        hydrated_kb_->mutable_entry(e)->model = std::move(load.models[k]);
        cache_.MarkResident(e);
      }
    }
    cv_.notify_all();
    if (!status.ok()) {
      for (size_t i = 0; i < wanted.size(); ++i) {
        if (pinned[i]) cache_.Unpin(wanted[i]);
      }
      EvictToCapacity();
      return status;
    }
  }

  for (size_t e : wanted) cache_.Touch(e);
  EvictToCapacity();
  SAGED_GAUGE_SET("kb.resident_models", cache_.ResidentCount());
  return core::ModelLease(std::make_shared<LeaseState>(this, std::move(wanted)));
}

void ShardStore::ReleaseModels(const std::vector<size_t>& entries) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t e : entries) cache_.Unpin(e);
  EvictToCapacity();
  SAGED_GAUGE_SET("kb.resident_models", cache_.ResidentCount());
}

void ShardStore::EvictToCapacity() {
  const std::vector<size_t> victims = cache_.EvictionVictims();
  for (size_t e : victims) {
    if (hydrated_kb_ != nullptr) hydrated_kb_->mutable_entry(e)->model.reset();
    cache_.MarkEvicted(e);
  }
  SAGED_COUNTER_ADD("kb.evictions", victims.size());
}

Status ShardStore::LoadModels(
    size_t shard, const std::vector<size_t>& entries,
    std::vector<std::unique_ptr<ml::BinaryClassifier>>* models) const {
  SAGED_TRACE_SPAN_ARG("kb/load_shard", shard);
  SAGED_COUNTER_INC("kb.shard_loads");

  std::string path = base_dir_ + "/" + shards_[shard].filename;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open shard file '" + path + "'");
  BinaryReader reader(&in);
  SAGED_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kShardMagic) {
    return Status::IoError("'" + path + "' is not a SAGED shard file");
  }
  SAGED_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kStoreVersion) {
    return Status::IoError("unsupported shard version in '" + path + "'");
  }
  SAGED_ASSIGN_OR_RETURN(uint32_t shard_id, reader.ReadU32());
  if (shard_id != shard) {
    return Status::IoError("shard file '" + path + "' carries the wrong id");
  }
  SAGED_ASSIGN_OR_RETURN(uint64_t n, reader.ReadU64());
  if (n != shards_[shard].n_models) {
    return Status::IoError("shard '" + path +
                           "' model count disagrees with the manifest");
  }
  const std::vector<size_t>& members = shard_members_[shard];
  models->reserve(entries.size());
  // Records carry no lengths, so reaching a model means decoding every
  // record before it; models not asked for are dropped.
  for (uint64_t i = 0; i < n && models->size() < entries.size(); ++i) {
    SAGED_ASSIGN_OR_RETURN(uint64_t entry_index, reader.ReadU64());
    // The writer emits a shard's members in ascending entry order; any other
    // index (foreign, out of range, or repeated) would leave a member's
    // model unhydrated.
    if (entry_index != members[i]) {
      return Status::IoError("shard '" + path + "' record " +
                             std::to_string(i) + " does not hold entry " +
                             std::to_string(members[i]));
    }
    SAGED_ASSIGN_OR_RETURN(std::unique_ptr<ml::BinaryClassifier> model,
                           ReadBaseModel(&reader));
    if (entry_index == entries[models->size()]) {
      models->push_back(std::move(model));
    }
  }
  SAGED_COUNTER_ADD("kb.model_loads", models->size());
  return Status::OK();
}

StoreStats ShardStore::GetStats() const {
  StoreStats stats;
  stats.n_entries = entries_.size();
  stats.n_shards = shards_.size();
  stats.n_buckets = index_ != nullptr ? index_->n_buckets() : 0;
  stats.shard_sizes.reserve(shards_.size());
  for (const ShardMeta& meta : shards_) stats.shard_sizes.push_back(meta.n_models);
  std::lock_guard<std::mutex> lock(mu_);
  stats.resident_models = cache_.ResidentCount();
  stats.model_capacity = cache_.capacity();
  return stats;
}

}  // namespace saged::kb
