#include "kb/shard_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
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
  std::vector<size_t> shards;

  LeaseState(ShardStore* s, std::vector<size_t> pinned)
      : store(s), shards(std::move(pinned)) {}
  ~LeaseState() { store->ReleaseShards(shards); }
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
    return Status::IoError("unsupported sharded-store version");
  }

  std::unique_ptr<ShardStore> store(new ShardStore());
  store->base_dir_ = dir;
  SAGED_RETURN_NOT_OK(store->char_space_.Load(&reader));

  SAGED_ASSIGN_OR_RETURN(uint64_t n_hashes, reader.ReadU64());
  if (n_hashes > BinaryReader::kMaxLength) {
    return Status::IoError("corrupt extraction hash count");
  }
  for (uint64_t i = 0; i < n_hashes; ++i) {
    SAGED_ASSIGN_OR_RETURN(uint64_t hash, reader.ReadU64());
    store->extraction_hashes_.push_back(hash);
  }

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
  for (uint64_t s = 0; s < n_shards; ++s) {
    if (store->shard_members_[s].size() != store->shards_[s].n_models) {
      return Status::IoError("shard table model counts disagree with entries");
    }
  }

  store->cache_ = ShardLruCache(n_shards, options.cache_shards);
  // saged-lint: allow(lock-discipline): Open constructs the store before any other thread can see it; mu_ has no possible contender yet
  store->loading_.assign(n_shards, false);
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
  for (uint64_t hash : extraction_hashes_) kb.RecordExtraction(hash);
  kb.SetModelProvider(
      [this](core::KnowledgeBase* target, const std::vector<size_t>& indices) {
        return Acquire(target, indices);
      });
  kb.set_signature_index(index_);
  return kb;
}

Result<core::ModelLease> ShardStore::AcquireAll(core::KnowledgeBase* kb) {
  std::vector<size_t> all(entries_.size());
  std::iota(all.begin(), all.end(), 0);
  return Acquire(kb, all);
}

Result<core::ModelLease> ShardStore::Acquire(
    core::KnowledgeBase* kb, const std::vector<size_t>& indices) {
  if (kb == nullptr || kb->size() != entries_.size()) {
    return Status::InvalidArgument(
        "knowledge base does not belong to this store");
  }
  std::vector<size_t> shards;
  shards.reserve(indices.size());
  for (size_t idx : indices) {
    if (idx >= entries_.size()) {
      return Status::InvalidArgument("model index past the knowledge base");
    }
    shards.push_back(entries_[idx].shard);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  if (shards.empty()) return core::ModelLease();

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
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (cache_.PinCount(s) != 0) {
        return Status::InvalidArgument(
            "cannot serve a new knowledge base while a lease on the "
            "previous one is still alive");
      }
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (cache_.IsResident(s)) cache_.MarkEvicted(s);
    }
    hydrated_kb_ = kb;
  }

  for (size_t s : shards) {
    if (cache_.IsResident(s)) SAGED_COUNTER_INC("kb.cache_hits");
  }

  Status status = Status::OK();
  for (;;) {
    std::vector<size_t> to_load;
    bool peer_loading = false;
    for (size_t s : shards) {
      if (cache_.IsResident(s)) continue;
      if (loading_[s]) {
        peer_loading = true;
      } else {
        to_load.push_back(s);
      }
    }
    if (to_load.empty() && !peer_loading) break;
    if (to_load.empty()) {
      // A concurrent Acquire is parsing a shard we need; it will notify.
      cv_.wait(lock);
      continue;
    }

    for (size_t s : to_load) loading_[s] = true;
    // Parse outside the lock: loads are the slow path, and the shared
    // Executor's help-while-waiting must never run store code under mu_.
    lock.unlock();
    std::vector<Status> load_status(to_load.size());
    std::vector<std::vector<LoadedModel>> loaded(to_load.size());
    Executor::Shared().ParallelFor(to_load.size(), [&](size_t i) {
      load_status[i] = LoadShardFile(to_load[i], &loaded[i]);
    });
    lock.lock();
    for (size_t i = 0; i < to_load.size(); ++i) {
      size_t s = to_load[i];
      loading_[s] = false;
      if (!load_status[i].ok()) {
        if (status.ok()) status = load_status[i];
        continue;
      }
      for (LoadedModel& m : loaded[i]) {
        hydrated_kb_->mutable_entry(m.entry_index)->model = std::move(m.model);
      }
      cache_.MarkResident(s);
    }
    cv_.notify_all();
    if (!status.ok()) return status;
  }

  for (size_t s : shards) {
    cache_.Pin(s);
    cache_.Touch(s);
  }
  EvictToCapacity();
  SAGED_GAUGE_SET("kb.resident_shards", cache_.ResidentCount());
  return core::ModelLease(std::make_shared<LeaseState>(this, std::move(shards)));
}

void ShardStore::ReleaseShards(const std::vector<size_t>& shards) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t s : shards) cache_.Unpin(s);
  EvictToCapacity();
  SAGED_GAUGE_SET("kb.resident_shards", cache_.ResidentCount());
}

void ShardStore::EvictToCapacity() {
  for (size_t s : cache_.EvictionVictims()) {
    if (hydrated_kb_ != nullptr) {
      for (size_t e : shard_members_[s]) {
        hydrated_kb_->mutable_entry(e)->model.reset();
      }
    }
    cache_.MarkEvicted(s);
    SAGED_COUNTER_INC("kb.evictions");
  }
}

Status ShardStore::LoadShardFile(size_t shard,
                                 std::vector<LoadedModel>* out) const {
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
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    LoadedModel m;
    SAGED_ASSIGN_OR_RETURN(uint64_t entry_index, reader.ReadU64());
    // The writer emits a shard's members in ascending entry order; any other
    // index (foreign, out of range, or repeated) would leave a member's
    // model unhydrated.
    if (entry_index != members[i]) {
      return Status::IoError("shard '" + path + "' record " +
                             std::to_string(i) + " does not hold entry " +
                             std::to_string(members[i]));
    }
    m.entry_index = entry_index;
    SAGED_ASSIGN_OR_RETURN(m.model, ReadBaseModel(&reader));
    out->push_back(std::move(m));
  }
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
  stats.resident_shards = cache_.ResidentCount();
  stats.cache_capacity = cache_.capacity();
  return stats;
}

}  // namespace saged::kb
