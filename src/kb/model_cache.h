#ifndef SAGED_KB_MODEL_CACHE_H_
#define SAGED_KB_MODEL_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace saged::kb {

/// Residency book-keeping for the sharded store's model cache: which base
/// models (knowledge-base entries) are hydrated, which are pinned by
/// outstanding leases, and which to evict when over capacity. Pure logic —
/// no I/O, no locking — so the LRU policy is unit-testable; ShardStore owns
/// the mutex and calls this under it.
///
/// Policy: least-recently-used resident model first, but never a pinned
/// model (an active detection run may be probing it). Capacity counts
/// models; 0 means unbounded (nothing is ever a victim).
class ShardLruCache {
 public:
  ShardLruCache(size_t n_models, size_t capacity)
      : capacity_(capacity), models_(n_models) {}

  size_t n_models() const { return models_.size(); }
  size_t capacity() const { return capacity_; }

  bool IsResident(size_t model) const { return models_[model].resident; }
  size_t PinCount(size_t model) const { return models_[model].pins; }
  /// Number of resident models (pinned or not).
  size_t ResidentCount() const { return resident_; }

  /// Marks a model hydrated and counts a use.
  void MarkResident(size_t model);
  /// Marks a model dropped (after the caller frees it); a no-op when it is
  /// not resident.
  void MarkEvicted(size_t model);

  void Pin(size_t model) { ++models_[model].pins; }
  void Unpin(size_t model);
  /// Counts a use without changing residency or pins (cache hit).
  void Touch(size_t model);

  /// Resident, unpinned models to drop — LRU first — so that the resident
  /// count falls back to capacity. Empty when unbounded, under capacity,
  /// or everything over capacity is pinned (eviction then waits for the
  /// next lease release).
  std::vector<size_t> EvictionVictims() const;

 private:
  struct ModelState {
    bool resident = false;
    size_t pins = 0;
    uint64_t last_use = 0;
  };

  size_t capacity_;
  size_t resident_ = 0;
  uint64_t clock_ = 0;
  std::vector<ModelState> models_;
};

}  // namespace saged::kb

#endif  // SAGED_KB_MODEL_CACHE_H_
