#include "kb/model_cache.h"

#include <algorithm>

#include "common/contracts.h"

namespace saged::kb {

void ShardLruCache::MarkResident(size_t model) {
  SAGED_DCHECK_LT(model, models_.size());
  if (!models_[model].resident) ++resident_;
  models_[model].resident = true;
  models_[model].last_use = ++clock_;
}

void ShardLruCache::MarkEvicted(size_t model) {
  SAGED_DCHECK_LT(model, models_.size());
  SAGED_DCHECK_EQ(models_[model].pins, 0u);
  if (models_[model].resident) --resident_;
  models_[model].resident = false;
}

void ShardLruCache::Unpin(size_t model) {
  SAGED_DCHECK_GT(models_[model].pins, 0u);
  --models_[model].pins;
}

void ShardLruCache::Touch(size_t model) {
  SAGED_DCHECK_LT(model, models_.size());
  models_[model].last_use = ++clock_;
}

std::vector<size_t> ShardLruCache::EvictionVictims() const {
  if (capacity_ == 0 || resident_ <= capacity_) return {};

  std::vector<size_t> evictable;
  for (size_t i = 0; i < models_.size(); ++i) {
    if (models_[i].resident && models_[i].pins == 0) evictable.push_back(i);
  }
  std::sort(evictable.begin(), evictable.end(), [this](size_t a, size_t b) {
    if (models_[a].last_use != models_[b].last_use) {
      return models_[a].last_use < models_[b].last_use;
    }
    return a < b;
  });
  size_t excess = resident_ - capacity_;
  if (evictable.size() > excess) evictable.resize(excess);
  return evictable;
}

}  // namespace saged::kb
