#include "serving/result_cache.h"

#include <utility>

#include "common/check.h"

namespace kdash::serving {

int CompareQueries(const Query& a, const Query& b) {
  if (a.k != b.k) return a.k < b.k ? -1 : 1;
  if (a.use_pruning != b.use_pruning) return a.use_pruning ? -1 : 1;
  if (a.sources != b.sources) return a.sources < b.sources ? -1 : 1;
  if (a.exclude != b.exclude) return a.exclude < b.exclude ? -1 : 1;
  return 0;
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity),
      m_hit_(&obs::MetricRegistry::Global().GetCounter("cache.hit")),
      m_miss_(&obs::MetricRegistry::Global().GetCounter("cache.miss")),
      m_evicted_(&obs::MetricRegistry::Global().GetCounter("cache.evicted")),
      m_invalidated_(
          &obs::MetricRegistry::Global().GetCounter("cache.invalidated")) {
  KDASH_CHECK(capacity >= 1);
}

bool ResultCache::Lookup(const Query& query, SearchResult* out) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(query);
  if (it == entries_.end()) {
    m_miss_->Add();
    return false;
  }
  ++it->second.hits;
  it->second.last_use = ++tick_;
  *out = it->second.result;
  m_hit_->Add();
  return true;
}

std::uint64_t ResultCache::epoch() const {
  MutexLock lock(mutex_);
  return epoch_;
}

void ResultCache::Admit(const Query& query, std::uint64_t epoch_at_invoke,
                        const SearchResult& result) {
  // A degraded result is the exact top-k over a shard *subset*; caching it
  // would keep serving the hole after the failed shards recover.
  if (result.degraded()) return;
  MutexLock lock(mutex_);
  if (epoch_at_invoke != epoch_) return;  // graph mutated mid-invocation
  if (entries_.find(query) != entries_.end()) return;
  if (entries_.size() >= capacity_) {
    // Fewest hits first, LRU on ties. A linear scan: eviction runs at most
    // once per backend miss, which already paid a full search.
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.hits < victim->second.hits ||
          (it->second.hits == victim->second.hits &&
           it->second.last_use < victim->second.last_use)) {
        victim = it;
      }
    }
    entries_.erase(victim);
    m_evicted_->Add();
  }
  Query key = query;
  key.trace = nullptr;  // not part of identity; never pin a caller's context
  Entry entry;
  entry.result = result;
  entry.last_use = ++tick_;
  entries_.emplace(std::move(key), std::move(entry));
}

void ResultCache::Invalidate() {
  MutexLock lock(mutex_);
  ++epoch_;
  if (!entries_.empty()) {
    m_invalidated_->Add(entries_.size());
    entries_.clear();
  }
}

std::size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace kdash::serving
