// kdash::serving::ResultCache — cross-batch answers for repeated queries.
//
// Scheduler coalescing dedups identical queries *within* one batch; a
// head-heavy stream (hot users/items in a degree-weighted workload) repeats
// its head *across* batches too, recomputing the same answer in every
// batch. This cache closes that gap: a bounded map from query identity
// to its complete SearchResult, consulted by BatchScheduler::RunBatch
// before the backend is invoked.
//
// Semantics:
//   - Keying. Entries are keyed on the same total order CompareQueries
//     gives the coalescing sort — k, pruning, sources, exclusions;
//     `trace` is excluded — so a cache hit returns exactly what coalescing
//     with the original request would have.
//   - Eviction ("degree-weighted LRU"). At capacity the entry with the
//     fewest hits goes first, ties broken least-recently-used. Under a
//     degree-weighted stream an entry's hit count tracks its node's degree,
//     so the high-degree head the workload hammers is what survives.
//   - Invalidation. The cache carries an epoch; Invalidate() bumps it and
//     purges every entry. Admit() rejects any result whose backend
//     invocation started under an older epoch, so a result computed while
//     the graph mutated can never be served afterwards.
//   - Degraded results (shards_failed > 0) are never admitted: a complete
//     answer computed later must not be shadowed by a cached partial one.
//
// Thread-safe; one mutex. The scheduler thread is the only caller in
// serving, so contention is not a concern.
#ifndef KDASH_SERVING_RESULT_CACHE_H_
#define KDASH_SERVING_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>

#include "common/mutex.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace kdash::serving {

// Total order over queries so identical requests sort adjacent. Two queries
// compare equal only when every field that affects the answer matches
// (`trace` deliberately excluded), so coalesced or cache-served requests
// are guaranteed the same result. Shared by the batch scheduler's
// coalescing sort and this cache's key order.
int CompareQueries(const Query& a, const Query& b);

class ResultCache {
 public:
  // `capacity` must be >= 1 (a zero-capacity cache is expressed by not
  // constructing one — see BatchSchedulerOptions::cache_entries).
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // On hit copies the cached result into `out`, bumps the entry's hit
  // count, and returns true. Counts cache.hit / cache.miss.
  bool Lookup(const Query& query, SearchResult* out) KDASH_EXCLUDES(mutex_);

  // The current epoch. Capture it BEFORE invoking the backend and pass it
  // to Admit: an Invalidate between the two then rejects the admission.
  std::uint64_t epoch() const KDASH_EXCLUDES(mutex_);

  // Stores `result` under `query`'s identity unless (a) the result is
  // degraded, (b) the epoch moved since `epoch_at_invoke`, or (c) the key
  // is already present (the existing entry keeps its hit history). Evicts
  // at capacity (cache.evicted).
  void Admit(const Query& query, std::uint64_t epoch_at_invoke,
             const SearchResult& result) KDASH_EXCLUDES(mutex_);

  // Bumps the epoch and purges every entry (cache.invalidated counts the
  // purged entries). Call on any backend graph mutation.
  void Invalidate() KDASH_EXCLUDES(mutex_);

  std::size_t size() const KDASH_EXCLUDES(mutex_);

 private:
  struct QueryLess {
    bool operator()(const Query& a, const Query& b) const {
      return CompareQueries(a, b) < 0;
    }
  };
  struct Entry {
    SearchResult result;
    std::uint64_t hits = 0;
    std::uint64_t last_use = 0;
  };

  const std::size_t capacity_;

  // Registry handles resolved once (metric lookup locks; Lookup must not).
  obs::Counter* m_hit_;
  obs::Counter* m_miss_;
  obs::Counter* m_evicted_;
  obs::Counter* m_invalidated_;

  mutable Mutex mutex_;
  std::map<Query, Entry, QueryLess> entries_ KDASH_GUARDED_BY(mutex_);
  std::uint64_t epoch_ KDASH_GUARDED_BY(mutex_) = 0;
  std::uint64_t tick_ KDASH_GUARDED_BY(mutex_) = 0;  // LRU clock
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_RESULT_CACHE_H_
