// kdash::obs — lock-cheap runtime metrics for the serving tier.
//
// The paper's whole argument is a latency budget: K-dash wins because the
// precompute moves work off the query path. The serving tier (scheduler,
// sharded fan-out, fault domains) therefore needs *runtime* visibility —
// offline benches cannot see a production queue backing up. This module is
// the substrate: typed metrics registered by name in a process-global
// registry, cheap enough to leave on in the hot path, deterministic enough
// to diff two snapshots byte-for-byte.
//
// Cost model (the contract that keeps instrumentation out of perf reviews):
//   - Counter::Add   one relaxed fetch_add on a thread-striped cache line.
//   - Gauge::Set     one relaxed store.
//   - Histogram::Record
//                    one relaxed fetch_add on the value's bucket, one on a
//                    striped sum line, and a CAS only while raising the max.
//   - Metric lookup (GetCounter/...) takes a mutex — callers on a hot path
//     resolve their handles once, at construction, and keep the reference
//     (registered metrics are never removed, so handles never dangle).
//
// Determinism (what makes snapshots diffable and mergeable):
//   - All state is integral. Counter values and histogram sums are exact
//     uint64 arithmetic, which commutes — the same multiset of samples
//     produces a byte-identical snapshot no matter how many threads
//     recorded them (a float sum could not promise that).
//   - Histogram buckets are a *fixed* layout (below), not adaptive: two
//     snapshots — from different processes, different builds, different
//     days — can be merged by adding bucket counts position-wise.
//   - SnapshotToJson() emits metrics sorted by name, integers only.
//
// Metric names follow the fault-site grammar (lowercase dot-separated
// [a-z][a-z0-9_]* segments) and must be listed in kKnownMetrics below;
// tools/kdash_lint.py cross-checks every Get* literal in the tree against
// the registry, exactly as it does for fault sites.
#ifndef KDASH_OBS_METRICS_H_
#define KDASH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"

namespace kdash::obs {

// Canonical registry of every metric name compiled into the library and
// tools. `<N>` marks a parameterized family (one member per shard / fault
// site / ...) — the literal prefix in code is followed by a runtime suffix.
// tools/kdash_lint.py enforces: every GetCounter/GetGauge/GetHistogram
// literal is listed here, and every entry is used somewhere. Keep it
// sorted.
inline constexpr std::string_view kKnownMetrics[] = {
    "cache.evicted",            // result-cache entries displaced at capacity
    "cache.hit",                // scheduler answered from the result cache
    "cache.invalidated",        // entries purged by an epoch change
    "cache.miss",               // lookup fell through to the backend
    "engine.nodes_visited",     // per Engine search: SearchStats count
    "engine.personalized_search_us",  // engine.search_us, >1-source queries
    "engine.proximity_computations",  // per Engine search: exact row-dots
    "engine.search_us",         // one per Engine search; per shard if sharded
    "engine.searcher_created",  // checkout miss: a new searcher was built
    "engine.searcher_reused",   // checkout hit: an idle searcher was popped
    "fault.fired.<N>",          // injected-fault fires, one metric per site
    "index_io.load_errors",     // failed index loads (corrupt/missing/...)
    "index_io.load_us",         // wall time of successful index loads
    "index_io.save_us",         // wall time of successful index saves
    "router.degraded_queries",  // router answers missing >= 1 slot's shards
    "router.failovers",         // slot served by a non-primary replica
    "router.health_probes",     // background pings sent to workers
    "router.marked_down",       // endpoint transitions healthy -> down
    "router.marked_up",         // endpoint transitions down -> healthy
    "router.remote_us",         // per-call wire round-trip latency
    "scheduler.batch_size",     // live (non-expired) requests per batch
    "scheduler.batch_wait_us",  // per-request wait for the in-flight batch
    "scheduler.batches_dispatched",
    "scheduler.coalesced",      // duplicates answered by a batchmate
    "scheduler.deadline_expired",
    "scheduler.degraded",       // served with shards_failed > 0
    "scheduler.queue_depth",    // current pending requests (gauge)
    "scheduler.rejected",       // submitted after shutdown
    "scheduler.served",         // resolved through the backend
    "scheduler.shed",           // refused: queue at max_queue_depth
    "scheduler.submitted",
    "server.request_us",        // server-side end-to-end latency per query
    "server.requests",          // every answered request line (incl. pings)
    "serving.degraded_queries",
    "serving.merge_us",         // per-query cross-shard top-k merge time
    "serving.remote.connect_errors",  // failed worker connect attempts
    "serving.remote.connects",  // TCP connections established to workers
    "serving.remote.io_errors",       // send/recv failures on worker conns
    "serving.remote.requests",  // request lines written to workers
    "serving.shard_failures",
    "serving.shard_latency_us.s<N>",  // shard N search latency
    "serving.shard_retries",
    "serving.shards_skipped",   // fan-outs pruned by the shard score bound
};

// Monotonic counter. Adds land on one of kStripes cache-line-padded atomic
// cells chosen per thread, so concurrent writers on different threads never
// contend on one line; Value() sums the stripes (exact — integer addition
// commutes).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1) {
    stripes_[StripeIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  static constexpr std::size_t kStripes = 8;  // power of two

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  // Threads are assigned stripes round-robin on first use; the assignment
  // is thread-local so the hot path re-derives nothing.
  static std::size_t StripeIndex();

  Stripe stripes_[kStripes];
};

// Last-write-wins instantaneous value (queue depth, pool size). A gauge is
// racy by nature — concurrent Set calls pick an arbitrary winner — so it is
// a single relaxed atomic, not striped.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-layout log-scaled histogram of non-negative integer samples
// (typically microseconds).
//
// Bucket layout — identical in every process, forever, so snapshots merge
// by position-wise addition:
//   - values in [0, 32): one exact bucket per value (the resolution that
//     matters for single-digit-microsecond query latencies);
//   - values >= 32: each power-of-two octave [2^e, 2^(e+1)) is split into
//     8 equal sub-buckets, giving <= 12.5% relative error on any quantile
//     across the full uint64 range. 504 buckets total.
//
// Quantiles are resolved from bucket counts alone and return the *lower
// bound* of the bucket containing the requested rank — a deterministic,
// mergeable answer (the classic streaming-quantile tradeoff: bounded
// relative error, zero coordination).
class Histogram {
 public:
  static constexpr int kLinearLimit = 32;
  static constexpr int kSubBuckets = 8;
  static constexpr int kNumBuckets = kLinearLimit + (64 - 5) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(std::uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_stripes_[StripeIndex()].value.fetch_add(value,
                                                std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev && !max_.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t Count() const;
  std::uint64_t Sum() const;
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  // Lower bound of the bucket holding the rank-⌈q·count⌉ sample (0 when
  // empty). q in [0, 1].
  std::uint64_t Quantile(double q) const;

  static int BucketIndex(std::uint64_t value) {
    if (value < kLinearLimit) return static_cast<int>(value);
    const int e = 63 - std::countl_zero(value);
    const int sub = static_cast<int>((value >> (e - 3)) & 7);
    return kLinearLimit + (e - 5) * kSubBuckets + sub;
  }

  static std::uint64_t BucketLowerBound(int index) {
    if (index < kLinearLimit) return static_cast<std::uint64_t>(index);
    const int e = 5 + (index - kLinearLimit) / kSubBuckets;
    const int sub = (index - kLinearLimit) % kSubBuckets;
    return (std::uint64_t{1} << e) +
           (static_cast<std::uint64_t>(sub) << (e - 3));
  }

  // Appends this histogram's JSON object fields (count/sum/max/quantiles/
  // non-empty buckets) to `out`. All integers; buckets in index order.
  void AppendJsonFields(std::string* out) const;

 private:
  using BucketCounts = std::array<std::uint64_t, kNumBuckets>;

  static std::size_t StripeIndex();

  // One relaxed pass over the buckets; `*total` is their sum.
  BucketCounts LoadCounts(std::uint64_t* total) const;

  // The quantile rule over one bucket-count snapshot: lower bound of the
  // bucket holding the 1-based rank-⌈q·total⌉ sample, 0 when total is 0.
  static std::uint64_t QuantileOf(const BucketCounts& counts,
                                  std::uint64_t total, double q);

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::size_t kSumStripes = 8;

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  Stripe sum_stripes_[kSumStripes];
  std::atomic<std::uint64_t> max_{0};
};

// Name → metric map. Get* registers on first use and returns a reference
// that stays valid for the registry's lifetime (metrics are never removed).
// Asking for a name under a different type than it was registered with is a
// programming error and KDASH_CHECK-fails.
//
// Most code uses the process-global instance via Global(); tests construct
// local registries for isolation.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-global registry every subsystem reports into. Never
  // destroyed (serving threads may outlive static destruction).
  static MetricRegistry& Global();

  Counter& GetCounter(std::string_view name) KDASH_EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name) KDASH_EXCLUDES(mutex_);
  Histogram& GetHistogram(std::string_view name) KDASH_EXCLUDES(mutex_);

  // `[{"name":...,"type":...,...}, ...]`, sorted by name, integers only.
  // Concurrent writers may land between two metrics' reads; each
  // individual metric's fields are read from one coherent bucket pass.
  std::string MetricsArrayJson() const KDASH_EXCLUDES(mutex_);

  // `{"metrics":[...]}` — the stable envelope the server, CLI, and bench
  // records all emit.
  std::string SnapshotToJson() const;

 private:
  // Exactly one of the three pointers is set; which one encodes the type.
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_ KDASH_GUARDED_BY(mutex_);
};

}  // namespace kdash::obs

#endif  // KDASH_OBS_METRICS_H_
