// kdash::serving::BatchScheduler — async request coalescing.
//
// A single synchronous Engine::Search per client request leaves throughput
// on the table: with C clients and T cores, C < T cores sit idle, and every
// request pays its own dispatch. The scheduler turns independent requests
// into micro-batches: Submit() enqueues a query and returns a future
// immediately; one scheduler thread runs a queue -> coalesce -> cache ->
// dispatch loop. Whenever it is idle it takes everything pending (up to
// max_batch_size) and runs it as one SearchBatch through the backend, which
// fans the batch across the process-wide thread pool (KDASH_NUM_THREADS;
// the scheduler itself adds exactly one thread, never a second pool).
// There is no batching timer: a request arriving at an idle scheduler is
// dispatched at once, and requests arriving while a batch runs queue up to
// form the next one, so the batching window is exactly the in-flight
// batch's run time.
//
// Batching also shares work sync execution cannot: identical requests in a
// batch (hot queries of a head-heavy production stream) are coalesced —
// computed once, answered everywhere.
//
// Contracts:
//   - Submit is thread-safe; results are identical to calling the backend
//     synchronously per query (coalescing only merges *identical* queries,
//     whose results are deterministic and equal; the merged query carries
//     the group's latest deadline, so no member runs under a tighter
//     budget than its own).
//   - A request whose deadline passes before its batch is dispatched
//     resolves to kDeadlineExceeded — it never reaches the backend.
//   - Shutdown() (and the destructor) stops accepting new work, drains
//     every already-accepted request (deadlines still honored), then joins
//     the scheduler thread. Submissions after shutdown resolve immediately
//     to kUnavailable.
//   - One backend call per batch, no retries: a batch's distinct cache
//     misses go to the backend once, and the backend answers each query on
//     its own, so one bad request never poisons its batchmates. Retrying
//     transient member failures is the fan-out's job (ShardFailurePolicy
//     in serving/fan_out.h), where the member, the policy and the deadline
//     are known.
//   - Admission control: at most max_queue_depth requests may be pending;
//     past that, Submit resolves immediately to kResourceExhausted (shed)
//     instead of queueing unboundedly — under overload latency stays
//     bounded and the client gets a machine-readable "back off" signal.
//   - Accounting lives in the metric registry (obs/metrics.h), counted
//     before the request's future resolves: every Submit lands in exactly
//     one of scheduler.{rejected, shed, submitted}, and every submitted
//     request in exactly one of scheduler.{served, deadline_expired}.
//     scheduler.coalesced counts duplicates answered by a batchmate and
//     scheduler.degraded the served results with shards_failed > 0.
#ifndef KDASH_SERVING_BATCH_SCHEDULER_H_
#define KDASH_SERVING_BATCH_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "serving/result_cache.h"

namespace kdash::serving {

struct BatchSchedulerOptions {
  // At most this many requests per dispatched batch.
  std::size_t max_batch_size = 64;

  // Admission control: shed (kResourceExhausted) any Submit that would
  // leave more than this many requests queued. 0 = unbounded (the
  // pre-admission-control behavior).
  std::size_t max_queue_depth = 4096;

  // Cross-batch result cache (serving/result_cache.h): keep the complete
  // results of up to this many distinct queries and answer repeats without
  // touching the backend. 0 (the default) disables caching — results and
  // counters are then exactly the pre-cache scheduler's.
  std::size_t cache_entries = 0;

  // Invalidation hook for updatable backends: polled once per batch; when
  // the returned value differs from the last poll the cache is purged
  // before any lookup. Wire it to Engine::update_epoch so a query submitted
  // after AddEdge/RemoveEdge returns can never see a pre-mutation entry
  // (the mutation happens-before Submit, Submit happens-before the batch's
  // poll, and the poll invalidates before the batch's lookups). Leave unset
  // for immutable backends.
  std::function<std::uint64_t()> backend_epoch;
};

class BatchScheduler {
 public:
  // The execution backend: Engine::SearchBatch, ShardedEngine::SearchBatch,
  // or any compatible callable (tests inject slow/failing backends). It
  // returns one result per query, results[i] answering queries[i].
  using Backend =
      std::function<std::vector<Result<SearchResult>>(std::span<const Query>)>;

  explicit BatchScheduler(Backend backend,
                          const BatchSchedulerOptions& options = {});
  ~BatchScheduler();  // Shutdown()

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // Enqueue one query; the future resolves when its batch completes. The
  // optional timeout is measured from submission: a request still queued
  // when it expires resolves to kDeadlineExceeded. timeout <= 0 (the
  // default) means no deadline, and so does one that would run past what
  // steady_clock can hold.
  [[nodiscard]] std::future<Result<SearchResult>> Submit(
      Query query,
      std::chrono::steady_clock::duration timeout =
          std::chrono::steady_clock::duration::zero());

  // Stop accepting, drain every accepted request, join the thread.
  // Idempotent and safe to call concurrently with Submit.
  void Shutdown();

 private:
  struct Request {
    Query query;
    std::chrono::steady_clock::time_point arrival;
    std::chrono::steady_clock::time_point deadline;  // time_point::max() = none
    std::promise<Result<SearchResult>> promise;
    // Trace-epoch offset captured at Submit, so the queue-wait span can be
    // stamped at dispatch time (only meaningful when query.trace is set).
    std::uint64_t trace_submit_us = 0;
  };

  // Process-global registry handles, resolved once at construction (metric
  // lookup locks; Submit and the scheduler loop must not). Counters add up
  // across every scheduler in the process (see the contract above).
  struct Metrics {
    obs::Counter* submitted;
    obs::Counter* batches_dispatched;
    obs::Counter* served;
    obs::Counter* coalesced;
    obs::Counter* deadline_expired;
    obs::Counter* rejected;
    obs::Counter* shed;
    obs::Counter* degraded;
    obs::Gauge* queue_depth;
    obs::Histogram* batch_size;
    obs::Histogram* batch_wait_us;
  };
  static Metrics ResolveMetrics();

  void SchedulerLoop() KDASH_EXCLUDES(mutex_);
  // Resolves a popped batch: expired requests get kDeadlineExceeded, cache
  // hits their cached result, and the misses one backend call. Runs with
  // mutex_ released — the backend call is the long pole and must not block
  // Submit.
  void RunBatch(std::vector<Request> batch) KDASH_EXCLUDES(mutex_);

  Backend backend_;
  BatchSchedulerOptions options_;
  Metrics metrics_;

  // Cross-batch result cache; null when cache_entries == 0. The cache has
  // its own mutex; last_backend_epoch_ is touched only by the scheduler
  // thread (RunBatch).
  std::unique_ptr<ResultCache> cache_;
  std::uint64_t last_backend_epoch_ = 0;

  Mutex mutex_;
  Mutex join_mutex_;  // serializes concurrent Shutdown joins
  CondVar wake_scheduler_;
  std::deque<Request> queue_ KDASH_GUARDED_BY(mutex_);
  bool shutdown_ KDASH_GUARDED_BY(mutex_) = false;

  std::thread scheduler_;  // started last, so it sees a fully-built object
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_BATCH_SCHEDULER_H_
