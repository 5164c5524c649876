#include "serving/batch_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault.h"

namespace kdash::serving {

using Clock = std::chrono::steady_clock;

BatchScheduler::Metrics BatchScheduler::ResolveMetrics() {
  auto& registry = obs::MetricRegistry::Global();
  BatchScheduler::Metrics metrics;
  metrics.submitted = &registry.GetCounter("scheduler.submitted");
  metrics.batches_dispatched =
      &registry.GetCounter("scheduler.batches_dispatched");
  metrics.served = &registry.GetCounter("scheduler.served");
  metrics.coalesced = &registry.GetCounter("scheduler.coalesced");
  metrics.deadline_expired = &registry.GetCounter("scheduler.deadline_expired");
  metrics.rejected = &registry.GetCounter("scheduler.rejected");
  metrics.shed = &registry.GetCounter("scheduler.shed");
  metrics.degraded = &registry.GetCounter("scheduler.degraded");
  metrics.queue_depth = &registry.GetGauge("scheduler.queue_depth");
  metrics.batch_size = &registry.GetHistogram("scheduler.batch_size");
  metrics.batch_wait_us = &registry.GetHistogram("scheduler.batch_wait_us");
  return metrics;
}

BatchScheduler::BatchScheduler(Backend backend,
                               const BatchSchedulerOptions& options)
    : backend_(std::move(backend)),
      options_(options),
      metrics_(ResolveMetrics()) {
  KDASH_CHECK(backend_ != nullptr);
  KDASH_CHECK(options_.max_batch_size >= 1);
  if (options_.cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_entries);
    if (options_.backend_epoch != nullptr) {
      last_backend_epoch_ = options_.backend_epoch();
    }
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

BatchScheduler::~BatchScheduler() { Shutdown(); }

std::future<Result<SearchResult>> BatchScheduler::Submit(
    Query query, std::chrono::steady_clock::duration timeout) {
  Request request;
  request.query = std::move(query);
  request.arrival = Clock::now();
  // Compared before the add, which would overflow past time_point::max().
  const bool bounded = timeout.count() > 0 &&
                       timeout < Clock::time_point::max() - request.arrival;
  request.deadline =
      bounded ? request.arrival + timeout : Clock::time_point::max();
  // The effective deadline is the tighter of the scheduler's timeout and
  // any budget the query arrived with (e.g. a deadline_us= wire field).
  // Stamping it back onto the query propagates the budget into the
  // backend: the sharded fan-out caps its retry backoff by it, and the
  // router forwards the remaining budget to workers. Query identity is
  // unaffected — CompareQueries ignores deadlines, like traces.
  request.deadline = std::min(request.deadline, request.query.deadline);
  request.query.deadline = request.deadline;
  std::future<Result<SearchResult>> future = request.promise.get_future();
  if (request.query.trace != nullptr) {
    request.trace_submit_us = request.query.trace->ElapsedUs();
  }
  bool wake = false;
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      metrics_.rejected->Add();
      request.promise.set_value(Status::Unavailable(
          "batch scheduler is shut down and not accepting requests"));
      return future;
    }
    if (options_.max_queue_depth > 0 &&
        queue_.size() >= options_.max_queue_depth) {
      // Admission control: shedding here keeps queueing delay bounded and
      // tells the client to back off, instead of letting overload show up
      // as unbounded latency (and memory) growth.
      metrics_.shed->Add();
      request.promise.set_value(Status::ResourceExhausted(
          "scheduler queue full (" + std::to_string(queue_.size()) +
          " pending); request shed — retry with backoff"));
      return future;
    }
    metrics_.submitted->Add();
    queue_.push_back(std::move(request));
    metrics_.queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
    // The scheduler sleeps only on an empty queue, so only the submission
    // that makes it non-empty needs to wake it; later ones ride along.
    wake = queue_.size() == 1;
  }
  if (wake) wake_scheduler_.NotifyOne();
  return future;
}

void BatchScheduler::SchedulerLoop() {
  MutexLock lock(mutex_);
  for (;;) {
    while (!shutdown_ && queue_.empty()) wake_scheduler_.Wait(mutex_);
    if (queue_.empty()) return;  // shutdown with nothing left to drain

    // Idle with work pending: dispatch whatever has queued — everything
    // that arrived while the previous batch ran — up to max_batch_size.
    std::vector<Request> batch;
    const std::size_t take = std::min(queue_.size(), options_.max_batch_size);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    metrics_.batches_dispatched->Add();
    metrics_.queue_depth->Set(static_cast<std::int64_t>(queue_.size()));

    lock.Unlock();
    RunBatch(std::move(batch));
    lock.Lock();
  }
}

void BatchScheduler::RunBatch(std::vector<Request> batch) {
  // Invalidate before any lookup: a mutation that returned before a request
  // was submitted happens-before this poll, so that request can never read
  // a pre-mutation entry below.
  if (cache_ != nullptr && options_.backend_epoch != nullptr) {
    const std::uint64_t backend_epoch = options_.backend_epoch();
    if (backend_epoch != last_backend_epoch_) {
      last_backend_epoch_ = backend_epoch;
      cache_->Invalidate();
    }
  }

  // Expire overdue requests without touching the backend. Their promises
  // are fulfilled below, after the counters are bumped — a caller that has
  // seen all its futures resolve must also see them counted.
  const Clock::time_point now = Clock::now();
  std::vector<Request> live;
  live.reserve(batch.size());
  std::vector<Request> overdue;
  for (Request& request : batch) {
    (request.deadline <= now ? overdue : live).push_back(std::move(request));
  }

  // Dispatch-time accounting: the live batch size and each request's queue
  // wait. Traced requests additionally get their "scheduler.queue" span
  // stamped here, before coalescing moves the group head's query away.
  metrics_.batch_size->Record(live.size());
  for (const Request& request : live) {
    const auto wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              request.arrival)
            .count();
    metrics_.batch_wait_us->Record(
        wait_us > 0 ? static_cast<std::uint64_t>(wait_us) : 0);
    if (request.query.trace != nullptr) {
      const std::uint64_t end_us = request.query.trace->ElapsedUs();
      request.query.trace->Record("scheduler.queue", request.trace_submit_us,
                                  end_us > request.trace_submit_us
                                      ? end_us - request.trace_submit_us
                                      : 0);
    }
  }

  std::uint64_t coalesced = 0;
  std::vector<Result<SearchResult>> outcomes;
  outcomes.reserve(live.size());
  if (!live.empty()) {
    // Coalesce identical requests: production query streams are head-heavy
    // (hot users/items repeat), and a batch computes each distinct query
    // once, fanning the answer out to every duplicate — work a per-query
    // synchronous path cannot share. Sort request indices so equal queries
    // sit adjacent; `unique_of[i]` maps each request to its group's slot in
    // the deduplicated batch.
    std::vector<std::size_t> order(live.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return CompareQueries(live[a].query, live[b].query) < 0;
    });
    std::vector<Query> queries;
    queries.reserve(live.size());
    std::vector<std::size_t> unique_of(live.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      const std::size_t i = order[rank];
      // Compare against the materialized unique (the group head's query
      // now lives in `queries`, not in its moved-from request).
      if (queries.empty() ||
          CompareQueries(queries.back(), live[i].query) != 0) {
        queries.push_back(std::move(live[i].query));
      } else {
        ++coalesced;
        // The group is computed once, under one budget: the latest member
        // deadline (max() = none wins), so no member can expire because of
        // a batchmate's tighter one.
        queries.back().deadline =
            std::max(queries.back().deadline, live[i].query.deadline);
        // Query identity excludes `trace`, so a traced request can coalesce
        // behind an untraced group head — whose null context would swallow
        // every engine/shard span. Promote the first traced duplicate's
        // context onto the head (a shared_ptr copy; the duplicate's own
        // context already carries its queue span, stamped above).
        if (queries.back().trace == nullptr &&
            live[i].query.trace != nullptr) {
          queries.back().trace = live[i].query.trace;
        }
      }
      unique_of[i] = queries.size() - 1;
    }

    // Look every distinct query up (a null cache misses them all) and run
    // only the misses, in one backend call. Results are admitted under the
    // epoch captured before the backend ran (an Invalidate in between
    // rejects the admission).
    const std::uint64_t admit_epoch = cache_ != nullptr ? cache_->epoch() : 0;
    std::vector<SearchResult> hit_results(queries.size());
    std::vector<char> hit(queries.size(), 0);
    std::vector<Query> miss_queries;
    for (std::size_t u = 0; u < queries.size(); ++u) {
      hit[u] = cache_ != nullptr && cache_->Lookup(queries[u], &hit_results[u]);
      if (!hit[u]) miss_queries.push_back(std::move(queries[u]));
    }
    std::vector<Result<SearchResult>> miss_results;
    if (!miss_queries.empty()) {
      // Chaos hook: a firing "scheduler.dispatch" stands in for a backend
      // failure at the moment of dispatch, failing every query of the call.
      const Status injected = fault::Check("scheduler.dispatch");
      miss_results = injected.ok() ? backend_(miss_queries)
                                   : std::vector<Result<SearchResult>>(
                                         miss_queries.size(), injected);
      KDASH_CHECK(miss_results.size() == miss_queries.size())
          << "backend returned " << miss_results.size() << " results for "
          << miss_queries.size() << " queries";
    }
    std::vector<Result<SearchResult>> per_unique;
    per_unique.reserve(queries.size());
    std::size_t m = 0;
    for (std::size_t u = 0; u < queries.size(); ++u) {
      if (hit[u]) {
        per_unique.push_back(std::move(hit_results[u]));
        continue;
      }
      if (cache_ != nullptr && miss_results[m].ok()) {
        cache_->Admit(miss_queries[m], admit_epoch, *miss_results[m]);
      }
      per_unique.push_back(std::move(miss_results[m]));
      ++m;
    }
    // Fan each unique result out to its consumers, copying only for
    // duplicates: the last consumer of a group takes the result by move,
    // so the common non-coalesced case never pays a copy.
    std::vector<std::size_t> consumers(per_unique.size(), 0);
    for (const std::size_t u : unique_of) ++consumers[u];
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t u = unique_of[i];
      if (--consumers[u] == 0) {
        outcomes.push_back(std::move(per_unique[u]));
      } else {
        outcomes.push_back(per_unique[u]);
      }
    }
  }

  // Count first, then resolve (see the ordering note above).
  std::uint64_t degraded = 0;
  for (const Result<SearchResult>& outcome : outcomes) {
    if (outcome.ok() && outcome->degraded()) ++degraded;
  }
  metrics_.deadline_expired->Add(overdue.size());
  metrics_.served->Add(live.size());
  metrics_.coalesced->Add(coalesced);
  metrics_.degraded->Add(degraded);
  for (Request& request : overdue) {
    request.promise.set_value(Status::DeadlineExceeded(
        "request expired after waiting " +
        std::to_string(std::chrono::duration_cast<std::chrono::microseconds>(
                           now - request.arrival)
                           .count()) +
        "us in the scheduler queue"));
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i].promise.set_value(std::move(outcomes[i]));
  }
}

void BatchScheduler::Shutdown() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_scheduler_.NotifyAll();
  // Serialize the join so concurrent Shutdown calls are safe.
  MutexLock join_lock(join_mutex_);
  if (scheduler_.joinable()) scheduler_.join();
}

}  // namespace kdash::serving
