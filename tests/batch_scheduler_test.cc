// BatchScheduler semantics: an idle scheduler dispatches at once and a
// batch forms from what queued behind the busy one, coalescing never
// changes answers, deadlines surface kDeadlineExceeded, shutdown drains
// every accepted future, and post-shutdown submissions are rejected with
// kUnavailable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "backend_gate.h"
#include "serving/batch_scheduler.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

using std::chrono::milliseconds;

Engine BuildTestEngine() {
  auto engine = Engine::Build(test::RandomDirectedGraph(120, 700, 31));
  KDASH_CHECK(engine.ok());
  return std::move(*engine);
}

BatchScheduler::Backend EngineBackend(const Engine& engine) {
  return [&engine](std::span<const Query> queries) {
    return engine.SearchBatch(queries);
  };
}

TEST(BatchSchedulerTest, SingleSubmitMatchesDirectSearch) {
  const Engine engine = BuildTestEngine();
  BatchScheduler scheduler(EngineBackend(engine));

  const Query query = Query::Single(3, 10);
  auto future = scheduler.Submit(query);
  const auto via_scheduler = future.get();
  const auto direct = engine.Search(query);
  ASSERT_TRUE(via_scheduler.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_scheduler->top.size(), direct->top.size());
  for (std::size_t r = 0; r < direct->top.size(); ++r) {
    EXPECT_EQ(via_scheduler->top[r].node, direct->top[r].node);
    EXPECT_EQ(via_scheduler->top[r].score, direct->top[r].score);
  }
}

TEST(BatchSchedulerTest, ConcurrentSubmittersMatchSequentialResults) {
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  test::BackendGate gate;
  const test::CounterDelta submitted("scheduler.submitted");
  const test::CounterDelta served("scheduler.served");
  const test::CounterDelta batches("scheduler.batches_dispatched");
  BatchScheduler scheduler(gate.Wrap(EngineBackend(engine)), options);

  // Every submitter's requests queue behind the gated occupant, so they
  // are dispatched in full batches of 16.
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  gate.AwaitOccupant();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<Result<SearchResult>>>> futures(
      kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Query query = Query::Single((t * kPerThread + i) % engine.num_nodes(),
                                    5 + static_cast<std::size_t>(i % 3));
        if (i % 4 == 0) query.exclude = {static_cast<NodeId>(t)};
        futures[static_cast<std::size_t>(t)].push_back(
            scheduler.Submit(query));
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Query query = Query::Single((t * kPerThread + i) % engine.num_nodes(),
                                  5 + static_cast<std::size_t>(i % 3));
      if (i % 4 == 0) query.exclude = {static_cast<NodeId>(t)};
      const auto expected = engine.Search(query);
      const auto got = futures[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(i)]
                                  .get();
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->top.size(), expected->top.size());
      for (std::size_t r = 0; r < expected->top.size(); ++r) {
        EXPECT_EQ(got->top[r].node, expected->top[r].node);
        EXPECT_EQ(got->top[r].score, expected->top[r].score);
      }
    }
  }

  EXPECT_EQ(submitted(), kThreads * kPerThread + 1);  // + the occupant
  EXPECT_EQ(served(), kThreads * kPerThread + 1);
  // Coalescing actually happened: strictly fewer dispatches than requests.
  EXPECT_LT(batches(), submitted());
}

TEST(BatchSchedulerTest, ExpiredRequestsGetDeadlineExceeded) {
  // A backend slow enough that a whole batch outlives the next request's
  // deadline; the expired request must never reach it.
  std::atomic<int> backend_calls{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 1;  // each request dispatches alone
  const test::CounterDelta deadline_expired("scheduler.deadline_expired");
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> std::vector<Result<SearchResult>> {
        ++backend_calls;
        std::this_thread::sleep_for(milliseconds(100));
        return std::vector<Result<SearchResult>>(queries.size(), SearchResult{});
      },
      options);

  // First request occupies the scheduler; the second expires while queued.
  auto slow = scheduler.Submit(Query::Single(0, 1));
  auto expired = scheduler.Submit(Query::Single(1, 1), milliseconds(5));
  ASSERT_TRUE(slow.get().ok());
  const auto result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend_calls.load(), 1);
  EXPECT_EQ(deadline_expired(), 1u);
}

TEST(BatchSchedulerTest, ShutdownDrainsAcceptedFutures) {
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 8;
  const test::CounterDelta served("scheduler.served");
  BatchScheduler scheduler(EngineBackend(engine), options);

  std::vector<std::future<Result<SearchResult>>> futures;
  for (NodeId q = 0; q < 30; ++q) {
    futures.push_back(scheduler.Submit(Query::Single(q, 5)));
  }
  scheduler.Shutdown();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(milliseconds(0)), std::future_status::ready)
        << "shutdown returned before draining";
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(served(), 30u);
}

TEST(BatchSchedulerTest, SubmitAfterShutdownIsUnavailable) {
  const Engine engine = BuildTestEngine();
  const test::CounterDelta rejected("scheduler.rejected");
  BatchScheduler scheduler(EngineBackend(engine));
  scheduler.Shutdown();
  auto future = scheduler.Submit(Query::Single(0, 5));
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rejected(), 1u);
}

TEST(BatchSchedulerTest, IdenticalRequestsCoalesceToOneComputation) {
  const Engine engine = BuildTestEngine();
  std::atomic<std::uint64_t> backend_queries{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 32;
  test::BackendGate gate;
  const test::CounterDelta served("scheduler.served");
  const test::CounterDelta coalesced("scheduler.coalesced");
  BatchScheduler scheduler(
      gate.Wrap([&](std::span<const Query> queries) {
        backend_queries += queries.size();
        return engine.SearchBatch(queries);
      }),
      options);

  // Every hot submission queues behind the gated occupant: one batch.
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  gate.AwaitOccupant();
  const Query hot = Query::Single(5, 10);
  std::vector<std::future<Result<SearchResult>>> futures;
  for (int i = 0; i < 20; ++i) futures.push_back(scheduler.Submit(hot));
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());

  const auto direct = engine.Search(hot);
  ASSERT_TRUE(direct.ok());
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->top.size(), direct->top.size());
    for (std::size_t r = 0; r < direct->top.size(); ++r) {
      EXPECT_EQ(result->top[r].node, direct->top[r].node);
      EXPECT_EQ(result->top[r].score, direct->top[r].score);
    }
  }

  EXPECT_EQ(served(), 20u + 1);  // + the occupant
  // Duplicates shared a computation: the backend saw fewer queries than
  // were submitted, and the difference is accounted as coalesced.
  EXPECT_LT(backend_queries.load(), 20u);
  EXPECT_EQ(backend_queries.load() + coalesced(), 20u);
  EXPECT_EQ(backend_queries.load(), 1u);  // one batch, one distinct query
}

TEST(BatchSchedulerTest, CoalescedGroupRunsUnderItsLatestDeadline) {
  // A coalesced group is computed once, so the query the backend sees must
  // carry a budget every member can live with: the latest deadline, or
  // none if any member has none. Otherwise a no-deadline request could come
  // back DEADLINE_EXCEEDED from a retrying backend because of a batchmate.
  using std::chrono::hours;
  using Clock = std::chrono::steady_clock;
  const Engine engine = BuildTestEngine();
  struct Case {
    Clock::duration first, second;  // zero = no timeout
    bool want_none;
  };
  for (const Case& c : {Case{hours(1), Clock::duration::zero(), true},
                        Case{Clock::duration::zero(), hours(1), true},
                        Case{hours(1), hours(3), false},
                        Case{hours(3), hours(1), false}}) {
    test::BackendGate gate;
    std::mutex mutex;
    std::vector<Clock::time_point> seen;
    BatchScheduler scheduler(
        gate.Wrap([&](std::span<const Query> queries) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            for (const Query& query : queries) seen.push_back(query.deadline);
          }
          return engine.SearchBatch(queries);
        }));
    auto occupant = scheduler.Submit(Query::Single(0, 1));
    gate.AwaitOccupant();
    const Clock::time_point before = Clock::now();
    auto first = scheduler.Submit(Query::Single(5, 10), c.first);
    auto second = scheduler.Submit(Query::Single(5, 10), c.second);
    gate.Release();
    ASSERT_TRUE(occupant.get().ok());
    ASSERT_TRUE(first.get().ok());
    ASSERT_TRUE(second.get().ok());

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), 1u);  // the pair coalesced into one query
    if (c.want_none) {
      EXPECT_EQ(seen[0], Clock::time_point::max());
    } else {
      EXPECT_GE(seen[0], before + hours(3));
      EXPECT_LT(seen[0], Clock::time_point::max());
    }
  }
}

TEST(BatchSchedulerTest, IdleDispatchesAtOnceAndQueuedRequestsFormTheNextBatch) {
  // No batching timer. A lone request on an idle scheduler reaches the
  // backend at once, as a batch of 1. Its deadline is well under a
  // millisecond, so a scheduler that held requests for a batching window
  // would expire every try; a few tries absorb a descheduled thread.
  std::mutex mutex;
  std::vector<std::size_t> lone_sizes;
  BatchScheduler idle(
      [&](std::span<const Query> queries) -> std::vector<Result<SearchResult>> {
        std::lock_guard<std::mutex> lock(mutex);
        lone_sizes.push_back(queries.size());
        return std::vector<Result<SearchResult>>(queries.size(), SearchResult{});
      });
  bool served = false;
  for (NodeId attempt = 0; attempt < 100 && !served; ++attempt) {
    const auto result = idle.Submit(Query::Single(attempt, 1),
                                    std::chrono::microseconds(400))
                            .get();
    if (result.ok()) {
      served = true;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
  idle.Shutdown();
  EXPECT_TRUE(served) << "no lone request was dispatched within 400us";
  EXPECT_EQ(lone_sizes, std::vector<std::size_t>(lone_sizes.size(), 1));

  // Requests submitted while the occupant blocks form the next batch, up to
  // max_batch_size; the remainder follows as its own batch.
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  test::BackendGate gate;
  // Counted from here: `idle` has shut down and adds nothing more.
  const test::CounterDelta batches("scheduler.batches_dispatched");
  BatchScheduler scheduler(gate.Wrap(EngineBackend(engine)), options);
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  gate.AwaitOccupant();
  std::vector<std::future<Result<SearchResult>>> futures;
  for (NodeId q = 1; q <= 6; ++q) {
    futures.push_back(scheduler.Submit(Query::Single(q, 5)));
  }
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(gate.batch_sizes(), (std::vector<std::size_t>{1, 4, 2}));
  EXPECT_EQ(batches(), 3u);
}

// ---- stress: degenerate deadlines, shutdown races.

TEST(BatchSchedulerStressTest, AlreadyExpiredDeadlineNeverReachesBackend) {
  // A deadline of 1ns is expired on arrival for all practical purposes; the
  // request must resolve kDeadlineExceeded without touching the backend.
  // The first request holds the scheduler inside a gated backend so the
  // expired one cannot sneak into an earlier batch.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<std::uint64_t> backend_queries{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 1;
  const test::CounterDelta deadline_expired("scheduler.deadline_expired");
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> std::vector<Result<SearchResult>> {
        backend_queries += queries.size();
        gate.wait();
        return std::vector<Result<SearchResult>>(queries.size(), SearchResult{});
      },
      options);

  auto occupant = scheduler.Submit(Query::Single(0, 1));
  auto expired = scheduler.Submit(Query::Single(1, 1),
                                  std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(milliseconds(5));
  release.set_value();

  ASSERT_TRUE(occupant.get().ok());
  const auto result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend_queries.load(), 1u);  // only the occupant
  EXPECT_EQ(deadline_expired(), 1u);
}

TEST(BatchSchedulerStressTest, ShutdownRacingSubmitResolvesEveryFuture) {
  // Submitters hammer the scheduler while Shutdown lands mid-stream (twice,
  // concurrently — it is documented idempotent). Every future must resolve
  // — no hangs — to either a served result or kUnavailable, and the
  // counters must account for every submission exactly once.
  const Engine engine = BuildTestEngine();
  for (int round = 0; round < 4; ++round) {
    BatchSchedulerOptions options;
    options.max_batch_size = 8;
    // Each round counts from here: the previous round's scheduler is gone.
    const test::CounterDelta submitted("scheduler.submitted");
    const test::CounterDelta served("scheduler.served");
    const test::CounterDelta rejected("scheduler.rejected");
    const test::CounterDelta deadline_expired("scheduler.deadline_expired");
    BatchScheduler scheduler(EngineBackend(engine), options);

    constexpr int kThreads = 6;
    constexpr int kPerThread = 40;
    std::atomic<std::uint64_t> ok_count{0};
    std::atomic<std::uint64_t> unavailable_count{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::future<Result<SearchResult>>> futures;
        for (int i = 0; i < kPerThread; ++i) {
          futures.push_back(scheduler.Submit(
              Query::Single((t * kPerThread + i) % engine.num_nodes(), 3)));
        }
        for (auto& future : futures) {
          const auto result = future.get();
          if (result.ok()) {
            ++ok_count;
          } else {
            ASSERT_EQ(result.status().code(), StatusCode::kUnavailable)
                << result.status();
            ++unavailable_count;
          }
        }
      });
    }
    std::this_thread::sleep_for(milliseconds(round));  // vary the race window
    std::thread other_shutdown([&] { scheduler.Shutdown(); });
    scheduler.Shutdown();
    other_shutdown.join();
    for (auto& submitter : submitters) submitter.join();

    EXPECT_EQ(ok_count.load() + unavailable_count.load(),
              kThreads * kPerThread)
        << "round " << round;
    // Accepted requests are drained and served; rejected ones are counted.
    EXPECT_EQ(served(), ok_count.load()) << "round " << round;
    EXPECT_EQ(rejected(), unavailable_count.load()) << "round " << round;
    EXPECT_EQ(submitted() + rejected(), kThreads * kPerThread)
        << "round " << round;
    EXPECT_EQ(deadline_expired(), 0u) << "round " << round;
  }
}

TEST(BatchSchedulerTest, BadRequestDoesNotPoisonItsBatch) {
  const Engine engine = BuildTestEngine();
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  test::BackendGate gate;
  BatchScheduler scheduler(gate.Wrap(EngineBackend(engine)), options);

  // All three queue behind the gated occupant and land in one batch.
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  gate.AwaitOccupant();
  auto good1 = scheduler.Submit(Query::Single(1, 5));
  auto bad = scheduler.Submit(Query::Single(engine.num_nodes() + 7, 5));
  auto good2 = scheduler.Submit(Query::Single(2, 5));
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());

  EXPECT_TRUE(good1.get().ok());
  EXPECT_TRUE(good2.get().ok());
  const auto bad_result = bad.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status(),
            engine.Search(Query::Single(engine.num_nodes() + 7, 5)).status());
  // One backend call for the batch of three; nothing is re-run.
  EXPECT_EQ(gate.batch_sizes(), (std::vector<std::size_t>{1, 3}));
}

TEST(BatchSchedulerTest, TimeoutPastTheClockRangeMeansNoDeadline) {
  // arrival + duration::max() would overflow steady_clock; such a timeout
  // is no deadline, not one already in the past.
  using Clock = std::chrono::steady_clock;
  const Engine engine = BuildTestEngine();
  std::mutex mutex;
  std::vector<Clock::time_point> seen;
  BatchScheduler scheduler([&](std::span<const Query> queries) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const Query& query : queries) seen.push_back(query.deadline);
    }
    return engine.SearchBatch(queries);
  });
  for (const Clock::duration timeout :
       {Clock::duration::max(), Clock::time_point::max() - Clock::now()}) {
    const auto result = scheduler.Submit(Query::Single(3, 5), timeout).get();
    EXPECT_TRUE(result.ok()) << result.status();
  }
  scheduler.Shutdown();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(seen, std::vector<Clock::time_point>(2, Clock::time_point::max()));
}

}  // namespace
}  // namespace kdash::serving
