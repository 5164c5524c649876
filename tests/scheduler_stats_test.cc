// BatchScheduler's exact accounting in the metric registry. The
// scheduler.* counters are the operator's only window into an overloaded
// or degraded scheduler, so they must obey hard invariants, not be
// best-effort: every Submit lands in exactly one of {rejected, shed,
// submitted}, and once all futures resolve,
// submitted == served + deadline_expired.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "backend_gate.h"
#include "serving/batch_scheduler.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

using std::chrono::milliseconds;

std::vector<Result<SearchResult>> OkResults(std::size_t n) {
  return std::vector<Result<SearchResult>>(n, SearchResult{});
}

TEST(SchedulerStatsTest, MixedOutcomesAccountExactlyInOneRun) {
  // One scheduler, one run, every counter exercised: an in-flight request
  // (served), a queued request that expires (deadline_expired), queued
  // requests that survive (served), overflow submissions (shed), and a
  // post-shutdown submission (rejected).
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  std::atomic<int> backend_calls{0};

  BatchSchedulerOptions options;
  options.max_batch_size = 1;  // one request per dispatch, FIFO
  options.max_queue_depth = 3;
  const test::CounterDelta submitted("scheduler.submitted");
  const test::CounterDelta shed("scheduler.shed");
  const test::CounterDelta rejected_count("scheduler.rejected");
  const test::CounterDelta deadline_expired("scheduler.deadline_expired");
  const test::CounterDelta served("scheduler.served");
  const test::CounterDelta degraded("scheduler.degraded");
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> std::vector<Result<SearchResult>> {
        if (backend_calls.fetch_add(1) == 0) entered.set_value();
        gate.wait();
        return OkResults(queries.size());
      },
      options);

  // The occupant is dispatched and parks inside the gated backend; wait for
  // it so the queue is verifiably empty before filling it.
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  entered.get_future().wait();

  auto expired = scheduler.Submit(Query::Single(1, 1), milliseconds(1));
  auto queued_a = scheduler.Submit(Query::Single(2, 1));
  auto queued_b = scheduler.Submit(Query::Single(3, 1));
  // Queue is now at max_queue_depth: the next submissions must be shed
  // immediately, without blocking and without ever reaching the backend.
  auto shed_a = scheduler.Submit(Query::Single(4, 1));
  auto shed_b = scheduler.Submit(Query::Single(5, 1));
  for (auto* future : {&shed_a, &shed_b}) {
    ASSERT_EQ(future->wait_for(milliseconds(0)), std::future_status::ready);
    const auto result = future->get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().message().find("shed"), std::string::npos);
  }

  std::this_thread::sleep_for(milliseconds(10));  // let the deadline pass
  release.set_value();

  ASSERT_TRUE(occupant.get().ok());
  const auto expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(queued_a.get().ok());
  ASSERT_TRUE(queued_b.get().ok());

  scheduler.Shutdown();
  const auto rejected = scheduler.Submit(Query::Single(6, 1)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  EXPECT_EQ(submitted(), 4u);  // occupant + expired + 2 queued
  EXPECT_EQ(shed(), 2u);
  EXPECT_EQ(rejected_count(), 1u);
  EXPECT_EQ(deadline_expired(), 1u);
  EXPECT_EQ(served(), 3u);
  EXPECT_EQ(degraded(), 0u);
  EXPECT_EQ(submitted(), served() + deadline_expired());
  EXPECT_EQ(backend_calls.load(), 3);  // shed/expired never reached it
}

TEST(SchedulerStatsTest, BackendErrorCostsOneCallPerBatch) {
  // The scheduler has no retry policy (that lives in the fan-out, per
  // member): a backend that fails every query sees exactly one call per
  // batch of distinct queries, whether the code is transient or not.
  for (const StatusCode code :
       {StatusCode::kUnavailable, StatusCode::kResourceExhausted,
        StatusCode::kDataLoss, StatusCode::kInternal}) {
    SCOPED_TRACE(StatusCodeName(code));
    BatchSchedulerOptions options;
    options.max_batch_size = 8;
    test::BackendGate gate;
    const test::CounterDelta served("scheduler.served");
    const test::CounterDelta coalesced("scheduler.coalesced");
    BatchScheduler scheduler(
        gate.Wrap([code](std::span<const Query> queries) {
          return std::vector<Result<SearchResult>>(
              queries.size(), Status(code, "backend down"));
        }),
        options);

    auto occupant = scheduler.Submit(Query::Single(0, 1));
    gate.AwaitOccupant();
    std::vector<std::future<Result<SearchResult>>> futures;
    for (const NodeId source : {1, 2, 3, 2}) {  // 3 distinct + 1 duplicate
      futures.push_back(scheduler.Submit(Query::Single(source, 1)));
    }
    gate.Release();
    ASSERT_TRUE(occupant.get().ok());
    for (auto& future : futures) {
      const auto result = future.get();
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), code);
    }
    // The occupant, then one call for the 3 distinct queries.
    EXPECT_EQ(gate.batch_sizes(), (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(served(), 1u + 4);  // resolved through the backend path
    EXPECT_EQ(coalesced(), 1u);
  }
}

TEST(SchedulerStatsTest, DegradedServesAreCountedPerRequest) {
  // A sharded backend that lost a shard: answers are ok() but partial, and
  // the scheduler must surface how many requests were served degraded.
  BatchSchedulerOptions options;
  options.max_batch_size = 4;
  test::BackendGate gate;
  const test::CounterDelta served("scheduler.served");
  const test::CounterDelta degraded("scheduler.degraded");
  BatchScheduler scheduler(
      gate.Wrap([&](std::span<const Query> queries)
                    -> std::vector<Result<SearchResult>> {
        std::vector<Result<SearchResult>> results = OkResults(queries.size());
        for (std::size_t q = 0; q < queries.size(); ++q) {
          // Even sources hit the lost shard; odd ones are served complete.
          if (queries[q].sources[0] % 2 == 0) {
            results[q]->shards_ok = 2;
            results[q]->shards_failed = 1;
          } else {
            results[q]->shards_ok = 3;
          }
        }
        return results;
      }),
      options);

  // The eight requests queue behind the gated occupant: two full batches.
  auto occupant = scheduler.Submit(Query::Single(0, 1));
  gate.AwaitOccupant();
  std::vector<std::future<Result<SearchResult>>> futures;
  for (NodeId q = 0; q < 8; ++q) {
    futures.push_back(scheduler.Submit(Query::Single(q, 1)));
  }
  gate.Release();
  ASSERT_TRUE(occupant.get().ok());
  int degraded_seen = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok());
    if (result->degraded()) ++degraded_seen;
  }
  EXPECT_EQ(degraded_seen, 4);
  EXPECT_EQ(gate.batch_sizes(), (std::vector<std::size_t>{1, 4, 4}));
  EXPECT_EQ(served(), 8u + 1);  // + the occupant, served complete
  EXPECT_EQ(degraded(), 4u);
}

TEST(SchedulerStatsTest, UnboundedQueueNeverSheds) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> entered;
  std::atomic<int> backend_calls{0};
  BatchSchedulerOptions options;
  options.max_batch_size = 1;
  options.max_queue_depth = 0;  // explicit opt-out of admission control
  const test::CounterDelta shed("scheduler.shed");
  const test::CounterDelta submitted("scheduler.submitted");
  const test::CounterDelta served("scheduler.served");
  BatchScheduler scheduler(
      [&](std::span<const Query> queries) -> std::vector<Result<SearchResult>> {
        if (backend_calls.fetch_add(1) == 0) entered.set_value();
        gate.wait();
        return OkResults(queries.size());
      },
      options);

  auto occupant = scheduler.Submit(Query::Single(0, 1));
  entered.get_future().wait();
  std::vector<std::future<Result<SearchResult>>> futures;
  for (NodeId q = 0; q < 100; ++q) {
    futures.push_back(scheduler.Submit(Query::Single(q, 1)));
  }
  release.set_value();
  ASSERT_TRUE(occupant.get().ok());
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_EQ(shed(), 0u);
  EXPECT_EQ(submitted(), 101u);
  EXPECT_EQ(served(), 101u);
}

}  // namespace
}  // namespace kdash::serving
