#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

namespace kdash {
namespace {

TEST(ParseNumThreadsTest, ValidValues) {
  EXPECT_EQ(internal::ParseNumThreads("1"), 1);
  EXPECT_EQ(internal::ParseNumThreads("8"), 8);
  EXPECT_EQ(internal::ParseNumThreads("1024"), 1024);
}

TEST(ParseNumThreadsTest, InvalidValuesFallBack) {
  EXPECT_EQ(internal::ParseNumThreads(nullptr), 0);
  EXPECT_EQ(internal::ParseNumThreads(""), 0);
  EXPECT_EQ(internal::ParseNumThreads("0"), 0);
  EXPECT_EQ(internal::ParseNumThreads("-4"), 0);
  EXPECT_EQ(internal::ParseNumThreads("2000"), 0);
  EXPECT_EQ(internal::ParseNumThreads("four"), 0);
  EXPECT_EQ(internal::ParseNumThreads("4x"), 0);
  EXPECT_EQ(internal::ParseNumThreads("+4"), 0);
  EXPECT_EQ(internal::ParseNumThreads(" 4"), 0);
}

TEST(ThreadPoolTest, DefaultNumThreadsIsPositive) {
  EXPECT_GE(DefaultNumThreads(), 1);
}

TEST(ThreadPoolTest, RunOnAllThreadsCoversEveryRankOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(threads));
    for (auto& h : hits) h = 0;
    pool.RunOnAllThreads(
        [&](int rank) { ++hits[static_cast<std::size_t>(rank)]; });
    for (int rank = 0; rank < threads; ++rank) {
      EXPECT_EQ(hits[static_cast<std::size_t>(rank)].load(), 1)
          << "threads=" << threads << " rank=" << rank;
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  const Index n = 1000;
  for (int threads : {1, 2, 4, 8}) {
    for (Index grain : {1, 7, 64, 2000}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h = 0;
      pool.ParallelFor(0, n, grain, [&](Index begin, Index end, int rank) {
        EXPECT_GE(rank, 0);
        EXPECT_LT(rank, threads);
        EXPECT_LT(begin, end);
        EXPECT_LE(end - begin, std::max<Index>(grain, 1));
        for (Index i = begin; i < end; ++i) {
          ++hits[static_cast<std::size_t>(i)];
        }
      });
      for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesAreDeterministic) {
  // Chunks must start at begin + k·grain regardless of thread count — this
  // is what block-based consumers (the triangular inverter) rely on.
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::mutex mutex;
    std::set<std::pair<Index, Index>> chunks;
    pool.ParallelFor(10, 95, 20, [&](Index begin, Index end, int) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.insert({begin, end});
    });
    const std::set<std::pair<Index, Index>> expected{
        {10, 30}, {30, 50}, {50, 70}, {70, 90}, {90, 95}};
    EXPECT_EQ(chunks, expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndReversedRanges) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](Index, Index, int) { called = true; });
  pool.ParallelFor(9, 2, 1, [&](Index, Index, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  const Index n = 10000;
  std::vector<Index> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1);
  const Index expected = std::accumulate(values.begin(), values.end(), Index{0});

  ThreadPool pool(4);
  std::atomic<Index> total{0};
  pool.ParallelFor(0, n, 128, [&](Index begin, Index end, int) {
    Index local = 0;
    for (Index i = begin; i < end; ++i) {
      local += values[static_cast<std::size_t>(i)];
    }
    total += local;
  });
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<Index> count{0};
    pool.ParallelFor(0, 100, 9, [&](Index begin, Index end, int) {
      count += end - begin;
    });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100, 1,
                                [&](Index begin, Index, int) {
                                  if (begin == 42) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<Index> count{0};
  pool.ParallelFor(0, 10, 1, [&](Index, Index, int) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SharedPoolWorks) {
  std::atomic<Index> count{0};
  ParallelFor(0, 57, 5, [&](Index begin, Index end, int) {
    count += end - begin;
  });
  EXPECT_EQ(count.load(), 57);
}

}  // namespace
}  // namespace kdash
