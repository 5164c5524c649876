// Engine thread safety: N threads hammering Search/SearchBatch concurrently
// on one Engine must produce results bit-identical to sequential execution.
// The engine's workspace reuse (searcher checkout list, batch pool) must
// never leak state between concurrent queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "test_util.h"

namespace kdash {
namespace {

std::vector<Query> MixedQueries(NodeId num_nodes, std::size_t count) {
  std::vector<Query> queries;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId a = static_cast<NodeId>((17 * i + 3) %
                                         static_cast<std::size_t>(num_nodes));
    const NodeId b = static_cast<NodeId>((31 * i + 11) %
                                         static_cast<std::size_t>(num_nodes));
    Query query;
    switch (i % 4) {
      case 0:
        query = Query::Single(a, 5);
        break;
      case 1:
        query = Query::Single(a, 9);
        query.exclude = {a};
        break;
      case 2:
        query = a == b ? Query::Personalized({a}, 7)
                       : Query::Personalized({a, b}, 7);
        break;
      default:
        query = Query::Single(a, 4);
        query.use_pruning = false;
        break;
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

void ExpectIdentical(const SearchResult& got, const SearchResult& want,
                     std::size_t query_id) {
  ASSERT_EQ(got.top.size(), want.top.size()) << "query " << query_id;
  for (std::size_t r = 0; r < want.top.size(); ++r) {
    EXPECT_EQ(got.top[r].node, want.top[r].node)
        << "query " << query_id << " rank " << r;
    // Bit-identical, not approximately equal: the engine must not reorder
    // floating-point work.
    EXPECT_EQ(got.top[r].score, want.top[r].score)
        << "query " << query_id << " rank " << r;
  }
  EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
  EXPECT_EQ(got.stats.proximity_computations,
            want.stats.proximity_computations);
  EXPECT_EQ(got.stats.terminated_early, want.stats.terminated_early);
}

TEST(EngineThreadTest, ConcurrentSearchBitIdenticalToSequential) {
  const auto g = test::RandomDirectedGraph(150, 1100, 301);
  auto engine = Engine::Build(g, {});
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto queries = MixedQueries(g.num_nodes(), 64);

  // Sequential ground truth.
  std::vector<SearchResult> expected;
  for (const Query& query : queries) {
    auto result = engine->Search(query);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(std::move(result).value());
  }

  // 8 threads × several passes, work-stealing over the query list.
  constexpr int kThreads = 8;
  constexpr int kPasses = 3;
  std::vector<std::vector<SearchResult>> observed(
      kPasses, std::vector<SearchResult>(queries.size()));
  std::atomic<std::size_t> cursor{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = cursor.fetch_add(1);
           i < queries.size() * kPasses; i = cursor.fetch_add(1)) {
        const std::size_t pass = i / queries.size();
        const std::size_t q = i % queries.size();
        auto result = engine->Search(queries[q]);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        observed[pass][q] = std::move(result).value();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectIdentical(observed[static_cast<std::size_t>(pass)][q],
                      expected[q], q);
    }
  }
}

TEST(EngineThreadTest, ConcurrentSearchBatchAndSearch) {
  const auto g = test::RandomDirectedGraph(130, 900, 302);
  auto engine = Engine::Build(g, {});
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto queries = MixedQueries(g.num_nodes(), 40);
  std::vector<SearchResult> expected;
  for (const Query& query : queries) {
    auto result = engine->Search(query);
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(std::move(result).value());
  }

  // Half the threads issue whole batches, half issue single queries, all
  // against the same engine at the same time.
  constexpr int kBatchThreads = 3;
  constexpr int kSingleThreads = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kBatchThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        const auto batch = engine->SearchBatch(queries);
        if (batch.size() != queries.size()) {
          ++failures;
          continue;
        }
        for (std::size_t q = 0; q < queries.size(); ++q) {
          if (!batch[q].ok()) {
            ++failures;
            continue;
          }
          const auto& got = *batch[q];
          const auto& want = expected[q];
          if (got.top.size() != want.top.size()) {
            ++failures;
            continue;
          }
          for (std::size_t r = 0; r < want.top.size(); ++r) {
            if (got.top[r].node != want.top[r].node ||
                got.top[r].score != want.top[r].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (int t = 0; t < kSingleThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
           i += kSingleThreads) {
        for (int round = 0; round < 3; ++round) {
          const auto result = engine->Search(queries[i]);
          if (!result.ok()) {
            ++failures;
            continue;
          }
          const auto& want = expected[i];
          if (result->top.size() != want.top.size()) {
            ++failures;
            continue;
          }
          for (std::size_t r = 0; r < want.top.size(); ++r) {
            if (result->top[r].node != want.top[r].node ||
                result->top[r].score != want.top[r].score) {
              ++failures;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineThreadTest, UpdatableEngineSearchesAndUpdatesDoNotTear) {
  const auto g = test::RandomDirectedGraph(60, 400, 303);
  EngineOptions options;
  options.updatable = true;
  auto engine = Engine::Build(g, options);
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Concurrent mutators and readers: correctness here is "no crash, no
  // invalid result shape, every status a documented one" — exact values
  // depend on interleaving by design.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const NodeId src = static_cast<NodeId>((t * 25 + i) % 60);
        const NodeId dst = static_cast<NodeId>((t * 31 + 7 * i) % 60);
        if (src == dst) continue;
        const Status status = engine->AddEdge(src, dst, 0.5);
        if (!status.ok()) ++failures;
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const auto result =
            engine->Search(Query::Single(static_cast<NodeId>((t * 13 + i) % 60), 5));
        if (!result.ok() || result->top.empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

Engine BuildUpdatable(const graph::Graph& g) {
  EngineOptions options;
  options.updatable = true;
  auto engine = Engine::Build(g, options);
  KDASH_CHECK(engine.ok()) << engine.status();
  return std::move(engine).value();
}

TEST(EngineThreadTest, UpdatableSearchBatchBitIdenticalToSearch) {
  // The batch's ranks share the engine's reader lock and run on the pool
  // (KDASH_NUM_THREADS workers); each answer must equal the query's own
  // Search, with a live Woodbury correction.
  const auto g = test::RandomDirectedGraph(140, 1000, 304);
  Engine engine = BuildUpdatable(g);
  for (NodeId src = 0; src < 12; ++src) {
    ASSERT_TRUE(engine.AddEdge(src, (src * 7 + 50) % 140, 0.75).ok());
  }
  const auto queries = MixedQueries(g.num_nodes(), 48);
  const auto batch = engine.SearchBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(batch[q].ok()) << batch[q].status();
    const auto single = engine.Search(queries[q]);
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectIdentical(*batch[q], *single, q);
  }
}

TEST(EngineThreadTest, WriterFinishesUnderReaderHeavyLoad) {
  // Readers issue batches back to back for as long as the writer runs; the
  // writer must still get the exclusive lock for every one of its edits.
  // Afterwards the engine answers exactly like one that took the same edits
  // with no readers around.
  const auto g = test::RandomDirectedGraph(120, 800, 305);
  Engine engine = BuildUpdatable(g);
  Engine quiet = BuildUpdatable(g);
  const auto queries = MixedQueries(g.num_nodes(), 32);

  constexpr int kReaders = 4;
  constexpr int kEdits = 40;
  // Every other added edge is removed again; the rest get a second AddEdge
  // onto their pending column, so the correction ends non-empty.
  const auto edit = [](Engine& target, int i) {
    const NodeId src = static_cast<NodeId>((i / 2 * 13) % 120);
    const NodeId dst = static_cast<NodeId>((i / 2 * 13 + 61) % 120);
    switch (i % 4) {
      case 1:
        return target.RemoveEdge(src, dst);
      case 3:
        return target.AddEdge(src, dst, 0.5);
      default:
        return target.AddEdge(src, dst, 2.0);
    }
  };
  // A starved writer fails the test at the deadline instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<bool> writer_done{false};
  std::atomic<bool> readers_gave_up{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      while (!writer_done.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          readers_gave_up.store(true);
          return;
        }
        for (const auto& result : engine.SearchBatch(queries)) {
          if (!result.ok() || result->top.empty()) ++failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kEdits; ++i) {
      if (!edit(engine, i).ok()) ++failures;
    }
    writer_done.store(true);
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(readers_gave_up.load()) << "the writer was starved";

  for (int i = 0; i < kEdits; ++i) ASSERT_TRUE(edit(quiet, i).ok());
  const auto got = engine.SearchBatch(queries);
  const auto want = quiet.SearchBatch(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(got[q].ok() && want[q].ok());
    ExpectIdentical(*got[q], *want[q], q);
  }
}

}  // namespace
}  // namespace kdash
