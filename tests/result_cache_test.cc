// ResultCache semantics, standalone and wired into the BatchScheduler:
// repeats of a cached query come back byte-identical without touching the
// backend, eviction keeps the most-hit (then most-recently-used) entries,
// degraded results are never admitted, and graph mutations invalidate —
// a query submitted after AddEdge returns always sees a fresh answer.
#include "serving/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "serving/batch_scheduler.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

SearchResult MakeResult(NodeId node, Scalar score) {
  SearchResult result;
  result.top.push_back({node, score});
  return result;
}

void ExpectSameTop(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t r = 0; r < a.top.size(); ++r) {
    EXPECT_EQ(a.top[r].node, b.top[r].node);
    EXPECT_EQ(a.top[r].score, b.top[r].score);  // byte-identical, no tolerance
  }
}

TEST(ResultCacheTest, MissThenAdmitThenHit) {
  ResultCache cache(4);
  const Query query = Query::Single(7, 5);
  SearchResult out;
  EXPECT_FALSE(cache.Lookup(query, &out));
  cache.Admit(query, cache.epoch(), MakeResult(3, 0.25));
  ASSERT_TRUE(cache.Lookup(query, &out));
  ExpectSameTop(out, MakeResult(3, 0.25));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, TraceIsNotPartOfIdentity) {
  ResultCache cache(4);
  Query traced = Query::Single(7, 5);
  traced.trace = std::make_shared<obs::TraceContext>();
  cache.Admit(traced, cache.epoch(), MakeResult(1, 0.5));
  SearchResult out;
  // The same query without a trace context must hit the same entry.
  EXPECT_TRUE(cache.Lookup(Query::Single(7, 5), &out));
}

TEST(ResultCacheTest, DistinctQueriesAreDistinctEntries) {
  ResultCache cache(8);
  const Query base = Query::Single(7, 5);
  Query different_k = base;
  different_k.k = 6;
  Query different_exclude = base;
  different_exclude.exclude = {2};
  Query no_pruning = base;
  no_pruning.use_pruning = false;
  cache.Admit(base, cache.epoch(), MakeResult(0, 0.1));
  cache.Admit(different_k, cache.epoch(), MakeResult(1, 0.2));
  cache.Admit(different_exclude, cache.epoch(), MakeResult(2, 0.3));
  cache.Admit(no_pruning, cache.epoch(), MakeResult(3, 0.4));
  EXPECT_EQ(cache.size(), 4u);
  SearchResult out;
  ASSERT_TRUE(cache.Lookup(different_exclude, &out));
  ExpectSameTop(out, MakeResult(2, 0.3));
}

TEST(ResultCacheTest, EvictsFewestHitsFirst) {
  ResultCache cache(2);
  const Query hot = Query::Single(1, 5);
  const Query cold = Query::Single(2, 5);
  cache.Admit(hot, cache.epoch(), MakeResult(1, 0.1));
  cache.Admit(cold, cache.epoch(), MakeResult(2, 0.2));
  SearchResult out;
  EXPECT_TRUE(cache.Lookup(hot, &out));
  EXPECT_TRUE(cache.Lookup(hot, &out));  // hot: 2 hits, cold: 0

  cache.Admit(Query::Single(3, 5), cache.epoch(), MakeResult(3, 0.3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(hot, &out));                   // survived
  EXPECT_FALSE(cache.Lookup(cold, &out));                 // evicted
  EXPECT_TRUE(cache.Lookup(Query::Single(3, 5), &out));   // admitted
}

TEST(ResultCacheTest, EvictionTieBreaksLeastRecentlyUsed) {
  ResultCache cache(2);
  const Query first = Query::Single(1, 5);
  const Query second = Query::Single(2, 5);
  cache.Admit(first, cache.epoch(), MakeResult(1, 0.1));
  cache.Admit(second, cache.epoch(), MakeResult(2, 0.2));
  SearchResult out;
  // Equal hit counts; touch `first` so `second` is the LRU victim.
  EXPECT_TRUE(cache.Lookup(first, &out));
  EXPECT_TRUE(cache.Lookup(second, &out));
  EXPECT_TRUE(cache.Lookup(first, &out));
  EXPECT_TRUE(cache.Lookup(second, &out));
  EXPECT_TRUE(cache.Lookup(first, &out));

  cache.Admit(Query::Single(3, 5), cache.epoch(), MakeResult(3, 0.3));
  EXPECT_TRUE(cache.Lookup(first, &out));
  EXPECT_FALSE(cache.Lookup(second, &out));
}

TEST(ResultCacheTest, DegradedResultsAreNeverAdmitted) {
  ResultCache cache(4);
  const Query query = Query::Single(7, 5);
  SearchResult degraded = MakeResult(3, 0.25);
  degraded.shards_ok = 2;
  degraded.shards_failed = 1;
  cache.Admit(query, cache.epoch(), degraded);
  SearchResult out;
  EXPECT_FALSE(cache.Lookup(query, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, StaleEpochAdmissionIsRejected) {
  ResultCache cache(4);
  const Query query = Query::Single(7, 5);
  const std::uint64_t epoch_at_invoke = cache.epoch();
  cache.Invalidate();  // graph mutated while the backend was computing
  cache.Admit(query, epoch_at_invoke, MakeResult(3, 0.25));
  SearchResult out;
  EXPECT_FALSE(cache.Lookup(query, &out));
}

TEST(ResultCacheTest, InvalidatePurgesEverything) {
  ResultCache cache(4);
  cache.Admit(Query::Single(1, 5), cache.epoch(), MakeResult(1, 0.1));
  cache.Admit(Query::Single(2, 5), cache.epoch(), MakeResult(2, 0.2));
  EXPECT_EQ(cache.size(), 2u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  SearchResult out;
  EXPECT_FALSE(cache.Lookup(Query::Single(1, 5), &out));
}

// ---- Scheduler integration -------------------------------------------------

// Counts how many queries actually reach the engine, so a cache hit is
// observable as a backend that was never called.
struct CountingBackend {
  const Engine* engine;
  std::atomic<std::uint64_t> queries_served{0};

  BatchScheduler::Backend AsBackend() {
    return [this](std::span<const Query> queries) {
      queries_served.fetch_add(queries.size());
      return engine->SearchBatch(queries);
    };
  }
};

TEST(ResultCacheSchedulerTest, RepeatedQueryIsServedFromCacheByteIdentical) {
  const auto engine = Engine::Build(test::RandomDirectedGraph(120, 700, 31));
  ASSERT_TRUE(engine.ok());
  CountingBackend backend{&*engine};
  BatchSchedulerOptions options;
  options.cache_entries = 16;
  BatchScheduler scheduler(backend.AsBackend(), options);

  const Query query = Query::Single(3, 10);
  auto first = scheduler.Submit(query).get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(backend.queries_served.load(), 1u);

  // Resolved before resubmission, so the repeat lands in its own batch —
  // in-batch coalescing cannot be what answers it.
  auto second = scheduler.Submit(query).get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(backend.queries_served.load(), 1u) << "repeat must not reach the "
                                                  "backend";
  ExpectSameTop(*first, *second);

  scheduler.Shutdown();
}

TEST(ResultCacheSchedulerTest, CacheOffIsUnchangedBaseline) {
  const auto engine = Engine::Build(test::RandomDirectedGraph(120, 700, 31));
  ASSERT_TRUE(engine.ok());
  CountingBackend backend{&*engine};
  BatchScheduler scheduler(backend.AsBackend());  // cache_entries = 0

  const Query query = Query::Single(3, 10);
  auto first = scheduler.Submit(query).get();
  auto second = scheduler.Submit(query).get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(backend.queries_served.load(), 2u);
  ExpectSameTop(*first, *second);
  scheduler.Shutdown();
}

TEST(ResultCacheSchedulerTest, CachedStreamMatchesUncachedStream) {
  const auto engine = Engine::Build(test::RandomDirectedGraph(120, 700, 31));
  ASSERT_TRUE(engine.ok());
  // A repeat-heavy stream: 8 distinct queries, each issued 5 times.
  std::vector<Query> stream;
  for (int round = 0; round < 5; ++round) {
    for (NodeId s = 0; s < 8; ++s) {
      stream.push_back(Query::Single(s * 11, 6));
    }
  }

  const auto run = [&](std::size_t cache_entries) {
    BatchSchedulerOptions options;
    options.cache_entries = cache_entries;
    BatchScheduler scheduler(
        [&](std::span<const Query> queries) {
          return engine->SearchBatch(queries);
        },
        options);
    std::vector<SearchResult> results;
    for (const Query& query : stream) {
      auto result = scheduler.Submit(query).get();
      KDASH_CHECK(result.ok());
      results.push_back(std::move(*result));
    }
    scheduler.Shutdown();
    return results;
  };

  const auto cached = run(16);
  const auto uncached = run(0);
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) ExpectSameTop(cached[i], uncached[i]);
}

TEST(ResultCacheSchedulerTest, AddEdgeInvalidatesBetweenIdenticalQueries) {
  EngineOptions engine_options;
  engine_options.updatable = true;
  auto engine =
      Engine::Build(test::RandomDirectedGraph(60, 350, 82), engine_options);
  ASSERT_TRUE(engine.ok());

  CountingBackend backend{&*engine};
  BatchSchedulerOptions options;
  options.cache_entries = 16;
  options.backend_epoch = [&e = *engine] { return e.update_epoch(); };
  BatchScheduler scheduler(backend.AsBackend(), options);

  const Query query = Query::Single(5, 8);
  auto before = scheduler.Submit(query).get();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(backend.queries_served.load(), 1u);

  // Mutate the graph: the cached pre-mutation answer is now stale. An edge
  // into a previously-unreached node changes the answer observably.
  ASSERT_TRUE(engine->AddEdge(5, 59, 10.0).ok());

  auto after = scheduler.Submit(query).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(backend.queries_served.load(), 2u)
      << "post-mutation repeat must recompute, not replay the cache";

  const auto direct = engine->Search(query);
  ASSERT_TRUE(direct.ok());
  ExpectSameTop(*after, *direct);
  scheduler.Shutdown();
}

}  // namespace
}  // namespace kdash::serving
