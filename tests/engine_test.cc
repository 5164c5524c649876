// kdash::Engine — the serving facade. Covers recoverable open/build errors,
// query validation at the API boundary, agreement with the underlying
// searcher/batch internals, persistence round trips, and the updatable
// (dynamic) backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/kdash_searcher.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash {
namespace {

EngineOptions StaticOptions() { return EngineOptions{}; }

EngineOptions UpdatableOptions() {
  EngineOptions options;
  options.updatable = true;
  return options;
}

TEST(EngineTest, BuildRejectsEmptyGraph) {
  const graph::Graph empty = graph::GraphBuilder(0).Build();
  const auto engine = Engine::Build(empty, StaticOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, BuildRejectsBadOptions) {
  const auto g = test::SmallDirectedGraph();
  EngineOptions bad_c;
  bad_c.index.restart_prob = 1.5;
  EXPECT_EQ(Engine::Build(g, bad_c).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, BuildRejectsAnInfiniteOutWeight) {
  // Node 0's two edges are finite but sum to +inf: normalized, they would
  // be 0 and node 0 would be served as dangling. Both backends refuse it.
  graph::GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1e308);
  builder.AddEdge(0, 2, 1e308);
  builder.AddEdge(1, 0);
  builder.AddEdge(2, 0);
  const graph::Graph g = std::move(builder).Build();
  ASSERT_FALSE(std::isfinite(g.OutWeight(0)));
  for (const EngineOptions& options : {StaticOptions(), UpdatableOptions()}) {
    const auto engine = Engine::Build(g, options);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("node 0"), std::string::npos)
        << engine.status();
  }
}

TEST(EngineTest, SearchMatchesSearcherInternals) {
  const auto g = test::RandomDirectedGraph(120, 800, 201);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  const core::KDashIndex index = core::KDashIndex::Build(g, {});
  core::KDashSearcher searcher(&index);

  for (const NodeId q : {0, 17, 63, 119}) {
    const auto got = engine->Search(Query::Single(q, 10));
    ASSERT_TRUE(got.ok()) << got.status();
    const SearchResult want = searcher.Search(Query::Single(q, 10));
    ASSERT_EQ(got->top.size(), want.top.size()) << "q=" << q;
    for (std::size_t i = 0; i < want.top.size(); ++i) {
      EXPECT_EQ(got->top[i].node, want.top[i].node);
      EXPECT_DOUBLE_EQ(got->top[i].score, want.top[i].score);
    }
    EXPECT_EQ(got->stats.nodes_visited, want.stats.nodes_visited);
    EXPECT_EQ(got->stats.proximity_computations,
              want.stats.proximity_computations);
  }
}

TEST(EngineTest, PersonalizedAndExclusionQueries) {
  const auto g = test::RandomDirectedGraph(100, 700, 202);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  Query query = Query::Personalized({3, 40, 77}, 8);
  query.exclude = {3, 40, 77};
  const auto result = engine->Search(query);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& entry : result->top) {
    EXPECT_NE(entry.node, 3);
    EXPECT_NE(entry.node, 40);
    EXPECT_NE(entry.node, 77);
  }

  const core::KDashIndex index = core::KDashIndex::Build(g, {});
  core::KDashSearcher searcher(&index);
  const auto want = searcher.Search(query).top;
  ASSERT_EQ(result->top.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(result->top[i].node, want[i].node);
    EXPECT_DOUBLE_EQ(result->top[i].score, want[i].score);
  }
}

TEST(EngineTest, QueryValidationAtTheBoundary) {
  const auto g = test::RandomDirectedGraph(50, 300, 203);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  // k = 0.
  Query zero_k = Query::Single(0, 0);
  EXPECT_EQ(engine->Search(zero_k).status().code(),
            StatusCode::kInvalidArgument);

  // Empty source set.
  Query empty;
  empty.k = 5;
  EXPECT_EQ(engine->Search(empty).status().code(),
            StatusCode::kInvalidArgument);

  // Out-of-range source (both signs).
  EXPECT_EQ(engine->Search(Query::Single(-1, 5)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->Search(Query::Single(50, 5)).status().code(),
            StatusCode::kInvalidArgument);

  // Out-of-range exclude.
  Query bad_exclude = Query::Single(0, 5);
  bad_exclude.exclude = {49, 50};
  EXPECT_EQ(engine->Search(bad_exclude).status().code(),
            StatusCode::kInvalidArgument);

  // Duplicate excludes.
  Query dup_exclude = Query::Single(0, 5);
  dup_exclude.exclude = {7, 3, 7};
  const auto dup = engine->Search(dup_exclude);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);

  // Duplicate sources are legal (restart-set semantics dedupe them).
  const auto dup_sources = engine->Search(Query::Personalized({4, 4, 9}, 5));
  EXPECT_TRUE(dup_sources.ok()) << dup_sources.status();
}

// Asserts that `got` is bit-identical (ids, scores and work counts) to
// what a plain searcher over the same graph returns for `query`.
void ExpectMatchesSearcher(core::KDashSearcher& searcher, const Query& query,
                           const SearchResult& got) {
  const SearchResult want = searcher.Search(query);
  ASSERT_EQ(got.top.size(), want.top.size());
  for (std::size_t r = 0; r < want.top.size(); ++r) {
    EXPECT_EQ(got.top[r].node, want.top[r].node) << "rank " << r;
    EXPECT_EQ(got.top[r].score, want.top[r].score) << "rank " << r;
  }
  EXPECT_EQ(got.stats.proximity_computations,
            want.stats.proximity_computations);
  EXPECT_GT(got.stats.proximity_computations, 0);
}

TEST(EngineTest, SearchBatchMatchesSequentialSearch) {
  const auto g = test::RandomDirectedGraph(110, 750, 204);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  const core::KDashIndex index = core::KDashIndex::Build(g, {});
  core::KDashSearcher searcher(&index);

  std::vector<Query> queries;
  for (NodeId q = 0; q < 30; ++q) {
    Query query = Query::Single(q, 6);
    if (q % 3 == 0) query.exclude = {q};
    queries.push_back(query);
  }
  queries.push_back(Query::Personalized({5, 50, 100}, 12));

  const auto batch = engine->SearchBatch(queries);
  ASSERT_TRUE(test::AllOk(batch));
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = engine->Search(queries[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_EQ(batch[i]->top.size(), single->top.size()) << "query " << i;
    for (std::size_t r = 0; r < single->top.size(); ++r) {
      EXPECT_EQ(batch[i]->top[r].node, single->top[r].node);
      EXPECT_DOUBLE_EQ(batch[i]->top[r].score, single->top[r].score);
    }
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectMatchesSearcher(searcher, queries[i], *batch[i]);
  }

  // Three more batches on the same engine: searchers checked back in by
  // one batch serve the next and must keep answering exactly.
  for (NodeId round = 0; round < 3; ++round) {
    std::vector<Query> reuse;
    for (NodeId q = round; q < g.num_nodes(); q += 7) {
      reuse.push_back(Query::Single(q, 5));
    }
    const auto again = engine->SearchBatch(reuse);
    ASSERT_TRUE(test::AllOk(again));
    ASSERT_EQ(again.size(), reuse.size());
    for (std::size_t i = 0; i < reuse.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " query " +
                   std::to_string(i));
      ExpectMatchesSearcher(searcher, reuse[i], *again[i]);
    }
  }

  // An empty batch is a valid, empty answer.
  EXPECT_TRUE(engine->SearchBatch({}).empty());

  // Fewer queries than pool ranks: the idle ranks take no searcher and
  // the two answers still land in input order.
  const std::vector<Query> pair{Query::Single(0, 3), Query::Single(1, 3)};
  const auto two = engine->SearchBatch(pair);
  ASSERT_TRUE(test::AllOk(two));
  ASSERT_EQ(two.size(), 2u);
  for (std::size_t i = 0; i < pair.size(); ++i) {
    SCOPED_TRACE("pair query " + std::to_string(i));
    ExpectMatchesSearcher(searcher, pair[i], *two[i]);
  }

  // Personalized restart sets with repeated sources (each occurrence
  // carries its share of the restart mass).
  const std::vector<Query> personalized{
      Query::Personalized({4, 4, 9}, 6),
      Query::Personalized({7, 30, 7, 30, 7}, 8),
      Query::Personalized({12, 88, 12}, 10)};
  const auto restart_sets = engine->SearchBatch(personalized);
  ASSERT_TRUE(test::AllOk(restart_sets));
  ASSERT_EQ(restart_sets.size(), personalized.size());
  for (std::size_t i = 0; i < personalized.size(); ++i) {
    SCOPED_TRACE("personalized query " + std::to_string(i));
    ExpectMatchesSearcher(searcher, personalized[i], *restart_sets[i]);
  }
}

TEST(EngineTest, SearchBatchAnswersEachQueryOnItsOwn) {
  const auto g = test::RandomDirectedGraph(40, 250, 205);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  // An invalid query between valid ones: the valid ones are answered bit
  // for bit as Search answers them, the invalid one with Search's status.
  Query bad_exclude = Query::Single(3, 5);
  bad_exclude.exclude = {7, 7};
  const std::vector<Query> queries{Query::Single(0, 5), Query::Single(999, 5),
                                   Query::Personalized({1, 2}, 4),
                                   bad_exclude, Query::Single(39, 5)};
  const auto batch = engine->SearchBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const auto single = engine->Search(queries[i]);
    ASSERT_EQ(batch[i].ok(), single.ok());
    if (!single.ok()) {
      EXPECT_EQ(batch[i].status(), single.status());
      continue;
    }
    ASSERT_EQ(batch[i]->top.size(), single->top.size());
    for (std::size_t r = 0; r < single->top.size(); ++r) {
      EXPECT_EQ(batch[i]->top[r].node, single->top[r].node);
      EXPECT_EQ(batch[i]->top[r].score, single->top[r].score);
    }
  }
  EXPECT_EQ(batch[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch[3].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[0].ok() && batch[2].ok() && batch[4].ok());
}

TEST(EngineTest, SearchBatchRecordsWorkHistograms) {
  // One sample per search in engine.nodes_visited and
  // engine.proximity_computations, summing to the answers' SearchStats; an
  // invalid query is not searched and records nothing. Both backends.
  const auto g = test::RandomDirectedGraph(90, 500, 206, 0.3);
  std::vector<Query> queries{Query::Single(999, 5),
                             Query::Personalized({1, 2, 2}, 4)};
  for (NodeId q = 0; q < g.num_nodes(); q += 4) {
    queries.push_back(Query::Single(q, 1 + static_cast<std::size_t>(q) % 9));
  }
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const obs::Histogram& visited = registry.GetHistogram("engine.nodes_visited");
  const obs::Histogram& proximities =
      registry.GetHistogram("engine.proximity_computations");
  for (const EngineOptions& options : {StaticOptions(), UpdatableOptions()}) {
    SCOPED_TRACE(options.updatable ? "updatable" : "static");
    auto engine = Engine::Build(g, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const std::uint64_t visited_count = visited.Count();
    const std::uint64_t visited_sum = visited.Sum();
    const std::uint64_t proximities_count = proximities.Count();
    const std::uint64_t proximities_sum = proximities.Sum();

    const auto batch = engine->SearchBatch(queries);
    ASSERT_FALSE(batch[0].ok());
    std::uint64_t searches = 0, want_visited = 0, want_proximities = 0;
    for (std::size_t i = 1; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status();
      ++searches;
      want_visited += static_cast<std::uint64_t>(batch[i]->stats.nodes_visited);
      want_proximities +=
          static_cast<std::uint64_t>(batch[i]->stats.proximity_computations);
    }
    EXPECT_EQ(visited.Count() - visited_count, searches);
    EXPECT_EQ(visited.Sum() - visited_sum, want_visited);
    EXPECT_EQ(proximities.Count() - proximities_count, searches);
    EXPECT_EQ(proximities.Sum() - proximities_sum, want_proximities);
  }
}

TEST(EngineTest, PersonalizedSearchesRecordTheirOwnLatency) {
  // engine.personalized_search_us takes one sample per search whose query
  // has more than one source; single-source searches leave it alone.
  const auto g = test::RandomDirectedGraph(60, 300, 207);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  const obs::Histogram& personalized =
      obs::MetricRegistry::Global().GetHistogram(
          "engine.personalized_search_us");
  const std::vector<Query> queries{Query::Single(3, 5),
                                   Query::Personalized({4, 9, 17}, 5),
                                   Query::Single(11, 5)};
  const std::uint64_t before = personalized.Count();
  for (const auto& result : engine->SearchBatch(queries)) {
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(personalized.Count() - before, 1u);
}

TEST(EngineTest, SaveOpenRoundTrip) {
  const auto g = test::RandomDirectedGraph(90, 600, 206);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  std::stringstream buffer;
  ASSERT_TRUE(engine->Save(buffer).ok());
  auto reopened = Engine::Open(buffer);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->num_nodes(), engine->num_nodes());

  for (const NodeId q : {0, 30, 89}) {
    const auto a = engine->Search(Query::Single(q, 8));
    const auto b = reopened->Search(Query::Single(q, 8));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->top.size(), b->top.size());
    for (std::size_t i = 0; i < a->top.size(); ++i) {
      EXPECT_EQ(a->top[i].node, b->top[i].node);
      EXPECT_DOUBLE_EQ(a->top[i].score, b->top[i].score);
    }
  }
}

TEST(EngineTest, OpenRecoverableFailures) {
  // Missing file.
  const auto missing = Engine::Open("/nonexistent-dir/no-such.kdash");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Garbage stream.
  std::stringstream garbage("not an index at all");
  EXPECT_EQ(Engine::Open(garbage).status().code(), StatusCode::kDataLoss);

  // Truncated and version-mismatched streams.
  const auto g = test::RandomDirectedGraph(40, 250, 207);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::stringstream buffer;
  ASSERT_TRUE(engine->Save(buffer).ok());
  const std::string full = buffer.str();

  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_EQ(Engine::Open(truncated).status().code(), StatusCode::kDataLoss);

  std::string versioned = full;
  versioned[4] = 77;
  std::stringstream mismatched(versioned);
  EXPECT_EQ(Engine::Open(mismatched).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, StaticEngineRejectsUpdates) {
  const auto g = test::SmallDirectedGraph();
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_FALSE(engine->updatable());
  EXPECT_EQ(engine->AddEdge(0, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->RemoveEdge(0, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineTest, UpdatableEngineServesExactResultsAcrossUpdates) {
  const auto g = test::RandomDirectedGraph(80, 500, 208);
  auto engine = Engine::Build(g, UpdatableOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE(engine->updatable());

  // Before updates: agree with power iteration on the original graph.
  rwr::PowerIterationOptions pi;
  pi.tolerance = 1e-14;
  pi.max_iterations = 20000;
  const auto before = engine->Search(Query::Single(5, 10));
  ASSERT_TRUE(before.ok()) << before.status();
  const auto truth_before =
      rwr::TopKByPowerIteration(g.NormalizedAdjacency(), 5, 10, pi);
  ASSERT_EQ(before->top.size(), truth_before.size());
  for (std::size_t i = 0; i < truth_before.size(); ++i) {
    EXPECT_EQ(before->top[i].node, truth_before[i].node);
    EXPECT_NEAR(before->top[i].score, truth_before[i].score, 1e-9);
  }

  // Mutate, then verify against power iteration on the mutated graph.
  ASSERT_TRUE(engine->AddEdge(5, 70, 10.0).ok());
  graph::GraphBuilder builder(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
      builder.AddEdge(u, nb.node, nb.weight);
    }
  }
  builder.AddEdge(5, 70, 10.0);
  const auto mutated = std::move(builder).Build();

  const auto after = engine->Search(Query::Single(5, 10));
  ASSERT_TRUE(after.ok()) << after.status();
  const auto truth_after =
      rwr::TopKByPowerIteration(mutated.NormalizedAdjacency(), 5, 10, pi);
  ASSERT_EQ(after->top.size(), truth_after.size());
  for (std::size_t i = 0; i < truth_after.size(); ++i) {
    EXPECT_EQ(after->top[i].node, truth_after[i].node);
    EXPECT_NEAR(after->top[i].score, truth_after[i].score, 1e-9);
  }

  // Typed errors from the update path. Pick a (0, dst) pair that is
  // certainly not an edge of the current graph.
  NodeId absent = kInvalidNode;
  for (NodeId dst = 0; dst < g.num_nodes(); ++dst) {
    bool found = false;  // the AddEdge above only touched node 5's edges
    for (const graph::Neighbor& nb : g.OutNeighbors(0)) {
      found |= nb.node == dst;
    }
    if (!found) {
      absent = dst;
      break;
    }
  }
  ASSERT_NE(absent, kInvalidNode);
  EXPECT_EQ(engine->RemoveEdge(0, absent).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine->AddEdge(-1, 0).code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, UpdatableEngineRejectsNonFiniteWeights) {
  // An infinite weight, or finite adds whose total overflows, used to be
  // accepted and made the next Search abort on a singular correction
  // system. Both must be typed errors that leave the graph unchanged.
  const auto g = test::RandomDirectedGraph(6, 12, 211);
  auto engine = Engine::Build(g, UpdatableOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  const auto before = engine->Search(Query::Single(0, 6));
  ASSERT_TRUE(before.ok()) << before.status();

  EXPECT_EQ(engine->AddEdge(0, 3, std::numeric_limits<Scalar>::infinity())
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->AddEdge(0, 3, std::numeric_limits<Scalar>::quiet_NaN())
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine->AddEdge(1, 4, 1e308).ok());
  EXPECT_EQ(engine->AddEdge(1, 4, 1e308).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->AddEdge(1, 5, 1e308).code(),
            StatusCode::kInvalidArgument);

  const auto after = engine->Search(Query::Single(0, 6));
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_FALSE(after->top.empty());
  for (const auto& entry : after->top) {
    EXPECT_TRUE(std::isfinite(entry.score)) << "node " << entry.node;
  }

  // The rejected updates left no trace: an engine that saw only the one
  // accepted add answers identically.
  auto reference = Engine::Build(g, UpdatableOptions());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->AddEdge(1, 4, 1e308).ok());
  const auto expected = reference->Search(Query::Single(0, 6));
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(after->top.size(), expected->top.size());
  for (std::size_t i = 0; i < expected->top.size(); ++i) {
    EXPECT_EQ(after->top[i].node, expected->top[i].node);
    EXPECT_EQ(after->top[i].score, expected->top[i].score);
  }
}

TEST(EngineTest, UpdatableEngineFullQuerySurface) {
  const auto g = test::RandomDirectedGraph(70, 450, 209);
  auto engine = Engine::Build(g, UpdatableOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();

  // Personalized + exclusion on the dynamic backend, checked against the
  // static engine on the same (unmutated) graph.
  auto reference = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(reference.ok()) << reference.status();

  Query query = Query::Personalized({2, 33}, 7);
  query.exclude = {2, 33};
  const auto dynamic_result = engine->Search(query);
  const auto static_result = reference->Search(query);
  ASSERT_TRUE(dynamic_result.ok()) << dynamic_result.status();
  ASSERT_TRUE(static_result.ok()) << static_result.status();
  ASSERT_EQ(dynamic_result->top.size(), static_result->top.size());
  for (std::size_t i = 0; i < static_result->top.size(); ++i) {
    EXPECT_EQ(dynamic_result->top[i].node, static_result->top[i].node);
    EXPECT_NEAR(dynamic_result->top[i].score, static_result->top[i].score,
                1e-9);
  }

  // Batches work on the dynamic backend too.
  std::vector<Query> queries{Query::Single(0, 5), query};
  const auto batch = engine->SearchBatch(queries);
  ASSERT_TRUE(test::AllOk(batch));
  EXPECT_EQ(batch.size(), 2u);

  // Updatable engines cannot persist.
  std::stringstream sink;
  EXPECT_EQ(engine->Save(sink).code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, PruningDiagnosticWorksOnStaticEngine) {
  const auto g = test::RandomDirectedGraph(60, 400, 210);
  auto engine = Engine::Build(g, StaticOptions());
  ASSERT_TRUE(engine.ok()) << engine.status();
  Query no_pruning = Query::Single(0, 5);
  no_pruning.use_pruning = false;
  const auto exhaustive = engine->Search(no_pruning);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
  EXPECT_FALSE(exhaustive->stats.terminated_early);
}

}  // namespace
}  // namespace kdash
