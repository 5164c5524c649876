// DynamicKDash: exact RWR under edge insertions/deletions (Woodbury
// correction over the base factorization), verified against rebuilding
// from scratch and against power iteration on the mutated graph.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dynamic.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

// Ground truth on an explicitly mutated copy of the graph.
std::vector<Scalar> TruthAfterMutations(
    const graph::Graph& original,
    const std::vector<std::tuple<NodeId, NodeId, Scalar>>& additions,
    const std::vector<std::pair<NodeId, NodeId>>& removals, NodeId query,
    Scalar c) {
  graph::GraphBuilder builder(original.num_nodes());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    for (const graph::Neighbor& nb : original.OutNeighbors(u)) {
      bool removed = false;
      for (const auto& [src, dst] : removals) {
        if (src == u && dst == nb.node) {
          removed = true;
          break;
        }
      }
      if (!removed) builder.AddEdge(u, nb.node, nb.weight);
    }
  }
  for (const auto& [src, dst, weight] : additions) {
    builder.AddEdge(src, dst, weight);
  }
  const auto mutated = std::move(builder).Build();
  rwr::PowerIterationOptions options;
  options.restart_prob = c;
  options.tolerance = 1e-14;
  options.max_iterations = 20000;
  return rwr::SolveRwr(mutated.NormalizedAdjacency(), query, options).proximity;
}

TEST(DynamicTest, NoUpdatesMatchesStaticSolve) {
  const auto g = test::RandomDirectedGraph(80, 500, 11);
  DynamicKDash dynamic(g, 0.95);
  const auto p = dynamic.Solve({5});
  const auto truth = rwr::SolveRwr(g.NormalizedAdjacency(), 5, {});
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth.proximity[u], 1e-9);
  }
  EXPECT_EQ(dynamic.pending_columns(), 0);
}

TEST(DynamicTest, SingleEdgeAdditionExact) {
  const auto g = test::RandomDirectedGraph(60, 350, 12);
  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.AddEdge(3, 40, 2.0).ok());
  EXPECT_EQ(dynamic.pending_columns(), 1);

  const auto p = dynamic.Solve({3});
  const auto truth = TruthAfterMutations(g, {{3, 40, 2.0}}, {}, 3, 0.95);
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth[u], 1e-9) << "u=" << u;
  }
}

TEST(DynamicTest, EdgeRemovalExact) {
  const auto g = test::RandomDirectedGraph(60, 350, 13);
  // Pick an existing edge to remove.
  const NodeId src = 7;
  ASSERT_GT(g.OutDegree(src), 0);
  const NodeId dst = g.OutNeighbors(src)[0].node;

  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.RemoveEdge(src, dst).ok());
  const auto p = dynamic.Solve({src});
  const auto truth = TruthAfterMutations(g, {}, {{src, dst}}, src, 0.95);
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth[u], 1e-9) << "u=" << u;
  }
}

TEST(DynamicTest, ManyMixedUpdatesExact) {
  const auto g = test::RandomDirectedGraph(100, 700, 14);
  DynamicKDash dynamic(g, 0.95);  // 20 writes stay in the correction

  Rng rng(15);
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  for (int e = 0; e < 20; ++e) {
    const NodeId src = rng.NextNode(100);
    const NodeId dst = rng.NextNode(100);
    if (src == dst) continue;
    const Scalar weight = 0.5 + rng.NextDouble();
    ASSERT_TRUE(dynamic.AddEdge(src, dst, weight).ok());
    additions.emplace_back(src, dst, weight);
  }
  EXPECT_EQ(dynamic.rebuild_count(), 1);  // only the constructor's build

  for (const NodeId q : {0, 33, 99}) {
    const auto p = dynamic.Solve({q});
    const auto truth = TruthAfterMutations(g, additions, {}, q, 0.95);
    for (std::size_t u = 0; u < p.size(); ++u) {
      EXPECT_NEAR(p[u], truth[u], 1e-8) << "q=" << q << " u=" << u;
    }
  }
}

TEST(DynamicTest, AutoRebuildKicksIn) {
  const auto g = test::RandomDirectedGraph(200, 1200, 16);
  DynamicKDash dynamic(g, 0.95);
  // One edge out of each of kMaxPendingColumns + 8 distinct sources.
  for (NodeId src = 0; src < kMaxPendingColumns + 8; ++src) {
    ASSERT_TRUE(dynamic.AddEdge(src, (src + 100) % 200, 1.0).ok());
  }
  EXPECT_GT(dynamic.rebuild_count(), 1);
  EXPECT_LE(dynamic.pending_columns(), kMaxPendingColumns);
}

TEST(DynamicTest, ManualRebuildPreservesAnswers) {
  const auto g = test::RandomDirectedGraph(70, 400, 18);
  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.AddEdge(1, 50, 3.0).ok());
  ASSERT_TRUE(dynamic.AddEdge(2, 60, 1.5).ok());
  const auto before = dynamic.Solve({1});
  dynamic.Rebuild();
  EXPECT_EQ(dynamic.pending_columns(), 0);
  const auto after = dynamic.Solve({1});
  for (std::size_t u = 0; u < before.size(); ++u) {
    EXPECT_NEAR(before[u], after[u], 1e-9);
  }
}

TEST(DynamicTest, TopKTracksUpdates) {
  // Adding a strong edge from the query must promote the target node.
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  DynamicKDash dynamic(g, 0.95);
  const NodeId query = 4;
  const NodeId target = 77;

  const auto before = dynamic.Search(Query::Single(query, 5)).top;
  bool target_in_before = false;
  for (const auto& entry : before) target_in_before |= entry.node == target;
  EXPECT_FALSE(target_in_before);

  // Dominate the query's out-mass.
  ASSERT_TRUE(dynamic.AddEdge(query, target, 500.0).ok());
  const auto after = dynamic.Search(Query::Single(query, 5)).top;
  ASSERT_GE(after.size(), 2u);
  EXPECT_EQ(after[0].node, query);
  EXPECT_EQ(after[1].node, target);
}

TEST(DynamicTest, SearchReportsAFullScanAndHonorsExclude) {
  // The solve is global, so the stats count every node; excluded nodes
  // never come back, and the rest keep their exact ranking.
  const auto g = test::RandomDirectedGraph(60, 350, 20);
  DynamicKDash dynamic(g, 0.95);
  const auto full = dynamic.Search(Query::Personalized({2, 9}, 6));
  EXPECT_EQ(full.stats.nodes_visited, g.num_nodes());
  EXPECT_EQ(full.stats.proximity_computations, g.num_nodes());
  EXPECT_EQ(full.stats.tree_size, g.num_nodes());
  EXPECT_FALSE(full.stats.terminated_early);
  ASSERT_EQ(full.top.size(), 6u);

  Query query = Query::Personalized({2, 9}, 5);
  query.exclude = {full.top[0].node};
  const auto excluded = dynamic.Search(query);
  ASSERT_EQ(excluded.top.size(), 5u);
  for (std::size_t r = 0; r < excluded.top.size(); ++r) {
    EXPECT_EQ(excluded.top[r].node, full.top[r + 1].node) << "rank " << r;
    EXPECT_EQ(excluded.top[r].score, full.top[r + 1].score) << "rank " << r;
  }
}

TEST(DynamicTest, RemoveNonexistentEdgeIsNotFound) {
  const auto g = test::SmallDirectedGraph();
  DynamicKDash dynamic(g, 0.95);
  const Status status = dynamic.RemoveEdge(0, 4);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("does not exist"), std::string::npos);
}

TEST(DynamicTest, OutOfRangeEdgeUpdatesAreInvalidArgument) {
  const auto g = test::SmallDirectedGraph();
  DynamicKDash dynamic(g, 0.95);
  EXPECT_EQ(dynamic.AddEdge(-1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.AddEdge(0, g.num_nodes()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.AddEdge(0, 1, -2.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.RemoveEdge(g.num_nodes(), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(DynamicTest, MultiSourceSolveMatchesAverageOfSolves) {
  const auto g = test::RandomDirectedGraph(70, 400, 21);
  DynamicKDash dynamic(g, 0.95);
  // Exercise the correction path too.
  ASSERT_TRUE(dynamic.AddEdge(2, 30, 1.5).ok());
  const std::vector<NodeId> sources{3, 10, 44};
  const auto personalized = dynamic.Solve(sources);
  std::vector<Scalar> average(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (const NodeId s : sources) {
    const auto p = dynamic.Solve({s});
    for (std::size_t u = 0; u < p.size(); ++u) {
      average[u] += p[u] / static_cast<Scalar>(sources.size());
    }
  }
  for (std::size_t u = 0; u < average.size(); ++u) {
    EXPECT_NEAR(personalized[u], average[u], 1e-10) << "u=" << u;
  }
}

}  // namespace
}  // namespace kdash::core
