// Adversarial graph shapes and edge cases for the full K-dash pipeline.
#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

void ExpectExact(const graph::Graph& g, NodeId query, std::size_t k,
                 const std::string& label, Scalar c = 0.95) {
  KDashOptions options;
  options.restart_prob = c;
  const auto index = KDashIndex::Build(g, options);
  KDashSearcher searcher(&index);
  const auto got = searcher.Search(Query::Single(query, k)).top;

  rwr::PowerIterationOptions pi;
  pi.restart_prob = c;
  pi.tolerance = 1e-14;
  pi.max_iterations = 50000;
  auto truth = rwr::TopKByPowerIteration(g.NormalizedAdjacency(), query, k, pi);
  while (!truth.empty() && truth.back().score < 1e-13) truth.pop_back();

  ASSERT_EQ(got.size(), truth.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, truth[i].score, 1e-9)
        << label << " rank " << i;
  }
}

TEST(StressTest, StarGraphHubQuery) {
  // One hub, 500 leaves pointing both ways. Amax = 1 (every leaf's single
  // out-edge), the worst case for the estimator's third term.
  graph::GraphBuilder builder(501);
  for (NodeId leaf = 1; leaf <= 500; ++leaf) {
    builder.AddUndirectedEdge(0, leaf);
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 10, "star-hub");
  ExpectExact(g, 250, 10, "star-leaf");
}

TEST(StressTest, LongChain) {
  // 2000-node path: BFS layers are singletons, maximal tree depth.
  const NodeId n = 2000;
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    builder.AddEdge(u, static_cast<NodeId>(u + 1));
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 5, "chain-head");
  ExpectExact(g, n / 2, 5, "chain-middle");

  // The chain's proximities decay geometrically; pruning must terminate
  // after a handful of layers rather than walking all 2000.
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const SearchStats stats = searcher.Search(Query::Single(0, 5)).stats;
  EXPECT_LT(stats.nodes_visited, 50);
}

TEST(StressTest, CompleteGraph) {
  const NodeId n = 60;
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) builder.AddEdge(u, v);
    }
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 7, 10, "complete");
}

TEST(StressTest, LollipopGraph) {
  // Dense clique with a long tail — mixes both extremes.
  const NodeId clique = 30, tail = 200;
  graph::GraphBuilder builder(clique + tail);
  for (NodeId a = 0; a < clique; ++a) {
    for (NodeId b = 0; b < clique; ++b) {
      if (a != b) builder.AddEdge(a, b);
    }
  }
  builder.AddUndirectedEdge(clique - 1, clique);
  for (NodeId t = clique; t + 1 < clique + tail; ++t) {
    builder.AddUndirectedEdge(t, static_cast<NodeId>(t + 1));
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 8, "lollipop-clique");
  ExpectExact(g, clique + tail / 2, 8, "lollipop-tail");
}

TEST(StressTest, BinaryTree) {
  const NodeId n = 1023;  // full tree of depth 9
  graph::GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) {
    builder.AddUndirectedEdge(u, static_cast<NodeId>((u - 1) / 2));
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 12, "tree-root");
  ExpectExact(g, n - 1, 12, "tree-leaf");
}

TEST(StressTest, ExtremeWeightRatios) {
  // Weights spanning 12 orders of magnitude stress the normalization and
  // the LU pivots.
  Rng rng(7);
  graph::GraphBuilder builder(80);
  for (int e = 0; e < 500; ++e) {
    const NodeId u = rng.NextNode(80);
    const NodeId v = rng.NextNode(80);
    if (u == v) continue;
    const Scalar weight = std::pow(10.0, rng.NextDouble() * 12.0 - 6.0);
    builder.AddEdge(u, v, weight);
  }
  const auto g = std::move(builder).Build();
  ExpectExact(g, 11, 10, "extreme-weights");
}

TEST(StressTest, VeryLowRestartProbability) {
  // c = 0.05: proximity mass spreads widely; pruning barely helps but
  // exactness must hold.
  const auto g = test::RandomDirectedGraph(150, 900, 9);
  ExpectExact(g, 42, 10, "low-restart", 0.05);
}

TEST(StressTest, TwoNodeGraph) {
  graph::GraphBuilder builder(2);
  builder.AddUndirectedEdge(0, 1);
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 2, "two-node");
}

TEST(StressTest, SelfLoopOnlyQueryNode) {
  graph::GraphBuilder builder(3);
  builder.AddEdge(0, 0, 2.0);  // query walks to itself
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 2, 1.0);
  const auto g = std::move(builder).Build();
  ExpectExact(g, 0, 3, "self-loop-query");
}

TEST(StressTest, RepeatedBuildsAreIdentical) {
  const auto g = test::RandomDirectedGraph(120, 700, 10);
  const auto a = KDashIndex::Build(g, {});
  const auto b = KDashIndex::Build(g, {});
  EXPECT_EQ(a.new_of_old(), b.new_of_old());
  EXPECT_EQ(a.lower_inverse(), b.lower_inverse());
  EXPECT_EQ(a.upper_inverse(), b.upper_inverse());
}

}  // namespace
}  // namespace kdash::core
