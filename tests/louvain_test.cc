#include "reorder/louvain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "test_util.h"

namespace kdash::reorder {
namespace {

TEST(LouvainTest, TwoCliquesWithBridgeSplitIntoTwoCommunities) {
  // Two 5-cliques joined by one edge: the textbook Louvain input.
  graph::GraphBuilder builder(10);
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b < 5; ++b) {
      builder.AddUndirectedEdge(a, b);
      builder.AddUndirectedEdge(static_cast<NodeId>(a + 5),
                                static_cast<NodeId>(b + 5));
    }
  }
  builder.AddUndirectedEdge(0, 5);
  const graph::Graph g = std::move(builder).Build();

  const LouvainResult result = RunLouvain(g);
  EXPECT_EQ(result.num_communities, 2);
  for (NodeId u = 1; u < 5; ++u) {
    EXPECT_EQ(result.community_of_node[static_cast<std::size_t>(u)],
              result.community_of_node[0]);
  }
  for (NodeId u = 6; u < 10; ++u) {
    EXPECT_EQ(result.community_of_node[static_cast<std::size_t>(u)],
              result.community_of_node[5]);
  }
  EXPECT_NE(result.community_of_node[0], result.community_of_node[5]);
  EXPECT_GT(Modularity(g, result.community_of_node), 0.3);
}

TEST(LouvainTest, LabelsAreDense) {
  const graph::Graph g = test::RandomDirectedGraph(120, 500, 3);
  const LouvainResult result = RunLouvain(g);
  std::vector<bool> seen(static_cast<std::size_t>(result.num_communities), false);
  for (const NodeId c : result.community_of_node) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, result.num_communities);
    seen[static_cast<std::size_t>(c)] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(LouvainTest, PlantedPartitionRecovered) {
  Rng rng(5);
  const NodeId n = 500, communities = 5;
  const graph::Graph g =
      graph::PlantedPartition(n, communities, 12.0, 0.5, false, rng);
  const LouvainResult result = RunLouvain(g);
  // Louvain should recover a high-modularity partition close to the planted
  // one (it may merge/split a little, so allow a range).
  EXPECT_GE(result.num_communities, 3);
  EXPECT_LE(result.num_communities, 12);
  EXPECT_GT(Modularity(g, result.community_of_node), 0.5);

  // Agreement: most pairs within a planted block share a label.
  const NodeId block = n / communities;
  Index agree = 0, total = 0;
  for (NodeId u = 0; u < n; u += 7) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < n; v += 13) {
      if (u / block != v / block) continue;
      ++total;
      if (result.community_of_node[static_cast<std::size_t>(u)] ==
          result.community_of_node[static_cast<std::size_t>(v)]) {
        ++agree;
      }
    }
  }
  EXPECT_GT(static_cast<double>(agree), 0.8 * static_cast<double>(total));
}

TEST(LouvainTest, ModularityBeatsSingletons) {
  const graph::Graph g = test::RandomDirectedGraph(150, 700, 9);
  const LouvainResult result = RunLouvain(g);

  std::vector<NodeId> singletons(static_cast<std::size_t>(g.num_nodes()));
  std::iota(singletons.begin(), singletons.end(), 0);
  EXPECT_GE(Modularity(g, result.community_of_node), Modularity(g, singletons));
}

TEST(LouvainTest, SingletonModularityOfCliqueIsNegative) {
  graph::GraphBuilder builder(4);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b < 4; ++b) {
      builder.AddUndirectedEdge(a, b);
    }
  }
  const graph::Graph g = std::move(builder).Build();
  const std::vector<NodeId> singletons{0, 1, 2, 3};
  EXPECT_LT(Modularity(g, singletons), 0.0);
  // All-in-one community has modularity 0.
  const std::vector<NodeId> one{0, 0, 0, 0};
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(LouvainTest, EdgelessGraphReturnsSingletons) {
  graph::GraphBuilder builder(5);
  const graph::Graph g = std::move(builder).Build();
  const LouvainResult result = RunLouvain(g);
  EXPECT_EQ(result.num_communities, 5);
}

TEST(LouvainTest, DeterministicGivenSeed) {
  const graph::Graph g = test::RandomDirectedGraph(200, 900, 10);
  // The legacy algorithm's visit order follows the seed: one seed repeats
  // its labels.
  LouvainOptions legacy;
  legacy.algorithm = LouvainOptions::Algorithm::kLegacySequential;
  legacy.seed = 17;
  EXPECT_EQ(RunLouvain(g, legacy).community_of_node,
            RunLouvain(g, legacy).community_of_node);
  // The default algorithm reads no seed: any two give the same labels.
  LouvainOptions a;
  a.seed = 17;
  LouvainOptions b;
  b.seed = 18;
  EXPECT_EQ(RunLouvain(g, a).community_of_node,
            RunLouvain(g, b).community_of_node);
}

TEST(LouvainTest, WeightsInfluencePartition) {
  // A 6-cycle with two heavy triangles: weights must pull the triangles
  // together.
  graph::GraphBuilder builder(6);
  builder.AddUndirectedEdge(0, 1, 10.0);
  builder.AddUndirectedEdge(1, 2, 10.0);
  builder.AddUndirectedEdge(2, 0, 10.0);
  builder.AddUndirectedEdge(3, 4, 10.0);
  builder.AddUndirectedEdge(4, 5, 10.0);
  builder.AddUndirectedEdge(5, 3, 10.0);
  builder.AddUndirectedEdge(2, 3, 0.1);
  builder.AddUndirectedEdge(5, 0, 0.1);
  const graph::Graph g = std::move(builder).Build();
  const LouvainResult result = RunLouvain(g);
  EXPECT_EQ(result.num_communities, 2);
  EXPECT_EQ(result.community_of_node[0], result.community_of_node[1]);
  EXPECT_EQ(result.community_of_node[3], result.community_of_node[4]);
  EXPECT_NE(result.community_of_node[0], result.community_of_node[3]);
}

}  // namespace
}  // namespace kdash::reorder
