#include "graph/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "graph/bfs.h"

namespace kdash::graph {
namespace {

TEST(GeneratorsTest, GeneratorsAreDeterministic) {
  Rng rng_a(7), rng_b(7);
  const Graph a = BarabasiAlbert(200, 3, rng_a);
  const Graph b = BarabasiAlbert(200, 3, rng_b);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.OutNeighbors(u);
    const auto nb = b.OutNeighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(GeneratorsTest, BarabasiAlbertConnectedAndPowerLawish) {
  Rng rng(11);
  const NodeId n = 1000;
  const Graph g = BarabasiAlbert(n, 2, rng);
  EXPECT_TRUE(g.IsSymmetric());
  // Connected: BFS from 0 reaches everything (BA attaches to the giant).
  const BfsTree tree = BreadthFirstTree(g, 0);
  EXPECT_EQ(static_cast<NodeId>(tree.order.size()), n);
  // Heavy tail: the max degree should far exceed the average.
  Index max_degree = 0;
  for (NodeId u = 0; u < n; ++u) max_degree = std::max(max_degree, g.OutDegree(u));
  const double avg = static_cast<double>(g.num_edges()) / n;
  EXPECT_GT(static_cast<double>(max_degree), 8.0 * avg);
}

TEST(GeneratorsTest, PowerLawClusterDirectedHasOneWayEdges) {
  Rng rng(13);
  const Graph g = PowerLawCluster(500, 4, 0.5, /*directed=*/true,
                                  /*one_way_prob=*/0.5, rng);
  EXPECT_FALSE(g.IsSymmetric());
  EXPECT_GT(g.num_edges(), 500);
}

TEST(GeneratorsTest, PowerLawClusterUndirectedSymmetric) {
  Rng rng(14);
  const Graph g = PowerLawCluster(300, 3, 0.6, /*directed=*/false, 0.0, rng);
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(GeneratorsTest, WattsStrogatzDegreeConcentration) {
  Rng rng(15);
  const NodeId n = 400;
  const Graph g = WattsStrogatz(n, 3, 0.1, rng);
  EXPECT_TRUE(g.IsSymmetric());
  // Expected average degree 2k = 6 (up to rewiring collisions).
  const double avg_degree = 2.0 * static_cast<double>(g.num_edges()) / 2.0 / n;
  EXPECT_NEAR(avg_degree, 6.0, 0.5);
}

TEST(GeneratorsTest, PlantedPartitionCommunitiesDenserInside) {
  Rng rng(16);
  const NodeId n = 600;
  const NodeId communities = 6;
  const Graph g = PlantedPartition(n, communities, 8.0, 1.0, false, rng);
  const NodeId size = n / communities;
  Index within = 0, cross = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : g.OutNeighbors(u)) {
      if (u / size == nb.node / size) {
        ++within;
      } else {
        ++cross;
      }
    }
  }
  EXPECT_GT(within, 4 * cross);
}

TEST(GeneratorsTest, PlantedPartitionWeightedHasFractionalWeights) {
  Rng rng(17);
  const Graph g = PlantedPartition(200, 4, 5.0, 1.0, /*weighted=*/true, rng);
  bool saw_fraction = false;
  for (NodeId u = 0; u < g.num_nodes() && !saw_fraction; ++u) {
    for (const Neighbor& nb : g.OutNeighbors(u)) {
      if (nb.weight < 1.0) {
        saw_fraction = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_fraction);
}

TEST(GeneratorsTest, DirectedScaleFreeGrowsToTargetAndIsSkewed) {
  Rng rng(18);
  const NodeId n = 2000;
  const Graph g = DirectedScaleFree(n, 0.42, 0.36, 0.22, 0.2, 0.1, rng);
  EXPECT_EQ(g.num_nodes(), n);
  Index max_in = 0;
  NodeId leaves = 0;
  for (NodeId u = 0; u < n; ++u) {
    max_in = std::max(max_in, g.InDegree(u));
    if (g.Degree(u) <= 1) ++leaves;
  }
  const double avg_in = static_cast<double>(g.num_edges()) / n;
  EXPECT_GT(static_cast<double>(max_in), 20.0 * avg_in);  // heavy tail
  EXPECT_GT(leaves, n / 20);                              // many leaves
}

TEST(GeneratorsTest, RMatShapeAndSkew) {
  Rng rng(19);
  const Graph g = RMat(10, 6 * 1024, 0.57, 0.19, 0.19, 0.05, rng);
  EXPECT_EQ(g.num_nodes(), 1024);
  EXPECT_GT(g.num_edges(), 5 * 1024);  // some duplicates rejected
  Index max_out = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_out = std::max(max_out, g.OutDegree(u));
  }
  EXPECT_GT(max_out, 40);  // skewed quadrant probabilities concentrate edges
}

TEST(GeneratorsTest, BipartiteRatingsOnlyUserItemEdges) {
  Rng rng(20);
  const NodeId users = 50, items = 100;
  const Graph g = BipartiteRatings(users, items, 400, rng);
  EXPECT_EQ(g.num_nodes(), users + items);
  for (NodeId u = 0; u < users; ++u) {
    for (const Neighbor& nb : g.OutNeighbors(u)) {
      EXPECT_GE(nb.node, users);  // users only rate items
      EXPECT_GE(nb.weight, 1.0);
      EXPECT_LE(nb.weight, 5.0);
    }
  }
  for (NodeId i = users; i < users + items; ++i) {
    for (const Neighbor& nb : g.OutNeighbors(i)) EXPECT_LT(nb.node, users);
  }
}

}  // namespace
}  // namespace kdash::graph
