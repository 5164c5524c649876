#include "reorder/reorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "reorder/louvain.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::reorder {
namespace {

void ExpectValidReordering(const Reordering& r, NodeId n) {
  ASSERT_EQ(r.new_of_old.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(r.old_of_new.size(), static_cast<std::size_t>(n));
  sparse::ValidatePermutation(r.new_of_old);
  sparse::ValidatePermutation(r.old_of_new);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(r.old_of_new[static_cast<std::size_t>(
                  r.new_of_old[static_cast<std::size_t>(u)])],
              u);
  }
}

TEST(ReorderTest, IdentityKeepsOrder) {
  const graph::Graph g = test::SmallDirectedGraph();
  const Reordering r = ComputeReordering(g, Method::kIdentity);
  ExpectValidReordering(r, g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(r.new_of_old[static_cast<std::size_t>(u)], u);
  }
}

TEST(ReorderTest, RandomIsValidPermutationAndSeedDependent) {
  const graph::Graph g = test::RandomDirectedGraph(100, 300, 1);
  const Reordering a = ComputeReordering(g, Method::kRandom, 1);
  const Reordering b = ComputeReordering(g, Method::kRandom, 2);
  ExpectValidReordering(a, g.num_nodes());
  ExpectValidReordering(b, g.num_nodes());
  EXPECT_NE(a.new_of_old, b.new_of_old);
  const Reordering a2 = ComputeReordering(g, Method::kRandom, 1);
  EXPECT_EQ(a.new_of_old, a2.new_of_old);
}

TEST(ReorderTest, DegreeOrderIsAscending) {
  const graph::Graph g = test::RandomDirectedGraph(200, 800, 4);
  const Reordering r = ComputeReordering(g, Method::kDegree);
  ExpectValidReordering(r, g.num_nodes());
  for (std::size_t pos = 1; pos < r.old_of_new.size(); ++pos) {
    const NodeId prev = r.old_of_new[pos - 1];
    const NodeId next = r.old_of_new[pos];
    EXPECT_LE(g.Degree(prev), g.Degree(next)) << "position " << pos;
    if (g.Degree(prev) == g.Degree(next)) {
      EXPECT_LT(prev, next) << "tie at position " << pos;
    }
  }
}

TEST(ReorderTest, ClusterProducesDoublyBorderedBlockDiagonal) {
  Rng rng(7);
  const graph::Graph g =
      graph::PlantedPartition(300, 5, 10.0, 0.8, false, rng);
  const Reordering r = ComputeReordering(g, Method::kCluster);
  ExpectValidReordering(r, g.num_nodes());
  ASSERT_GT(r.num_partitions, 1);
  ASSERT_EQ(r.partition_of_node.size(), static_cast<std::size_t>(g.num_nodes()));

  // The defining property (footnote 4 of the paper): no edge may connect
  // two DIFFERENT non-border partitions.
  const NodeId border = r.num_partitions;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId pu = r.partition_of_node[static_cast<std::size_t>(u)];
    for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
      const NodeId pv = r.partition_of_node[static_cast<std::size_t>(nb.node)];
      if (pu != border && pv != border) {
        EXPECT_EQ(pu, pv) << "cross-partition edge " << u << "→" << nb.node;
      }
    }
  }
}

// The border covers the cut: every edge between two Louvain communities
// keeps at least one endpoint in the border, and only nodes on such an edge
// enter it, so the border is a subset of the paper's both-ends border.
TEST(ReorderTest, ClusterBorderIsACoverOfTheCut) {
  constexpr std::uint64_t kSeed = 5;
  Rng rng(11);
  struct Case {
    const char* name;
    graph::Graph graph;
    bool planted;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"planted", graph::PlantedPartition(400, 6, 8.0, 0.6, false, rng), true});
  cases.push_back({"random", test::RandomDirectedGraph(300, 1500, 17), false});
  for (const Case& c : cases) {
    const graph::Graph& g = c.graph;
    LouvainOptions louvain_options;
    louvain_options.seed = kSeed;
    const std::vector<NodeId> community =
        RunLouvain(g, louvain_options).community_of_node;
    const auto crosses = [&](NodeId u, NodeId v) {
      return community[static_cast<std::size_t>(u)] !=
             community[static_cast<std::size_t>(v)];
    };
    for (const Method method : {Method::kCluster, Method::kHybrid}) {
      const Reordering r = ComputeReordering(g, method, kSeed);
      const NodeId border = r.num_partitions;
      const auto in_border = [&](NodeId u) {
        return r.partition_of_node[static_cast<std::size_t>(u)] == border;
      };
      std::size_t border_size = 0;
      std::size_t both_ends_size = 0;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        bool on_cut = false;
        for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
          if (!crosses(u, nb.node)) continue;
          on_cut = true;
          EXPECT_TRUE(in_border(u) || in_border(nb.node))
              << c.name << ": uncovered cut edge " << u << "→" << nb.node;
        }
        for (const graph::Neighbor& nb : g.InNeighbors(u)) {
          on_cut = on_cut || crosses(u, nb.node);
        }
        if (in_border(u)) {
          ++border_size;
          EXPECT_TRUE(on_cut) << c.name << ": border node " << u
                              << " has no cross-community edge";
        } else {
          EXPECT_EQ(r.partition_of_node[static_cast<std::size_t>(u)],
                    community[static_cast<std::size_t>(u)])
              << c.name << ": node " << u;
        }
        both_ends_size += on_cut;
      }
      EXPECT_GT(border_size, 0u) << c.name;
      if (c.planted) {
        EXPECT_LT(border_size, both_ends_size) << c.name;
      }
    }
  }
}

TEST(ReorderTest, ClusterLayoutGroupsPartitionsContiguously) {
  Rng rng(8);
  const graph::Graph g = graph::PlantedPartition(200, 4, 8.0, 0.5, false, rng);
  const Reordering r = ComputeReordering(g, Method::kCluster);
  // Walking old_of_new, the partition label must change at most
  // num_partitions + 1 times (each partition is one contiguous run).
  int changes = 0;
  for (std::size_t pos = 1; pos < r.old_of_new.size(); ++pos) {
    const NodeId prev = r.partition_of_node[static_cast<std::size_t>(
        r.old_of_new[pos - 1])];
    const NodeId curr =
        r.partition_of_node[static_cast<std::size_t>(r.old_of_new[pos])];
    if (prev != curr) ++changes;
  }
  EXPECT_LE(changes, r.num_partitions + 1);
}

TEST(ReorderTest, HybridSortsByDegreeWithinPartitions) {
  Rng rng(9);
  const graph::Graph g = graph::PlantedPartition(240, 4, 9.0, 0.6, false, rng);
  const Reordering r = ComputeReordering(g, Method::kHybrid);
  ExpectValidReordering(r, g.num_nodes());
  for (std::size_t pos = 1; pos < r.old_of_new.size(); ++pos) {
    const NodeId a = r.old_of_new[pos - 1];
    const NodeId b = r.old_of_new[pos];
    if (r.partition_of_node[static_cast<std::size_t>(a)] ==
        r.partition_of_node[static_cast<std::size_t>(b)]) {
      EXPECT_LE(g.Degree(a), g.Degree(b));
    }
  }
}

TEST(ReorderTest, HybridAndClusterShareBorderMembership) {
  Rng rng(10);
  const graph::Graph g = graph::PlantedPartition(200, 4, 8.0, 0.7, false, rng);
  const Reordering cluster = ComputeReordering(g, Method::kCluster, 3);
  const Reordering hybrid = ComputeReordering(g, Method::kHybrid, 3);
  EXPECT_EQ(cluster.partition_of_node, hybrid.partition_of_node);
  EXPECT_EQ(cluster.num_partitions, hybrid.num_partitions);
}

TEST(ReorderTest, MethodNames) {
  EXPECT_EQ(MethodName(Method::kIdentity), "Identity");
  EXPECT_EQ(MethodName(Method::kRandom), "Random");
  EXPECT_EQ(MethodName(Method::kDegree), "Degree");
  EXPECT_EQ(MethodName(Method::kCluster), "Cluster");
  EXPECT_EQ(MethodName(Method::kHybrid), "Hybrid");
}

}  // namespace
}  // namespace kdash::reorder
