#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/random.h"
#include "sparse/coo_builder.h"
#include "test_util.h"

namespace kdash::graph {
namespace {

TEST(GraphTest, BasicShape) {
  const Graph g = test::SmallDirectedGraph();
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 7);
}

TEST(GraphTest, OutNeighborsSortedAndCorrect) {
  const Graph g = test::SmallDirectedGraph();
  const auto nbrs = g.OutNeighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].node, 1);
  EXPECT_EQ(nbrs[1].node, 2);
}

TEST(GraphTest, InNeighbors) {
  const Graph g = test::SmallDirectedGraph();
  const auto in3 = g.InNeighbors(3);
  ASSERT_EQ(in3.size(), 2u);
  EXPECT_EQ(in3[0].node, 1);
  EXPECT_EQ(in3[1].node, 2);
}

TEST(GraphTest, Degrees) {
  const Graph g = test::SmallDirectedGraph();
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(0), 1);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.OutDegree(2), 2);
}

TEST(GraphTest, DuplicateEdgesMergeWeights) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(0, 1, 2.5);
  const Graph g = std::move(builder).Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.OutNeighbors(0)[0].weight, 3.5);
  EXPECT_DOUBLE_EQ(g.OutWeight(0), 3.5);
}

TEST(GraphTest, UndirectedEdgeAddsBothDirections) {
  GraphBuilder builder(3);
  builder.AddUndirectedEdge(0, 2, 1.5);
  const Graph g = std::move(builder).Build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.OutNeighbors(0)[0].node, 2);
  EXPECT_EQ(g.OutNeighbors(2)[0].node, 0);
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(GraphTest, SelfLoopAddedOnceByUndirected) {
  GraphBuilder builder(2);
  builder.AddUndirectedEdge(1, 1, 2.0);
  const Graph g = std::move(builder).Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.OutWeight(1), 2.0);
}

TEST(GraphTest, IsSymmetricDetectsAsymmetry) {
  const Graph g = test::SmallDirectedGraph();
  EXPECT_FALSE(g.IsSymmetric());
}

TEST(GraphTest, IsSymmetricComparesStructureOnly) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 0, 5.0);  // the reverse edge may weigh differently
  builder.AddEdge(2, 2, 0.5);  // a self-loop is its own reverse
  builder.AddEdge(1, 3);
  builder.AddEdge(3, 1);
  EXPECT_TRUE(std::move(builder).Build().IsSymmetric());

  GraphBuilder cycle(3);  // every node has one out- and one in-edge
  cycle.AddEdge(0, 1);
  cycle.AddEdge(1, 2);
  cycle.AddEdge(2, 0);
  EXPECT_FALSE(std::move(cycle).Build().IsSymmetric());
}

TEST(GraphTest, NormalizedAdjacencyColumnsAreStochastic) {
  const Graph g = test::SmallDirectedGraph();
  const auto a = g.NormalizedAdjacency();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Scalar sum = 0.0;
    for (Index k = a.ColBegin(v); k < a.ColEnd(v); ++k) sum += a.Value(k);
    if (g.OutDegree(v) > 0) {
      EXPECT_NEAR(sum, 1.0, 1e-12) << "column " << v;
    } else {
      EXPECT_DOUBLE_EQ(sum, 0.0);
    }
  }
}

TEST(GraphTest, NormalizedAdjacencyRespectsWeights) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1, 3.0);
  builder.AddEdge(0, 2, 1.0);
  const Graph g = std::move(builder).Build();
  const auto a = g.NormalizedAdjacency();
  EXPECT_DOUBLE_EQ(a.At(1, 0), 0.75);
  EXPECT_DOUBLE_EQ(a.At(2, 0), 0.25);
}

TEST(GraphTest, DanglingNodeHasZeroColumn) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 2);
  const Graph g = std::move(builder).Build();
  const auto a = g.NormalizedAdjacency();
  EXPECT_EQ(a.ColNnz(1), 0);
  EXPECT_EQ(a.ColNnz(2), 0);
  const auto stats = ComputeStats(g);
  EXPECT_EQ(stats.num_dangling, 2);
}

TEST(GraphTest, ComputeStats) {
  const Graph g = test::SmallDirectedGraph();
  const GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_nodes, 5);
  EXPECT_EQ(stats.num_edges, 7);
  EXPECT_EQ(stats.max_out_degree, 2);
  EXPECT_EQ(stats.num_dangling, 0);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 7.0 / 5.0);
}

// With three or more copies of an edge, the merged weight depends on the
// order the copies are summed in; both adjacency lists must carry the one
// sum.
TEST(GraphTest, MergedDuplicateEdgeHasOneWeight) {
  GraphBuilder builder(40);
  Rng rng(1);
  for (int e = 0; e < 400; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(40));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(40));
    builder.AddEdge(u, v, 0.1 + 0.7 * rng.NextDouble());
  }
  const Graph g = std::move(builder).Build();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Neighbor& out : g.OutNeighbors(u)) {
      const auto in = g.InNeighbors(out.node);
      const auto mirror = std::ranges::find(in, u, &Neighbor::node);
      ASSERT_NE(mirror, in.end()) << u << "->" << out.node;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mirror->weight),
                std::bit_cast<std::uint64_t>(out.weight))
          << u << "->" << out.node;
    }
  }
}

// A graph with a dangling node (3), a self-loop (1→1) and a duplicate edge.
Graph DanglingSelfLoopGraph() {
  GraphBuilder builder(5);
  builder.AddEdge(0, 2, 0.3);
  builder.AddEdge(0, 1, 1.1);
  builder.AddEdge(1, 1, 0.7);
  builder.AddEdge(1, 4, 0.9);
  builder.AddEdge(2, 0, 2.0);
  builder.AddEdge(4, 3, 0.6);
  builder.AddEdge(4, 0, 0.2);
  builder.AddEdge(0, 2, 0.45);
  return std::move(builder).Build();
}

TEST(GraphTest, NormalizedAdjacencyMatchesCooAssembly) {
  const Graph g = DanglingSelfLoopGraph();
  sparse::CooBuilder oracle(g.num_nodes(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Neighbor& nb : g.OutNeighbors(v)) {
      oracle.Add(nb.node, v, nb.weight / g.OutWeight(v));
    }
  }
  const sparse::CscMatrix a = g.NormalizedAdjacency();
  EXPECT_EQ(a.ColNnz(3), 0);
  EXPECT_TRUE(test::SameCscBits(a, oracle.BuildCsc()));
}

TEST(GraphTest, InNeighborsAreTheTransposedOutNeighbors) {
  for (const Graph& g :
       {DanglingSelfLoopGraph(), test::RandomDirectedGraph(60, 400, 5, 0.2)}) {
    sparse::CooBuilder out_lists(g.num_nodes(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const Neighbor& nb : g.OutNeighbors(v)) {
        out_lists.Add(nb.node, v, nb.weight);
      }
    }
    const sparse::CscMatrix in_lists = out_lists.BuildCsc().Transposed();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto in = g.InNeighbors(u);
      ASSERT_EQ(static_cast<Index>(in.size()), in_lists.ColNnz(u)) << u;
      for (std::size_t i = 0; i < in.size(); ++i) {
        const Index k = in_lists.ColBegin(u) + static_cast<Index>(i);
        EXPECT_EQ(in[i].node, in_lists.RowIndex(k)) << u;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(in[i].weight),
                  std::bit_cast<std::uint64_t>(in_lists.Value(k)))
            << u;
      }
    }
  }
}

TEST(GraphTest, DescribeGraphMentionsCounts) {
  const Graph g = test::SmallDirectedGraph();
  const std::string description = DescribeGraph(g);
  EXPECT_NE(description.find("n=5"), std::string::npos);
  EXPECT_NE(description.find("m=7"), std::string::npos);
}

}  // namespace
}  // namespace kdash::graph
