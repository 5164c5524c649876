#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "test_util.h"

namespace kdash::graph {
namespace {

TEST(IoTest, ReadBasicEdgeList) {
  std::istringstream in("0 1\n1 2 2.5\n# comment line\n2 0\n");
  const Graph g = ReadEdgeList(in, /*undirected=*/false).value();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.OutNeighbors(1)[0].weight, 2.5);
}

TEST(IoTest, ReadDensifiesSparseIds) {
  std::istringstream in("100 2000\n2000 30000\n");
  const Graph g = ReadEdgeList(in, false).value();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(IoTest, ReadUndirectedMirrorsEdges) {
  std::istringstream in("0 1\n1 2\n");
  const Graph g = ReadEdgeList(in, /*undirected=*/true).value();
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(IoTest, InlineCommentsAndBlankLines) {
  std::istringstream in("\n0 1 # trailing comment\n\n# full comment\n1 0\n");
  const Graph g = ReadEdgeList(in, false).value();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(IoTest, WriteReadRoundTrip) {
  // A weighted graph too: weights must survive the text form bit for bit,
  // including ones with no short decimal expansion.
  GraphBuilder weighted(3);
  weighted.AddEdge(0, 1, 1.0 / 3.0);
  weighted.AddEdge(1, 2, 0.1);
  weighted.AddEdge(2, 0, 1.0 / 7.0);
  weighted.AddEdge(2, 1, 2.0);
  for (const Graph& g :
       {test::SmallDirectedGraph(), std::move(weighted).Build()}) {
    std::ostringstream out;
    ASSERT_TRUE(WriteEdgeList(g, out).ok());
    std::istringstream in(out.str());
    const Graph round = ReadEdgeList(in, false).value();
    ASSERT_EQ(round.num_nodes(), g.num_nodes());
    ASSERT_EQ(round.num_edges(), g.num_edges());
    // Node ids are assigned by first appearance, which for a full write in
    // id order preserves ids; adjacency must match exactly.
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto a = g.OutNeighbors(u);
      const auto b = round.OutNeighbors(u);
      ASSERT_EQ(a.size(), b.size()) << "node " << u;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].weight, b[i].weight) << "edge " << u << "->" << a[i].node;
      }
    }
  }
}

TEST(IoTest, FileRoundTrip) {
  const Graph g = test::RandomDirectedGraph(30, 90, 4);
  const std::string path = ::testing::TempDir() + "/kdash_io_test.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  const Graph round = ReadEdgeListFile(path, false).value();
  EXPECT_EQ(round.num_edges(), g.num_edges());
}

TEST(IoTest, UnwritablePathIsAnError) {
  const Graph g = test::SmallDirectedGraph();
  const std::string path = ::testing::TempDir() + "/kdash_no_such_dir/e.txt";
  EXPECT_EQ(WriteEdgeListFile(g, path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IoTest, ReadAcceptsTabsAndCrlf) {
  std::istringstream in("0\t1\r\n1 \t 2\t0.5\r\n");
  const Graph g = ReadEdgeList(in, false).value();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.OutNeighbors(1)[0].weight, 0.5);
}

TEST(IoTest, MissingFileIsNotFound) {
  const auto loaded = ReadEdgeListFile(
      ::testing::TempDir() + "/kdash_no_such_edges.txt", false);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(IoTest, MalformedLinesAreDataLossNamingTheLine) {
  for (const char* bad : {
           "3 x",                      // non-numeric id
           "3",                        // one field
           "5 6 7 8",                  // four fields
           "+3 4",                     // leading '+'
           "9 -1",                     // negative id
           "3 4x",                     // trailing junk
           "99999999999999999999 1",   // id above LLONG_MAX
           "0 1 0",                    // zero weight
           "0 1 -2.5",                 // negative weight
           "0 1 inf",                  // non-finite weight
           "0 1 nan",                  // non-finite weight
           "0 1 1e999",                // weight overflows a double
       }) {
    std::istringstream in(std::string("0 1\n# comment\n") + bad + "\n");
    const auto loaded = ReadEdgeList(in, false);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos)
        << loaded.status();
  }
}

TEST(IoTest, WeightSumsThatOverflowAreDataLossNamingTheNode) {
  // Each weight is finite, but a merged duplicate edge or a node's
  // out-weight total overflows to +inf; the node is named by its file id.
  for (const auto& [edges, want] : {
           std::pair<const char*, const char*>{
               "7 1 1e308\n7 1 1e308\n1 7 1\n", "out-weight total of node 7"},
           {"1 0 1\n7 1 1e308\n7 2 1e308\n", "out-weight total of node 7"},
       }) {
    std::istringstream in(edges);
    const auto loaded = ReadEdgeList(in, false);
    ASSERT_FALSE(loaded.ok()) << edges;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << edges;
    EXPECT_NE(loaded.status().message().find(want), std::string::npos)
        << loaded.status();
  }
}

}  // namespace
}  // namespace kdash::graph
