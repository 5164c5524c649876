#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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
  const Graph g = test::SmallDirectedGraph();
  std::ostringstream out;
  WriteEdgeList(g, out);
  std::istringstream in(out.str());
  const Graph round = ReadEdgeList(in, false).value();
  ASSERT_EQ(round.num_nodes(), g.num_nodes());
  ASSERT_EQ(round.num_edges(), g.num_edges());
  // Node ids are assigned by first appearance, which for a full write in id
  // order preserves ids; adjacency must match exactly.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.OutNeighbors(u);
    const auto b = round.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST(IoTest, FileRoundTrip) {
  const Graph g = test::RandomDirectedGraph(30, 90, 4);
  const std::string path = ::testing::TempDir() + "/kdash_io_test.txt";
  WriteEdgeListFile(g, path);
  const Graph round = ReadEdgeListFile(path, false).value();
  EXPECT_EQ(round.num_edges(), g.num_edges());
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

}  // namespace
}  // namespace kdash::graph
