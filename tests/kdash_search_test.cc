#include "core/kdash_searcher.h"

#include <gtest/gtest.h>

#include "core/kdash_index.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

TEST(KDashSearchTest, QueryNodeIsRankOne) {
  const auto g = test::RandomDirectedGraph(100, 600, 31);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  for (const NodeId q : {0, 13, 57, 99}) {
    const auto top = searcher.Search(Query::Single(q, 5)).top;
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0].node, q);
    EXPECT_GE(top[0].score, 0.95 - 1e-12);
  }
}

TEST(KDashSearchTest, ResultsSortedDescending) {
  const auto g = test::RandomDirectedGraph(80, 500, 32);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const auto top = searcher.Search(Query::Single(7, 10)).top;
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].score, top[i - 1].score);
  }
}

TEST(KDashSearchTest, FewerReachableThanK) {
  graph::GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(2, 3);  // unreachable island
  builder.AddEdge(3, 2);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 4);
  const auto g = std::move(builder).Build();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const auto top = searcher.Search(Query::Single(0, 5)).top;
  ASSERT_EQ(top.size(), 2u);  // only {0, 1} are reachable
  EXPECT_EQ(top[0].node, 0);
  EXPECT_EQ(top[1].node, 1);
}

TEST(KDashSearchTest, PruningReducesProximityComputations) {
  const auto g = test::RandomDirectedGraph(400, 2400, 33);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  Query no_pruning = Query::Single(11, 5);
  no_pruning.use_pruning = false;
  const auto pruned = searcher.Search(Query::Single(11, 5));
  const auto unpruned = searcher.Search(no_pruning);

  EXPECT_TRUE(pruned.stats.terminated_early);
  EXPECT_LT(pruned.stats.proximity_computations,
            unpruned.stats.proximity_computations);
  EXPECT_EQ(unpruned.stats.proximity_computations, unpruned.stats.tree_size);

  // Same answers either way.
  const auto& a = pruned.top;
  const auto& b = unpruned.top;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_NEAR(a[i].score, b[i].score, 1e-13);
  }
}

TEST(KDashSearchTest, StatsAreConsistent) {
  const auto g = test::RandomDirectedGraph(200, 1200, 34);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const SearchStats stats = searcher.Search(Query::Single(3, 5)).stats;
  EXPECT_GE(stats.nodes_visited, stats.proximity_computations);
  EXPECT_LE(stats.nodes_visited, stats.tree_size);
  EXPECT_GT(stats.proximity_computations, 0);
}

TEST(KDashSearchTest, SearcherIsReusableAcrossQueries) {
  const auto g = test::RandomDirectedGraph(120, 700, 35);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  // Interleave queries and check against fresh searchers.
  for (const NodeId q : {5, 80, 5, 33, 80}) {
    const auto reused = searcher.Search(Query::Single(q, 7)).top;
    KDashSearcher fresh(&index);
    const auto reference = fresh.Search(Query::Single(q, 7)).top;
    ASSERT_EQ(reused.size(), reference.size()) << "q=" << q;
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused[i].node, reference[i].node);
      EXPECT_DOUBLE_EQ(reused[i].score, reference[i].score);
    }
  }
}

TEST(KDashSearchTest, RootArgumentVisitsOnlyThatTree) {
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 2);
  const auto g = std::move(builder).Build();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  // Root 2 is disconnected from the query: the tree is only {2, 3}.
  EXPECT_EQ(searcher.Search(Query::Single(0, 2), /*root=*/2).stats.tree_size,
            2);
}

TEST(KDashSearchTest, LargerKNeverTerminatesEarlier) {
  const auto g = test::RandomDirectedGraph(300, 1800, 36);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const SearchStats k5 = searcher.Search(Query::Single(9, 5)).stats;
  const SearchStats k50 = searcher.Search(Query::Single(9, 50)).stats;
  EXPECT_LE(k5.proximity_computations, k50.proximity_computations);
}

TEST(KDashSearchTest, TopKPrefixesAgree) {
  // The top 5 for q must be the first 5 entries of its top 20.
  const auto g = test::RandomDirectedGraph(150, 900, 37);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const auto small = searcher.Search(Query::Single(4, 5)).top;
  const auto large = searcher.Search(Query::Single(4, 20)).top;
  ASSERT_GE(large.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].node, large[i].node);
    EXPECT_DOUBLE_EQ(small[i].score, large[i].score);
  }
}

}  // namespace
}  // namespace kdash::core
