// Tests for result exclusion — the filtering feature used by the
// recommender scenario (exclude already-rated items) while preserving
// exactness for the allowed nodes. The searcher reads Query::exclude in
// place; duplicates in it are harmless at this layer.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

TEST(ExclusionTest, ExcludedNodesNeverReturned) {
  const auto g = test::RandomDirectedGraph(100, 600, 71);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  Query query = Query::Single(0, 10);
  query.exclude = {0, 1, 2, 3};  // includes the query
  const auto top = searcher.Search(query).top;
  for (const auto& entry : top) {
    for (const NodeId banned : query.exclude) {
      EXPECT_NE(entry.node, banned);
    }
  }
}

TEST(ExclusionTest, ResultIsExactTopKOfAllowedNodes) {
  const auto g = test::RandomDirectedGraph(120, 800, 72);
  const auto a = g.NormalizedAdjacency();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  const std::vector<NodeId> excluded{7, 11, 30, 31, 32, 90};
  const NodeId query = 7;
  Query request = Query::Single(query, 8);
  request.exclude = excluded;
  const auto got = searcher.Search(request).top;

  // Reference: full solve, drop excluded, rank.
  const auto full = rwr::SolveRwr(a, query, {});
  std::set<NodeId> banned(excluded.begin(), excluded.end());
  TopKHeap heap(8);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (banned.count(u)) continue;
    if (full.proximity[static_cast<std::size_t>(u)] <= 1e-13) continue;
    heap.Push(u, full.proximity[static_cast<std::size_t>(u)]);
  }
  const auto truth = heap.Sorted();
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, truth[i].score, 1e-9) << "rank " << i;
  }
}

TEST(ExclusionTest, ExclusionDoesNotAffectSubsequentQueries) {
  const auto g = test::RandomDirectedGraph(80, 500, 73);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  const auto before = searcher.Search(Query::Single(5, 5)).top;
  Query excluding = Query::Single(5, 5);
  excluding.exclude = {5};
  searcher.Search(excluding);
  // The workspace must be clean again.
  const auto after = searcher.Search(Query::Single(5, 5)).top;
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].node, after[i].node);
    EXPECT_DOUBLE_EQ(before[i].score, after[i].score);
  }
}

TEST(ExclusionTest, WorksWithPersonalizedQueries) {
  const auto g = test::RandomDirectedGraph(90, 550, 74);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  Query query = Query::Personalized({3, 60}, 5);
  query.exclude = query.sources;  // recommenders exclude the sources
  const auto top = searcher.Search(query).top;
  for (const auto& entry : top) {
    EXPECT_NE(entry.node, 3);
    EXPECT_NE(entry.node, 60);
  }
}

TEST(ExclusionTest, DuplicateExclusionsHarmless) {
  const auto g = test::RandomDirectedGraph(60, 350, 75);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  Query query = Query::Single(10, 5);
  query.exclude = {10, 10, 10};
  const auto top = searcher.Search(query).top;
  for (const auto& entry : top) EXPECT_NE(entry.node, 10);
}

}  // namespace
}  // namespace kdash::core
