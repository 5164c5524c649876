// Tests for result exclusion — the filtering feature used by the
// recommender scenario (exclude already-rated items) while preserving
// exactness for the allowed nodes. SearchOptions::excluded is a view, so
// each test keeps its exclusion list in a local vector.
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

  const std::vector<NodeId> excluded{0, 1, 2, 3};  // includes the query
  SearchOptions options;
  options.excluded = excluded;
  const auto top = searcher.TopK(0, 10, options);
  for (const auto& entry : top) {
    for (const NodeId banned : excluded) {
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
  SearchOptions options;
  options.excluded = excluded;
  const NodeId query = 7;
  const auto got = searcher.TopK(query, 8, options);

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

  const auto before = searcher.TopK(5, 5);
  {
    const std::vector<NodeId> excluded{5};
    SearchOptions options;
    options.excluded = excluded;
    searcher.TopK(5, 5, options);
  }
  const auto after = searcher.TopK(5, 5);  // workspace must be clean
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

  const std::vector<NodeId> sources{3, 60};
  SearchOptions options;
  options.excluded = sources;  // recommenders exclude the sources themselves
  const auto top = searcher.TopKPersonalized(sources, 5, options);
  for (const auto& entry : top) {
    EXPECT_NE(entry.node, 3);
    EXPECT_NE(entry.node, 60);
  }
}

TEST(ExclusionTest, DuplicateExclusionsHarmless) {
  const auto g = test::RandomDirectedGraph(60, 350, 75);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const std::vector<NodeId> excluded{10, 10, 10};
  SearchOptions options;
  options.excluded = excluded;
  const auto top = searcher.TopK(10, 5, options);
  for (const auto& entry : top) EXPECT_NE(entry.node, 10);
}

}  // namespace
}  // namespace kdash::core
