// Exactness and behavior of the personalized (restart-set) top-k search.
#include <gtest/gtest.h>

#include <tuple>

#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

std::vector<ScoredNode> GroundTruthPersonalized(
    const sparse::CscMatrix& a, const std::vector<NodeId>& sources,
    std::size_t k, Scalar c) {
  // Each occurrence carries 1/|sources| of restart mass, so a node listed
  // twice accumulates twice the weight — the searcher's contract.
  std::vector<Scalar> restart(static_cast<std::size_t>(a.cols()), 0.0);
  for (const NodeId s : sources) {
    restart[static_cast<std::size_t>(s)] +=
        1.0 / static_cast<Scalar>(sources.size());
  }
  rwr::PowerIterationOptions options;
  options.restart_prob = c;
  options.tolerance = 1e-14;
  options.max_iterations = 20000;
  const auto result = rwr::SolveRwrVector(a, restart, options);
  auto truth = TopKOfVector(result.proximity, k);
  while (!truth.empty() && truth.back().score < 1e-13) truth.pop_back();
  return truth;
}

TEST(PersonalizedTest, SingletonSetMatchesPlainTopK) {
  const datasets::Dataset dataset =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, 0.25);
  const auto index = KDashIndex::Build(dataset.graph, {});
  KDashSearcher searcher(&index);
  // {q, q} dedups to q with weight 0.5 + 0.5 = 1.0, exactly the weight of
  // the single source q, so both take one path to the same bits and work.
  for (NodeId q = 0; q < dataset.graph.num_nodes(); ++q) {
    const SearchResult plain = searcher.Search(Query::Single(q, 25));
    const SearchResult doubled =
        searcher.Search(Query::Personalized({q, q}, 25));
    ASSERT_EQ(plain.top, doubled.top) << "source " << q;
    ASSERT_EQ(plain.stats.nodes_visited, doubled.stats.nodes_visited);
    ASSERT_EQ(plain.stats.proximity_computations,
              doubled.stats.proximity_computations);
    ASSERT_EQ(plain.stats.terminated_early, doubled.stats.terminated_early);
    ASSERT_EQ(plain.stats.tree_size, doubled.stats.tree_size);
  }
}

TEST(PersonalizedTest, DuplicateSourcesWeightByMultiplicity) {
  // {9, 5, 5, 9, 5} is the restart vector {5: 3/5, 9: 2/5} — NOT the
  // uniform {5: 1/2, 9: 1/2} a dedup-first implementation would compute.
  // Checked against an explicit restart-vector power-iteration solve.
  const auto g = test::RandomDirectedGraph(60, 350, 82);
  const auto a = g.NormalizedAdjacency();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  const std::vector<NodeId> sources{9, 5, 5, 9, 5};
  const auto got = searcher.Search(Query::Personalized(sources, 6)).top;
  const auto truth = GroundTruthPersonalized(a, sources, 6, 0.95);
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, truth[i].node) << "rank " << i;
    EXPECT_NEAR(got[i].score, truth[i].score, 1e-9) << "rank " << i;
  }

  // The lopsided restart set must rank the thrice-listed source above the
  // twice-listed one — the observable difference dedup used to erase.
  const auto scores = [&](const std::vector<ScoredNode>& top) {
    Scalar s5 = -1.0, s9 = -1.0;
    for (const auto& entry : top) {
      if (entry.node == 5) s5 = entry.score;
      if (entry.node == 9) s9 = entry.score;
    }
    return std::make_pair(s5, s9);
  };
  const auto [s5, s9] = scores(got);
  ASSERT_GE(s5, 0.0);
  ASSERT_GE(s9, 0.0);
  EXPECT_GT(s5, s9);
}

TEST(PersonalizedTest, UniformDuplicationMatchesDedupedSet) {
  // When every source appears the same number of times the multiplicity
  // weights reduce to the uniform distribution, so {5,9,5,9} and {5,9} are
  // the same query.
  const auto g = test::RandomDirectedGraph(60, 350, 82);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const auto deduped = searcher.Search(Query::Personalized({5, 9}, 6)).top;
  const auto duplicated =
      searcher.Search(Query::Personalized({5, 9, 5, 9}, 6)).top;
  ASSERT_EQ(deduped.size(), duplicated.size());
  for (std::size_t i = 0; i < deduped.size(); ++i) {
    EXPECT_EQ(deduped[i].node, duplicated[i].node);
    EXPECT_NEAR(deduped[i].score, duplicated[i].score, 1e-14);
  }
}

class PersonalizedExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(PersonalizedExactnessTest, MatchesPowerIterationRestartVector) {
  const auto [set_size, c, seed] = GetParam();
  const NodeId n = 150;
  const auto g = test::RandomDirectedGraph(
      n, 900, static_cast<std::uint64_t>(seed) * 271 + 3);
  const auto a = g.NormalizedAdjacency();
  KDashOptions options;
  options.restart_prob = c;
  const auto index = KDashIndex::Build(g, options);
  KDashSearcher searcher(&index);

  // A raw multiset: birthday collisions at set_size=12 give some draws
  // genuine duplicates, so the sweep also covers multiplicity weighting.
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<NodeId> sources;
  for (int s = 0; s < set_size; ++s) sources.push_back(rng.NextNode(n));

  const auto got = searcher.Search(Query::Personalized(sources, 10)).top;
  const auto truth = GroundTruthPersonalized(a, sources, 10, c);
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, truth[i].score, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PersonalizedExactnessTest,
                         ::testing::Combine(::testing::Values(2, 5, 12),
                                            ::testing::Values(0.8, 0.95),
                                            ::testing::Values(1, 2, 3)));

TEST(PersonalizedTest, SourcesLeadTheRanking) {
  // With c = 0.95 each source holds ≈ c/|S| mass, far above any outsider.
  const auto g = test::RandomDirectedGraph(120, 700, 83);
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const std::vector<NodeId> sources{3, 40, 77};
  const auto top = searcher.Search(Query::Personalized(sources, 3)).top;
  ASSERT_EQ(top.size(), 3u);
  for (const auto& entry : top) {
    EXPECT_TRUE(entry.node == 3 || entry.node == 40 || entry.node == 77)
        << entry.node;
    EXPECT_GT(entry.score, 0.3);
  }
}

TEST(PersonalizedTest, PruningStillFiresAndStaysExact) {
  Rng rng(84);
  const auto g = graph::PowerLawCluster(600, 4, 0.5, true, 0.4, rng);
  const auto a = g.NormalizedAdjacency();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);

  const std::vector<NodeId> sources{10, 200, 400};
  const auto result = searcher.Search(Query::Personalized(sources, 5));
  const auto& got = result.top;
  const SearchStats& stats = result.stats;
  EXPECT_TRUE(stats.terminated_early);
  EXPECT_LT(stats.proximity_computations, g.num_nodes() / 2);

  const auto truth = GroundTruthPersonalized(a, sources, 5, 0.95);
  ASSERT_EQ(got.size(), truth.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, truth[i].score, 1e-9);
  }
}

TEST(PersonalizedTest, DisconnectedSourcesCoverBothComponents) {
  graph::GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 3);
  const auto g = std::move(builder).Build();
  const auto index = KDashIndex::Build(g, {});
  KDashSearcher searcher(&index);
  const auto top = searcher.Search(Query::Personalized({0, 3}, 6)).top;
  ASSERT_EQ(top.size(), 4u);  // {0,1} and {3,4} reachable; 2 and 5 not
  for (const auto& entry : top) {
    EXPECT_TRUE(entry.node == 0 || entry.node == 1 || entry.node == 3 ||
                entry.node == 4);
  }
}

}  // namespace
}  // namespace kdash::core
