// Theorem 2: K-dash returns the exact top-k, verified against the iterative
// ground truth across graph families, sizes, restart probabilities, K, and
// reorderings.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "graph/generators.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

void ExpectExactTopK(const graph::Graph& g, const KDashOptions& options,
                     NodeId query, std::size_t k, const std::string& label) {
  const auto index = KDashIndex::Build(g, options);
  KDashSearcher searcher(&index);
  const auto got = searcher.Search(Query::Single(query, k)).top;

  rwr::PowerIterationOptions pi;
  pi.restart_prob = options.restart_prob;
  pi.tolerance = 1e-14;
  pi.max_iterations = 20000;
  auto truth = rwr::TopKByPowerIteration(g.NormalizedAdjacency(), query, k, pi);
  // The iterative reference ranks all n nodes, including unreachable ones
  // with proximity 0; K-dash returns only reachable nodes. Trim zeros.
  while (!truth.empty() && truth.back().score < 1e-13) truth.pop_back();

  ASSERT_EQ(got.size(), truth.size()) << label;
  constexpr Scalar kTieTolerance = 1e-9;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Rank-by-rank scores must agree to solver precision.
    EXPECT_NEAR(got[i].score, truth[i].score, kTieTolerance)
        << label << " rank " << i;
    if (got[i].node == truth[i].node) continue;
    // A node mismatch is only legal when the two solvers broke an exact
    // proximity tie differently: the mismatched node must appear in the
    // other list with a score within solver precision.
    bool tie_swap = false;
    for (const ScoredNode& other : truth) {
      if (other.node == got[i].node &&
          std::abs(other.score - got[i].score) < kTieTolerance) {
        tie_swap = true;
        break;
      }
    }
    // A tie exactly at the K-boundary may keep different nodes entirely.
    if (!tie_swap &&
        std::abs(got[i].score - truth.back().score) < kTieTolerance) {
      tie_swap = true;
    }
    EXPECT_TRUE(tie_swap) << label << " rank " << i << ": node "
                          << got[i].node << " (score " << got[i].score
                          << ") is not a tie-swap of node " << truth[i].node
                          << " (score " << truth[i].score << ")";
  }
}

class ExactnessSweepTest
    : public ::testing::TestWithParam<
          std::tuple<int, double, int, reorder::Method>> {};

TEST_P(ExactnessSweepTest, MatchesPowerIterationOnRandomGraphs) {
  const auto [k, c, seed, method] = GetParam();
  const NodeId n = 120;
  const auto g = test::RandomDirectedGraph(
      n, 700, static_cast<std::uint64_t>(seed) * 1000 + 7);
  KDashOptions options;
  options.restart_prob = c;
  options.reorder_method = method;
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId query = rng.NextNode(n);
    ExpectExactTopK(g, options, query, static_cast<std::size_t>(k),
                    "k=" + std::to_string(k) + " c=" + std::to_string(c) +
                        " q=" + std::to_string(query));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessSweepTest,
    ::testing::Combine(::testing::Values(1, 5, 25),
                       ::testing::Values(0.5, 0.9, 0.95),
                       ::testing::Values(1, 2),
                       ::testing::Values(reorder::Method::kHybrid,
                                         reorder::Method::kDegree,
                                         reorder::Method::kRandom)));

TEST(ExactnessTest, BarabasiAlbertGraph) {
  Rng rng(71);
  const auto g = graph::BarabasiAlbert(300, 2, rng);
  ExpectExactTopK(g, {}, 17, 10, "barabasi-albert");
}

TEST(ExactnessTest, CommunityGraph) {
  Rng rng(72);
  const auto g = graph::PlantedPartition(400, 8, 7.0, 0.8, true, rng);
  KDashOptions options;
  options.reorder_method = reorder::Method::kCluster;
  ExpectExactTopK(g, options, 123, 15, "planted-partition weighted");
}

TEST(ExactnessTest, DirectedScaleFreeGraph) {
  Rng rng(73);
  const auto g = graph::DirectedScaleFree(350, 0.42, 0.36, 0.22, 0.2, 0.1, rng);
  ExpectExactTopK(g, {}, 9, 8, "directed-scale-free");
}

TEST(ExactnessTest, SmallWorldGraph) {
  Rng rng(74);
  const auto g = graph::WattsStrogatz(250, 3, 0.2, rng);
  ExpectExactTopK(g, {}, 100, 12, "watts-strogatz");
}

TEST(ExactnessTest, GraphWithDanglingNodes) {
  // Sub-stochastic columns must not break exactness.
  Rng rng(75);
  graph::GraphBuilder builder(100);
  for (int e = 0; e < 300; ++e) {
    const NodeId u = rng.NextNode(90);  // nodes 90..99 stay dangling
    const NodeId v = rng.NextNode(100);
    if (u != v) builder.AddEdge(u, v);
  }
  const auto g = std::move(builder).Build();
  ExpectExactTopK(g, {}, 0, 10, "dangling");
}

TEST(ExactnessTest, SelfLoops) {
  Rng rng(76);
  graph::GraphBuilder builder(60);
  for (int e = 0; e < 250; ++e) {
    builder.AddEdge(rng.NextNode(60), rng.NextNode(60));  // self loops kept
  }
  const auto g = std::move(builder).Build();
  ExpectExactTopK(g, {}, 30, 10, "self-loops");
}

TEST(ExactnessTest, KLargerThanGraph) {
  const auto g = test::SmallDirectedGraph();
  ExpectExactTopK(g, {}, 0, 50, "k-exceeds-n");
}

TEST(ExactnessTest, DefaultOptionsGiveExactTopKOnRandomGraph) {
  // Theorem 2 holds for the default options: no setting trades exactness.
  const auto g = test::RandomDirectedGraph(150, 900, 77);
  ExpectExactTopK(g, {}, 42, 10, "default-options");
}

}  // namespace
}  // namespace kdash::core
