#include "core/estimator.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "graph/bfs.h"
#include "rwr/direct_solver.h"
#include "test_util.h"

namespace kdash::core {
namespace {

struct EstimatorHarness {
  Scalar amax;
  std::vector<Scalar> amax_of_node;
  std::vector<Scalar> c_prime;
  std::vector<Scalar> proximity;  // exact, for RecordSelected
  graph::BfsTree tree;

  explicit EstimatorHarness(const graph::Graph& g, NodeId query, Scalar c) {
    const auto a = g.NormalizedAdjacency();
    amax = a.MaxValue();
    amax_of_node = a.ColumnMax();
    c_prime = ComputeCPrime(a.Diagonal(), c);
    proximity = rwr::DirectRwrSolver(a, c).Solve(query);
    tree = graph::BreadthFirstTree(g, query);
  }
};

// Runs the full visit protocol, returning the estimate of every visited
// non-query node (in visit order) from both the incremental estimator and
// the direct Definition-1 evaluation.
struct ProtocolResult {
  std::vector<Scalar> incremental;
  std::vector<Scalar> direct;
  std::vector<Scalar> truth;  // exact proximity of the same nodes
};

ProtocolResult RunProtocol(const graph::Graph& g, NodeId query, Scalar c) {
  EstimatorHarness h(g, query, c);
  ProximityEstimator estimator(h.amax, c, &h.amax_of_node, &h.c_prime);
  estimator.Reset();
  estimator.RecordQuery(query, h.proximity[static_cast<std::size_t>(query)]);

  std::vector<ProximityEstimator::Selected> selected;
  selected.push_back({query, 0, h.proximity[static_cast<std::size_t>(query)]});

  ProtocolResult result;
  for (std::size_t pos = 1; pos < h.tree.order.size(); ++pos) {
    const NodeId u = h.tree.order[pos];
    const NodeId layer = h.tree.layer[static_cast<std::size_t>(u)];
    result.incremental.push_back(estimator.EstimateNext(u, layer));
    result.direct.push_back(ProximityEstimator::EstimateDirect(
        u, layer, selected, h.amax, c, h.amax_of_node, h.c_prime));
    result.truth.push_back(h.proximity[static_cast<std::size_t>(u)]);
    estimator.RecordSelected(u, h.proximity[static_cast<std::size_t>(u)]);
    selected.push_back({u, layer, h.proximity[static_cast<std::size_t>(u)]});
  }
  return result;
}

TEST(EstimatorTest, CPrimeFormula) {
  const std::vector<Scalar> diag{0.0, 0.5, 1.0};
  const auto c_prime = ComputeCPrime(diag, 0.95);
  EXPECT_NEAR(c_prime[0], 0.05, 1e-15);
  EXPECT_NEAR(c_prime[1], 0.05 / (1.0 - 0.5 + 0.95 * 0.5), 1e-15);
  EXPECT_NEAR(c_prime[2], 0.05 / 0.95, 1e-15);
}

TEST(EstimatorTest, IncrementalMatchesDefinitionOneOnFigure8) {
  const auto result = RunProtocol(test::Figure8Graph(), 0, 0.95);
  ASSERT_EQ(result.incremental.size(), result.direct.size());
  for (std::size_t i = 0; i < result.incremental.size(); ++i) {
    EXPECT_NEAR(result.incremental[i], result.direct[i], 1e-13) << "pos " << i;
  }
}

TEST(EstimatorTest, UpperBoundHoldsOnFigure8) {
  const auto result = RunProtocol(test::Figure8Graph(), 0, 0.95);
  for (std::size_t i = 0; i < result.incremental.size(); ++i) {
    EXPECT_GE(result.incremental[i], result.truth[i] - 1e-12) << "pos " << i;
  }
}

TEST(EstimatorTest, Figure8PaperWalkThrough) {
  // Appendix A.2 example: when u1..u4 were selected before u5, Definition 1
  // gives p̄(u5) = c′·(Σ_{v∈layer1} p_v·Amax(v) + Σ_{v∈layer2 selected}
  // p_v·Amax(v) + (1 - p1 - p2 - p3 - p4)·Amax). The appendix also states
  // the tighter in-neighbor expression c′·(p2·Amax(u2) + p4·Amax(u4) + …);
  // Definition 1 upper-bounds it because it sums over ALL selected nodes on
  // layers 1–2 (here u3 as well), so both must dominate the true p(u5).
  const graph::Graph g = test::Figure8Graph();
  EstimatorHarness h(g, 0, 0.95);
  // Visit order is 0,1,2,3,4,...; u5 (id 4) is visited fifth.
  ASSERT_EQ(h.tree.order[4], 4);
  const Scalar definition1 =
      h.c_prime[4] *
      (h.proximity[1] * h.amax_of_node[1] + h.proximity[2] * h.amax_of_node[2] +
       h.proximity[3] * h.amax_of_node[3] +
       (1.0 - h.proximity[0] - h.proximity[1] - h.proximity[2] -
        h.proximity[3]) *
           h.amax);
  const Scalar paper_tighter =
      h.c_prime[4] *
      (h.proximity[1] * h.amax_of_node[1] + h.proximity[3] * h.amax_of_node[3] +
       (1.0 - h.proximity[0] - h.proximity[1] - h.proximity[2] -
        h.proximity[3]) *
           h.amax);

  const auto result = RunProtocol(g, 0, 0.95);
  EXPECT_NEAR(result.incremental[3], definition1, 1e-13);  // 4th non-query
  EXPECT_GE(definition1, paper_tighter);
  EXPECT_GE(paper_tighter, h.proximity[4] - 1e-13);
}

// (n, m, c, seed, fraction of dangling nodes): the 0.3 family leaks walk
// mass at its sinks, so the estimator's dangling charge fires.
class EstimatorPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, double, int, double>> {};

TEST_P(EstimatorPropertyTest, Definition2EqualsDefinition1) {
  const auto [n, m, c, seed, sink_fraction] = GetParam();
  const auto g = test::RandomDirectedGraph(
      static_cast<NodeId>(n), static_cast<Index>(m),
      static_cast<std::uint64_t>(seed), sink_fraction);
  const auto result = RunProtocol(g, static_cast<NodeId>(seed % n), c);
  for (std::size_t i = 0; i < result.incremental.size(); ++i) {
    EXPECT_NEAR(result.incremental[i], result.direct[i], 1e-12)
        << "n=" << n << " pos=" << i;
  }
}

TEST_P(EstimatorPropertyTest, Lemma1UpperBound) {
  const auto [n, m, c, seed, sink_fraction] = GetParam();
  const auto g = test::RandomDirectedGraph(
      static_cast<NodeId>(n), static_cast<Index>(m),
      static_cast<std::uint64_t>(seed), sink_fraction);
  const auto result = RunProtocol(g, static_cast<NodeId>((seed * 3) % n), c);
  for (std::size_t i = 0; i < result.incremental.size(); ++i) {
    EXPECT_GE(result.incremental[i], result.truth[i] - 1e-11)
        << "estimate must upper-bound the true proximity (Lemma 1), pos " << i;
  }
}

TEST_P(EstimatorPropertyTest, Lemma2MonotoneAlongVisitOrder) {
  // The test graphs have no self loops, so c′ is constant and the bound
  // sequence must be non-increasing (Lemma 2).
  const auto [n, m, c, seed, sink_fraction] = GetParam();
  const auto g = test::RandomDirectedGraph(
      static_cast<NodeId>(n), static_cast<Index>(m),
      static_cast<std::uint64_t>(seed), sink_fraction);
  const auto result = RunProtocol(g, static_cast<NodeId>((seed * 7) % n), c);
  for (std::size_t i = 1; i < result.incremental.size(); ++i) {
    EXPECT_LE(result.incremental[i], result.incremental[i - 1] + 1e-12)
        << "pos " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorPropertyTest,
    ::testing::Combine(::testing::Values(20, 60, 150),
                       ::testing::Values(80, 400),
                       ::testing::Values(0.5, 0.8, 0.95),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0.0, 0.3)));

TEST(EstimatorTest, SelfLoopUsesCPrimeCorrection) {
  // Graph with a heavy self loop on node 1: the bound must still hold.
  graph::GraphBuilder builder(3);
  builder.AddEdge(0, 1, 1.0);
  builder.AddEdge(1, 1, 5.0);  // strong self transition
  builder.AddEdge(1, 2, 1.0);
  builder.AddEdge(2, 0, 1.0);
  const auto g = std::move(builder).Build();
  const auto result = RunProtocol(g, 0, 0.9);
  for (std::size_t i = 0; i < result.incremental.size(); ++i) {
    EXPECT_GE(result.incremental[i], result.truth[i] - 1e-12);
    EXPECT_NEAR(result.incremental[i], result.direct[i], 1e-13);
  }
}

TEST(EstimatorTest, ProtocolViolationsAreFatal) {
  std::vector<Scalar> amax_of_node{0.5, 0.5};
  std::vector<Scalar> c_prime{0.05, 0.05};
  ProximityEstimator estimator(0.5, 0.95, &amax_of_node, &c_prime);
  estimator.Reset();
  EXPECT_DEATH(estimator.EstimateNext(1, 1), "RecordQuery");
}

}  // namespace
}  // namespace kdash::core
