// Adversarial admissibility of the Section-4.3 proximity estimator: what
// makes Algorithm 4's early termination *exact* is not just the per-node
// Lemma-1 bound but the stronger visit-order property that each
// EstimateNext value upper-bounds the true proximity of EVERY
// not-yet-visited node — when the searcher stops at the first p̄ < θ, every
// node it never looks at is provably below θ too. This suite hammers that
// suffix property across random graphs, seeds, restart probabilities, and
// pathological layer structures (deep paths, wide stars, disconnected
// components, multi-source root sets).
#include "core/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "rwr/direct_solver.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

constexpr Scalar kSlack = 1e-11;  // accumulated float error over long visits

// Multi-source BFS visit order: every root is layer 0 (FIFO in the given
// unique-root order), then layer by layer over out-edges — the order a
// personalized restart-set query visits nodes in.
struct VisitOrder {
  std::vector<NodeId> order;
  std::vector<NodeId> layer;
};

VisitOrder MultiSourceBfs(const graph::Graph& g,
                          const std::vector<NodeId>& roots) {
  VisitOrder visit;
  visit.layer.assign(static_cast<std::size_t>(g.num_nodes()),
                     graph::kUnreachedLayer);
  std::deque<NodeId> frontier;
  for (const NodeId r : roots) {
    if (visit.layer[static_cast<std::size_t>(r)] != graph::kUnreachedLayer) {
      continue;
    }
    visit.layer[static_cast<std::size_t>(r)] = 0;
    visit.order.push_back(r);
    frontier.push_back(r);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const graph::Neighbor& edge : g.OutNeighbors(u)) {
      if (visit.layer[static_cast<std::size_t>(edge.node)] !=
          graph::kUnreachedLayer) {
        continue;
      }
      visit.layer[static_cast<std::size_t>(edge.node)] =
          visit.layer[static_cast<std::size_t>(u)] + 1;
      visit.order.push_back(edge.node);
      frontier.push_back(edge.node);
    }
  }
  return visit;
}

// Runs the full estimator protocol over `visit` (roots first), asserting at
// every step that the estimate dominates the true proximity of every node
// that has not been visited yet — the suffix maximum of `truth` along the
// visit order. Unreached nodes hold exactly zero proximity (the walk
// follows out-edges), so the reached suffix is the whole story.
void ExpectSuffixAdmissible(const graph::Graph& g, const VisitOrder& visit,
                            std::size_t num_roots,
                            const std::vector<Scalar>& truth, Scalar c) {
  const auto a = g.NormalizedAdjacency();
  const Scalar amax = a.MaxValue();
  const std::vector<Scalar> amax_of_node = a.ColumnMax();
  const std::vector<Scalar> c_prime = ComputeCPrime(a.Diagonal(), c);

  ProximityEstimator estimator(amax, c, &amax_of_node, &c_prime);
  estimator.Reset();
  for (std::size_t r = 0; r < num_roots; ++r) {
    const NodeId root = visit.order[r];
    estimator.RecordQuery(root, truth[static_cast<std::size_t>(root)]);
  }

  // suffix_max[i] = max true proximity over visit positions >= i.
  std::vector<Scalar> suffix_max(visit.order.size() + 1, 0.0);
  for (std::size_t i = visit.order.size(); i > 0; --i) {
    suffix_max[i - 1] =
        std::max(suffix_max[i],
                 truth[static_cast<std::size_t>(visit.order[i - 1])]);
  }

  for (std::size_t pos = num_roots; pos < visit.order.size(); ++pos) {
    const NodeId u = visit.order[pos];
    const NodeId layer = visit.layer[static_cast<std::size_t>(u)];
    const Scalar estimate = estimator.EstimateNext(u, layer);
    EXPECT_GE(estimate, suffix_max[pos] - kSlack)
        << "estimate at visit position " << pos << " (node " << u
        << ", layer " << layer
        << ") fell below a not-yet-visited node's true proximity";
    estimator.RecordSelected(u, truth[static_cast<std::size_t>(u)]);
  }
}

std::vector<Scalar> SolvePersonalizedTruth(const sparse::CscMatrix& a,
                                           const std::vector<NodeId>& sources,
                                           Scalar c) {
  std::vector<Scalar> restart(static_cast<std::size_t>(a.cols()), 0.0);
  for (const NodeId s : sources) {
    restart[static_cast<std::size_t>(s)] +=
        1.0 / static_cast<Scalar>(sources.size());
  }
  rwr::PowerIterationOptions options;
  options.restart_prob = c;
  options.tolerance = 1e-14;
  options.max_iterations = 20000;
  return rwr::SolveRwrVector(a, restart, options).proximity;
}

// (n, m, c, seed, fraction of dangling nodes): in the 0.3 family the
// proximities sum to well under 1 and the dangling-node charge fires at
// every visited sink, so the suffix bound is checked where it is tightest.
class AdmissibilitySweepTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, double, int, double>> {};

TEST_P(AdmissibilitySweepTest, SingleRootSuffixBound) {
  const auto [n, m, c, seed, sink_fraction] = GetParam();
  const auto g = test::RandomDirectedGraph(
      static_cast<NodeId>(n), static_cast<Index>(m),
      static_cast<std::uint64_t>(seed), sink_fraction);
  const auto a = g.NormalizedAdjacency();
  const NodeId root = static_cast<NodeId>((seed * 13) % n);
  const std::vector<Scalar> truth = rwr::DirectRwrSolver(a, c).Solve(root);
  ExpectSuffixAdmissible(g, MultiSourceBfs(g, {root}), 1, truth, c);
}

TEST_P(AdmissibilitySweepTest, MultiSourceSuffixBound) {
  const auto [n, m, c, seed, sink_fraction] = GetParam();
  const auto g = test::RandomDirectedGraph(
      static_cast<NodeId>(n), static_cast<Index>(m),
      static_cast<std::uint64_t>(seed) + 7, sink_fraction);
  const auto a = g.NormalizedAdjacency();
  // A raw multiset (duplicates allowed): multiplicity weighting must not
  // break the layer-0 generalization of Definition 2.
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 5);
  std::vector<NodeId> sources;
  for (int s = 0; s < 4; ++s) {
    sources.push_back(rng.NextNode(static_cast<NodeId>(n)));
  }
  const std::vector<Scalar> truth = SolvePersonalizedTruth(a, sources, c);
  std::vector<NodeId> roots = sources;
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  ExpectSuffixAdmissible(g, MultiSourceBfs(g, roots), roots.size(), truth, c);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdmissibilitySweepTest,
    ::testing::Combine(::testing::Values(25, 80, 160),
                       ::testing::Values(100, 500),
                       ::testing::Values(0.5, 0.8, 0.95),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.0, 0.3)));

TEST(AdmissibilityTest, DeepPathMaximizesLayerCount) {
  // A directed path: one node per layer, so every EstimateNext takes the
  // layer-advance branch — the suffix bound must survive n-1 consecutive
  // sum1/sum2 rollovers.
  constexpr NodeId n = 64;
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) builder.AddEdge(u, u + 1);
  const auto g = std::move(builder).Build();
  const auto a = g.NormalizedAdjacency();
  for (const Scalar c : {0.5, 0.95}) {
    const std::vector<Scalar> truth = rwr::DirectRwrSolver(a, c).Solve(0);
    ExpectSuffixAdmissible(g, MultiSourceBfs(g, {0}), 1, truth, c);
  }
}

TEST(AdmissibilityTest, WideStarIsOneLayer) {
  // A star: every non-root shares layer 1, so every EstimateNext after the
  // first takes the same-layer branch and the bound must stay above each
  // remaining leaf (all leaves tie in true proximity).
  constexpr NodeId n = 64;
  graph::GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) builder.AddEdge(0, u);
  const auto g = std::move(builder).Build();
  const auto a = g.NormalizedAdjacency();
  const std::vector<Scalar> truth = rwr::DirectRwrSolver(a, 0.9).Solve(0);
  ExpectSuffixAdmissible(g, MultiSourceBfs(g, {0}), 1, truth, 0.9);
}

TEST(AdmissibilityTest, DisconnectedComponentsAndDanglingNodes) {
  // Two components plus isolated dangling nodes: the visit never leaves the
  // root's component, and everything outside it holds zero proximity — the
  // suffix bound must hold with the walk mass leaking out at the dangling
  // sink (sub-stochastic column).
  graph::GraphBuilder builder(9);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(2, 3);  // 3 is a dangling sink inside the component
  builder.AddEdge(5, 6);
  builder.AddEdge(6, 5);  // separate component, never reached from 0
  const auto g = std::move(builder).Build();
  const auto a = g.NormalizedAdjacency();
  for (const Scalar c : {0.5, 0.95}) {
    const std::vector<Scalar> truth = rwr::DirectRwrSolver(a, c).Solve(0);
    for (const NodeId outside : {4, 5, 6, 7, 8}) {
      EXPECT_EQ(truth[static_cast<std::size_t>(outside)], 0.0);
    }
    ExpectSuffixAdmissible(g, MultiSourceBfs(g, {0}), 1, truth, c);
  }
}

TEST(AdmissibilityTest, SelfLoopsKeepPerNodeBound) {
  // Random graphs spiked with heavy self loops: c′ varies per node, so the
  // Lemma-2 monotone-sequence argument no longer applies — but the Lemma-1
  // per-node bound (what admissibility of each individual estimate means)
  // must still hold through the c′(u) correction.
  constexpr Scalar c = 0.9;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    graph::GraphBuilder builder(40);
    for (int e = 0; e < 200; ++e) {
      const NodeId src = rng.NextNode(40);
      const NodeId dst = rng.NextNode(40);
      builder.AddEdge(src, dst);
    }
    for (int s = 0; s < 8; ++s) {
      const NodeId u = rng.NextNode(40);
      builder.AddEdge(u, u, 4.0);  // strong self transition
    }
    const auto g = std::move(builder).Build();
    const auto a = g.NormalizedAdjacency();
    const Scalar amax = a.MaxValue();
    const std::vector<Scalar> amax_of_node = a.ColumnMax();
    const std::vector<Scalar> c_prime = ComputeCPrime(a.Diagonal(), c);
    const NodeId root = static_cast<NodeId>(seed % 40);
    const std::vector<Scalar> truth = rwr::DirectRwrSolver(a, c).Solve(root);
    const VisitOrder visit = MultiSourceBfs(g, {root});

    ProximityEstimator estimator(amax, c, &amax_of_node, &c_prime);
    estimator.Reset();
    estimator.RecordQuery(root, truth[static_cast<std::size_t>(root)]);
    for (std::size_t pos = 1; pos < visit.order.size(); ++pos) {
      const NodeId u = visit.order[pos];
      const Scalar estimate =
          estimator.EstimateNext(u, visit.layer[static_cast<std::size_t>(u)]);
      EXPECT_GE(estimate, truth[static_cast<std::size_t>(u)] - kSlack)
          << "node " << u << " seed " << seed;
      estimator.RecordSelected(u, truth[static_cast<std::size_t>(u)]);
    }
  }
}

}  // namespace
}  // namespace kdash::core
