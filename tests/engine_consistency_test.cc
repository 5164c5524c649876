// Cross-engine consistency: all six proximity engines agree on what they
// are supposed to agree on, across datasets and restart probabilities.
//
//   exact engines     : power iteration, direct LU solver, K-dash,
//                       DynamicKDash (no pending updates)
//   approximate       : NB_LIN (→ exact at full rank),
//                       Basic Push (recall-1 sets)
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "baselines/basic_push.h"
#include "baselines/nb_lin.h"
#include "common/random.h"
#include "core/dynamic.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "rwr/direct_solver.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash {
namespace {

class EngineConsistencyTest
    : public ::testing::TestWithParam<std::tuple<datasets::DatasetId, double>> {
};

TEST_P(EngineConsistencyTest, ExactEnginesAgreeOnFullVectors) {
  const auto [dataset_id, c] = GetParam();
  const auto dataset = datasets::MakeDataset(dataset_id, 0.04);
  const auto a = dataset.graph.NormalizedAdjacency();

  rwr::PowerIterationOptions pi;
  pi.restart_prob = c;
  pi.tolerance = 1e-14;
  pi.max_iterations = 20000;
  const rwr::DirectRwrSolver direct(a, c);
  core::DynamicKDash dynamic(dataset.graph, c);

  Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId q = rng.NextNode(dataset.graph.num_nodes());
    const auto iterative = rwr::SolveRwr(a, q, pi).proximity;
    const auto factored = direct.Solve(q);
    const auto dynamic_p = dynamic.Solve({q});
    for (std::size_t u = 0; u < iterative.size(); ++u) {
      EXPECT_NEAR(factored[u], iterative[u], 1e-9)
          << dataset.name << " direct q=" << q << " u=" << u;
      EXPECT_NEAR(dynamic_p[u], iterative[u], 1e-9)
          << dataset.name << " dynamic q=" << q << " u=" << u;
    }
  }
}

TEST_P(EngineConsistencyTest, KDashTopKIsSubsetOfBasicPushAnswer) {
  const auto [dataset_id, c] = GetParam();
  const auto dataset = datasets::MakeDataset(dataset_id, 0.04);
  const auto a = dataset.graph.NormalizedAdjacency();

  core::KDashOptions kd_options;
  kd_options.restart_prob = c;
  const auto index = core::KDashIndex::Build(dataset.graph, kd_options);
  core::KDashSearcher searcher(&index);

  baselines::BasicPushOptions bpa_options;
  bpa_options.restart_prob = c;
  bpa_options.num_hubs = 30;
  const baselines::BasicPush bpa(a, bpa_options);

  Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId q = rng.NextNode(dataset.graph.num_nodes());
    const auto exact = searcher.Search(Query::Single(q, 5)).top;
    const auto pushed = bpa.TopK(q, 5);
    std::set<NodeId> answer;
    for (const auto& entry : pushed) answer.insert(entry.node);
    for (const auto& entry : exact) {
      if (entry.score < 1e-12) continue;
      EXPECT_TRUE(answer.count(entry.node))
          << dataset.name << " q=" << q << " node " << entry.node;
    }
  }
}

TEST_P(EngineConsistencyTest, NbLinFullRankMatchesExactTopK) {
  const auto [dataset_id, c] = GetParam();
  // Full-rank SVD is O(n³)-ish, and the dataset stand-ins clamp to ≥512
  // nodes; use a small random graph seeded per dataset id instead so every
  // instantiation stays fast but distinct.
  const auto g = test::RandomDirectedGraph(
      100, 600, 100 + static_cast<std::uint64_t>(dataset_id));
  const auto a = g.NormalizedAdjacency();

  core::KDashOptions kd_options;
  kd_options.restart_prob = c;
  const auto index = core::KDashIndex::Build(g, kd_options);
  core::KDashSearcher searcher(&index);

  baselines::NbLinOptions nb_options;
  nb_options.restart_prob = c;
  nb_options.target_rank = g.num_nodes();  // full rank ⇒ exact
  const baselines::NbLin nb(a, nb_options);

  const NodeId q = 1;
  const auto exact = searcher.Search(Query::Single(q, 5)).top;
  const auto approx = nb.TopK(q, 5);
  ASSERT_GE(approx.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(approx[i].score, exact[i].score, 1e-5)
        << datasets::DatasetName(dataset_id) << " rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineConsistencyTest,
    ::testing::Combine(::testing::ValuesIn(datasets::AllDatasets()),
                       ::testing::Values(0.8, 0.95)),
    [](const auto& info) {
      return datasets::DatasetName(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0.8 ? "_c80" : "_c95");
    });

}  // namespace
}  // namespace kdash
