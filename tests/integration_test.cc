// End-to-end pipeline tests over the dataset stand-ins: precompute an index
// with every reordering, run queries, and cross-check all engines against
// each other on the same graphs.
#include <gtest/gtest.h>

#include <set>

#include "baselines/basic_push.h"
#include "baselines/nb_lin.h"
#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "rwr/power_iteration.h"

namespace kdash {
namespace {

constexpr double kTinyScale = 0.05;  // keep integration tests fast

class DatasetPipelineTest
    : public ::testing::TestWithParam<datasets::DatasetId> {};

TEST_P(DatasetPipelineTest, KDashExactOnDataset) {
  const auto dataset = datasets::MakeDataset(GetParam(), kTinyScale);
  const auto a = dataset.graph.NormalizedAdjacency();
  const auto index = core::KDashIndex::Build(dataset.graph, {});
  core::KDashSearcher searcher(&index);

  Rng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    const NodeId q = rng.NextNode(dataset.graph.num_nodes());
    const auto got = searcher.Search(Query::Single(q, 5)).top;
    auto truth = rwr::TopKByPowerIteration(a, q, 5, {});
    while (!truth.empty() && truth.back().score < 1e-13) truth.pop_back();
    ASSERT_EQ(got.size(), truth.size()) << dataset.name << " q=" << q;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].score, truth[i].score, 1e-9)
          << dataset.name << " q=" << q << " rank " << i;
    }
  }
}

TEST_P(DatasetPipelineTest, AllReorderingsBuildAndAgree) {
  const auto dataset = datasets::MakeDataset(GetParam(), kTinyScale);
  std::vector<std::vector<ScoredNode>> results;
  for (const auto method :
       {reorder::Method::kDegree, reorder::Method::kCluster,
        reorder::Method::kHybrid}) {
    core::KDashOptions options;
    options.reorder_method = method;
    const auto index = core::KDashIndex::Build(dataset.graph, options);
    core::KDashSearcher searcher(&index);
    results.push_back(searcher.Search(Query::Single(1, 5)).top);
  }
  for (std::size_t m = 1; m < results.size(); ++m) {
    ASSERT_EQ(results[m].size(), results[0].size()) << dataset.name;
    for (std::size_t i = 0; i < results[m].size(); ++i) {
      EXPECT_EQ(results[m][i].node, results[0][i].node)
          << dataset.name << " method " << m << " rank " << i;
      EXPECT_NEAR(results[m][i].score, results[0][i].score, 1e-10);
    }
  }
}

TEST_P(DatasetPipelineTest, HybridInversesSparserThanRandom) {
  // Figure 5's headline: hybrid reordering yields far fewer inverse
  // nonzeros than random ordering.
  const auto dataset = datasets::MakeDataset(GetParam(), kTinyScale);
  core::KDashOptions hybrid, random;
  hybrid.reorder_method = reorder::Method::kHybrid;
  random.reorder_method = reorder::Method::kRandom;
  const auto hybrid_index = core::KDashIndex::Build(dataset.graph, hybrid);
  const auto random_index = core::KDashIndex::Build(dataset.graph, random);
  const Index hybrid_nnz = hybrid_index.stats().nnz_lower_inverse +
                           hybrid_index.stats().nnz_upper_inverse;
  const Index random_nnz = random_index.stats().nnz_lower_inverse +
                           random_index.stats().nnz_upper_inverse;
  EXPECT_LT(hybrid_nnz, random_nnz) << dataset.name;
}

TEST_P(DatasetPipelineTest, BaselinesAgreeWithKDashOnEasyQueries) {
  const auto dataset = datasets::MakeDataset(GetParam(), kTinyScale);
  const auto a = dataset.graph.NormalizedAdjacency();
  const auto index = core::KDashIndex::Build(dataset.graph, {});
  core::KDashSearcher searcher(&index);

  baselines::BasicPushOptions bpa_options;
  bpa_options.num_hubs = 50;
  const baselines::BasicPush bpa(a, bpa_options);

  Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const NodeId q = rng.NextNode(dataset.graph.num_nodes());
    const auto exact = searcher.Search(Query::Single(q, 5)).top;
    const auto pushed = bpa.TopK(q, 5);
    // BPA guarantees recall 1: every exact answer appears in its set.
    std::set<NodeId> push_set;
    for (const auto& entry : pushed) push_set.insert(entry.node);
    for (const auto& entry : exact) {
      if (entry.score < 1e-12) continue;
      EXPECT_TRUE(push_set.count(entry.node))
          << dataset.name << " q=" << q << " node " << entry.node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetPipelineTest,
                         ::testing::ValuesIn(datasets::AllDatasets()),
                         [](const auto& info) {
                           return datasets::DatasetName(info.param);
                         });

TEST(IntegrationTest, NbLinPrecisionBelowKDashOnDictionary) {
  // The Figure 3 story in miniature: K-dash precision 1, NB_LIN < 1 at low
  // rank.
  const auto dataset =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, kTinyScale);
  const auto a = dataset.graph.NormalizedAdjacency();
  const auto index = core::KDashIndex::Build(dataset.graph, {});
  core::KDashSearcher searcher(&index);

  baselines::NbLinOptions nb_options;
  nb_options.target_rank = 8;
  const baselines::NbLin nb_lin(a, nb_options);

  Rng rng(29);
  int kdash_hits = 0, nb_hits = 0, total = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId q = rng.NextNode(dataset.graph.num_nodes());
    auto truth = rwr::TopKByPowerIteration(a, q, 5, {});
    while (!truth.empty() && truth.back().score < 1e-13) truth.pop_back();
    std::set<NodeId> truth_set;
    for (const auto& entry : truth) truth_set.insert(entry.node);

    for (const auto& entry : searcher.Search(Query::Single(q, 5)).top) {
      kdash_hits += truth_set.count(entry.node);
    }
    for (const auto& entry : nb_lin.TopK(q, truth.size())) {
      nb_hits += truth_set.count(entry.node);
    }
    total += static_cast<int>(truth.size());
  }
  EXPECT_EQ(kdash_hits, total);  // precision exactly 1
  EXPECT_LT(nb_hits, total);     // rank-8 SVD must miss something
}

}  // namespace
}  // namespace kdash
