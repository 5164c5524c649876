#include "datasets/datasets.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bfs.h"

namespace kdash::datasets {
namespace {

TEST(DatasetsTest, AllFivePaperDatasetsPresent) {
  const auto all = AllDatasets();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(DatasetName(all[0]), "Dictionary");
  EXPECT_EQ(DatasetName(all[4]), "Email");
}

TEST(DatasetsTest, DeterministicConstruction) {
  const Dataset a = MakeDataset(DatasetId::kDictionary, 0.1, 7);
  const Dataset b = MakeDataset(DatasetId::kDictionary, 0.1, 7);
  EXPECT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
}

TEST(DatasetsTest, ScaleControlsSize) {
  const Dataset small = MakeDataset(DatasetId::kInternet, 0.1);
  const Dataset large = MakeDataset(DatasetId::kInternet, 0.3);
  EXPECT_GT(large.graph.num_nodes(), 2 * small.graph.num_nodes());
}

TEST(DatasetsTest, DictionaryIsDirectedAndClustered) {
  const Dataset d = MakeDataset(DatasetId::kDictionary, 0.2);
  EXPECT_FALSE(d.graph.IsSymmetric());
  const auto stats = graph::ComputeStats(d.graph);
  EXPECT_GT(stats.avg_degree, 4.0);  // FOLDOC is relatively dense
}

TEST(DatasetsTest, InternetIsSymmetricPowerLaw) {
  const Dataset d = MakeDataset(DatasetId::kInternet, 0.2);
  EXPECT_TRUE(d.graph.IsSymmetric());
  Index max_degree = 0;
  for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
    max_degree = std::max(max_degree, d.graph.OutDegree(u));
  }
  const double avg =
      static_cast<double>(d.graph.num_edges()) / d.graph.num_nodes();
  EXPECT_GT(static_cast<double>(max_degree), 10.0 * avg);
}

TEST(DatasetsTest, CitationIsWeighted) {
  const Dataset d = MakeDataset(DatasetId::kCitation, 0.2);
  bool has_fractional_weight = false;
  for (NodeId u = 0; u < d.graph.num_nodes() && !has_fractional_weight; ++u) {
    for (const graph::Neighbor& nb : d.graph.OutNeighbors(u)) {
      if (nb.weight != 1.0) {
        has_fractional_weight = true;
        break;
      }
    }
  }
  EXPECT_TRUE(has_fractional_weight);
}

TEST(DatasetsTest, EmailIsSparseAndSkewed) {
  const Dataset d = MakeDataset(DatasetId::kEmail, 0.3);
  const auto stats = graph::ComputeStats(d.graph);
  EXPECT_LT(stats.avg_degree, 4.0);  // very sparse like email-EuAll
  EXPECT_GT(stats.max_in_degree, 30);
}

TEST(DatasetsTest, SocialIsDirectedDenseCore) {
  const Dataset d = MakeDataset(DatasetId::kSocial, 0.2);
  const auto stats = graph::ComputeStats(d.graph);
  EXPECT_GT(stats.avg_degree, 4.0);
  EXPECT_GT(stats.max_out_degree, 25);
}

TEST(DatasetsTest, QueriesHaveNontrivialReachability) {
  // Sanity for the benchmarks: a typical node reaches a reasonable chunk of
  // each graph (so top-k search is meaningful).
  for (const DatasetId id : AllDatasets()) {
    const Dataset d = MakeDataset(id, 0.1);
    // Take the highest out-degree node as a guaranteed in-component query.
    NodeId best = 0;
    for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
      if (d.graph.OutDegree(u) > d.graph.OutDegree(best)) best = u;
    }
    const auto tree = graph::BreadthFirstTree(d.graph, best);
    EXPECT_GT(tree.order.size(),
              static_cast<std::size_t>(d.graph.num_nodes()) / 20)
        << DatasetName(id);
  }
}

}  // namespace
}  // namespace kdash::datasets
