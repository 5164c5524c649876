#include "datasets/datasets.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/random.h"
#include "graph/generators.h"

namespace kdash::datasets {

namespace {

// Composes `num_blocks` independently generated community blocks into one
// graph, wiring them together with `cross_fraction` × (within edges) random
// cross-community edges.
//
// The paper leans on the observation that "many real graphs have
// block-wise/partition structure" (Section 2) — FOLDOC topics, AS
// geography, collaboration groups, trust clusters. Plain power-law
// generators do not have it, so without composition the cluster/hybrid
// reorderings would (correctly but unrepresentatively) degenerate: almost
// every node would carry a cross-partition edge, and the border partition
// that covers those edges would hold most of the graph.
template <typename MakeBlock>
graph::Graph ComposeCommunities(NodeId num_nodes, NodeId num_blocks,
                                double cross_fraction, bool undirected_cross,
                                Rng& rng, MakeBlock&& make_block) {
  KDASH_CHECK(num_blocks >= 1);
  const NodeId block_size = num_nodes / num_blocks;
  KDASH_CHECK(block_size >= 8);

  graph::GraphBuilder builder(num_nodes);
  Index within_edges = 0;
  NodeId offset = 0;
  for (NodeId b = 0; b < num_blocks; ++b) {
    const NodeId size = (b == num_blocks - 1)
                            ? static_cast<NodeId>(num_nodes - offset)
                            : block_size;
    const graph::Graph block = make_block(size, rng);
    for (NodeId u = 0; u < block.num_nodes(); ++u) {
      for (const graph::Neighbor& nb : block.OutNeighbors(u)) {
        builder.AddEdge(static_cast<NodeId>(offset + u),
                        static_cast<NodeId>(offset + nb.node), nb.weight);
        ++within_edges;
      }
    }
    offset = static_cast<NodeId>(offset + size);
  }

  const Index cross_edges = static_cast<Index>(
      cross_fraction * static_cast<double>(within_edges));
  auto block_of = [&](NodeId u) { return std::min<NodeId>(u / block_size, num_blocks - 1); };
  Index added = 0;
  while (added < cross_edges) {
    const NodeId u = rng.NextNode(num_nodes);
    const NodeId v = rng.NextNode(num_nodes);
    if (u == v || block_of(u) == block_of(v)) continue;
    if (undirected_cross) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
    ++added;
  }
  return std::move(builder).Build();
}

// Each stand-in's node count at scale 1 and its floor, by DatasetId. Scale
// 1.0 targets roughly a quarter of the paper's node counts (and for the two
// largest graphs a further reduction so the quadratic baselines stay
// tractable; the paper's relative results are size-stable).
constexpr struct {
  double nodes_at_scale_one;
  NodeId min_nodes;
} kSizing[] = {
    {3300, 256}, {5700, 512}, {5000, 200}, {6000, 512}, {8000, 512}};

}  // namespace

bool ScaleFits(DatasetId id, double scale) {
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<NodeId>::max()) + 1.0;
  return scale > 0.0 &&
         kSizing[static_cast<int>(id)].nodes_at_scale_one * scale < kLimit;
}

std::vector<DatasetId> AllDatasets() {
  return {DatasetId::kDictionary, DatasetId::kInternet, DatasetId::kCitation,
          DatasetId::kSocial, DatasetId::kEmail};
}

std::string DatasetName(DatasetId id) {
  switch (id) {
    case DatasetId::kDictionary: return "Dictionary";
    case DatasetId::kInternet: return "Internet";
    case DatasetId::kCitation: return "Citation";
    case DatasetId::kSocial: return "Social";
    case DatasetId::kEmail: return "Email";
  }
  return "Unknown";
}

Dataset MakeDataset(DatasetId id, double scale, std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(id) << 32));
  Dataset dataset;
  dataset.id = id;
  dataset.name = DatasetName(id);
  KDASH_CHECK(ScaleFits(id, scale))
      << dataset.name << " at scale " << scale << " is out of range";
  const auto& sizing = kSizing[static_cast<int>(id)];
  const NodeId n = std::max(
      sizing.min_nodes, static_cast<NodeId>(sizing.nodes_at_scale_one * scale));

  switch (id) {
    case DatasetId::kDictionary: {
      // FOLDOC: n=13,356, m=120,238 (avg out-degree 9), directed word graph
      // with heavy local clustering ("term v describes term u") organized
      // in topic blocks.
      const NodeId blocks = std::max<NodeId>(2, n / 220);
      dataset.graph = ComposeCommunities(
          n, blocks, /*cross_fraction=*/0.03, /*undirected_cross=*/false, rng,
          [](NodeId size, Rng& r) {
            return graph::PowerLawCluster(size, /*edges_per_node=*/5,
                                          /*triad_prob=*/0.6,
                                          /*directed=*/true,
                                          /*one_way_prob=*/0.4, r);
          });
      break;
    }
    case DatasetId::kInternet: {
      // Oregon AS: n=22,963, m=48,436 (avg degree ≈ 4.2), preferential-
      // attachment power law with regional block structure.
      const NodeId blocks = std::max<NodeId>(2, n / 400);
      dataset.graph = ComposeCommunities(
          n, blocks, /*cross_fraction=*/0.02, /*undirected_cross=*/true, rng,
          [](NodeId size, Rng& r) {
            return graph::BarabasiAlbert(size, /*edges_per_node=*/2, r);
          });
      break;
    }
    case DatasetId::kCitation: {
      // cond-mat: n=31,163, m=120,029, weighted co-authorship with strong
      // collaboration communities.
      const NodeId communities =
          std::max<NodeId>(4, static_cast<NodeId>(n / 100));
      dataset.graph = graph::PlantedPartition(n, communities,
                                              /*avg_in_degree=*/3.2,
                                              /*avg_out_degree=*/0.6,
                                              /*weighted=*/true, rng);
      break;
    }
    case DatasetId::kSocial: {
      // Epinions: n=131,828, m=841,372 (avg out-degree 6.4), directed,
      // self-similar skew with trust clusters.
      const NodeId blocks = std::max<NodeId>(2, n / 256);
      dataset.graph = ComposeCommunities(
          n, blocks, /*cross_fraction=*/0.04, /*undirected_cross=*/false, rng,
          [](NodeId size, Rng& r) {
            int rmat_scale = 1;
            while ((NodeId{1} << (rmat_scale + 1)) <= size) ++rmat_scale;
            return graph::RMat(rmat_scale,
                               static_cast<Index>(NodeId{1} << rmat_scale) * 6,
                               0.57, 0.19, 0.19, 0.05, r);
          });
      break;
    }
    case DatasetId::kEmail: {
      // email-EuAll: n=265,214, m=420,045 (avg out-degree 1.6), directed,
      // extremely skewed with many degree-1 leaves; institutions form
      // blocks.
      const NodeId blocks = std::max<NodeId>(2, n / 500);
      dataset.graph = ComposeCommunities(
          n, blocks, /*cross_fraction=*/0.03, /*undirected_cross=*/false, rng,
          [](NodeId size, Rng& r) {
            return graph::DirectedScaleFree(size, /*alpha=*/0.42,
                                            /*beta=*/0.36, /*gamma=*/0.22,
                                            /*delta_in=*/0.2,
                                            /*delta_out=*/0.1, r);
          });
      break;
    }
  }
  return dataset;
}

}  // namespace kdash::datasets
