// Determinism and quality of the phase-synchronous parallel reordering
// front end: the cluster/hybrid permutations (and the Louvain partitions
// underneath them) must be bit-identical at every thread count — the same
// contract the LU and inverse stages already honor — and the parallel
// algorithm must not give up meaningful modularity against the legacy
// sequential baseline it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "reorder/louvain.h"
#include "reorder/reorder.h"
#include "test_util.h"

namespace kdash::reorder {
namespace {

graph::Graph PathGraph(NodeId n) {
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u + 1 < n; ++u) {
    builder.AddUndirectedEdge(u, static_cast<NodeId>(u + 1));
  }
  return std::move(builder).Build();
}

graph::Graph StarGraph(NodeId n) {
  graph::GraphBuilder builder(n);
  for (NodeId u = 1; u < n; ++u) {
    builder.AddUndirectedEdge(0, u);
  }
  return std::move(builder).Build();
}

// Two components, one of them a lone edge, plus fully isolated nodes.
graph::Graph DisconnectedGraph() {
  graph::GraphBuilder builder(40);
  for (NodeId u = 0; u + 1 < 15; ++u) {
    builder.AddUndirectedEdge(u, static_cast<NodeId>(u + 1));
  }
  for (NodeId u = 20; u < 30; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < 30; ++v) {
      builder.AddUndirectedEdge(u, v);
    }
  }
  builder.AddUndirectedEdge(35, 36);
  return std::move(builder).Build();
}

struct NamedGraph {
  std::string name;
  graph::Graph graph;
};

std::vector<NamedGraph> TestGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"random", test::RandomDirectedGraph(300, 1800, 13)});
  {
    Rng rng(3);
    graphs.push_back(
        {"planted", graph::PlantedPartition(240, 4, 9.0, 0.6, false, rng)});
  }
  graphs.push_back({"path", PathGraph(120)});
  graphs.push_back({"star", StarGraph(80)});
  graphs.push_back({"disconnected", DisconnectedGraph()});
  return graphs;
}

TEST(ReorderParallelTest, PermutationsIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : TestGraphs()) {
    for (const Method method : {Method::kCluster, Method::kHybrid}) {
      ReorderOptions options;
      options.num_threads = 1;
      const Reordering reference = ComputeReordering(g, method, options);
      for (const int threads : {2, 3, 8}) {
        options.num_threads = threads;
        const Reordering reordering = ComputeReordering(g, method, options);
        const std::string label =
            name + "/" + MethodName(method) + "/t=" + std::to_string(threads);
        EXPECT_EQ(reordering.new_of_old, reference.new_of_old) << label;
        EXPECT_EQ(reordering.old_of_new, reference.old_of_new) << label;
        EXPECT_EQ(reordering.partition_of_node, reference.partition_of_node)
            << label;
        EXPECT_EQ(reordering.num_partitions, reference.num_partitions) << label;
      }
    }
  }
}

TEST(ReorderParallelTest, LouvainIdenticalAcrossThreadCountsAndSharedPool) {
  ThreadPool inline_pool(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const std::vector<std::pair<std::string, ThreadPool*>> pools = {
      // The process-wide shared pool, whatever size it happens to have.
      {"shared", &ThreadPool::Shared()}, {"t=2", &pool2}, {"t=8", &pool8}};
  for (const auto& [name, g] : TestGraphs()) {
    const LouvainResult reference = RunLouvain(g, {}, inline_pool);
    for (const auto& [pool_name, pool] : pools) {
      const LouvainResult result = RunLouvain(g, {}, *pool);
      const std::string label = name + "/" + pool_name;
      EXPECT_EQ(result.community_of_node, reference.community_of_node) << label;
      EXPECT_EQ(result.num_communities, reference.num_communities) << label;
      EXPECT_EQ(result.modularity, reference.modularity) << label;
      EXPECT_EQ(result.levels, reference.levels) << label;
    }
  }
}

TEST(ReorderParallelTest, ModularityNotWorseThanLegacySequentialBaseline) {
  // The phase-synchronous algorithm makes different (batched) move
  // decisions than the legacy asynchronous sweep, so the partitions differ
  // — but the achieved modularity must stay in the same quality regime, or
  // the reordered inverses fill in and the paper's Figure 5/6 behavior is
  // lost. Isolated-node/star corner cases where Q hovers near 0 are judged
  // by an absolute margin instead of a ratio.
  for (const auto& [name, g] : TestGraphs()) {
    LouvainOptions parallel_options;
    const LouvainResult parallel = RunLouvain(g, parallel_options);

    LouvainOptions legacy_options;
    legacy_options.algorithm = LouvainOptions::Algorithm::kLegacySequential;
    const LouvainResult legacy = RunLouvain(g, legacy_options);

    EXPECT_GE(parallel.modularity,
              std::min(0.95 * legacy.modularity, legacy.modularity - 0.02))
        << name << ": parallel Q=" << parallel.modularity
        << " legacy Q=" << legacy.modularity;
  }
}

TEST(ReorderParallelTest, ClusterInvariantsHoldUnderParallelReorder) {
  // The doubly-bordered block-diagonal property (no edge between two
  // different non-border partitions) must hold for the parallel partitions
  // just as reorder_test checks it for the default path.
  for (const auto& [name, g] : TestGraphs()) {
    ReorderOptions options;
    options.num_threads = 8;
    const Reordering r = ComputeReordering(g, Method::kCluster, options);
    ASSERT_EQ(r.partition_of_node.size(),
              static_cast<std::size_t>(g.num_nodes()))
        << name;
    const NodeId border = r.num_partitions;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const NodeId pu = r.partition_of_node[static_cast<std::size_t>(u)];
      for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
        const NodeId pv = r.partition_of_node[static_cast<std::size_t>(nb.node)];
        if (pu != border && pv != border) {
          EXPECT_EQ(pu, pv) << name << ": cross-partition edge " << u << "→"
                            << nb.node;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kdash::reorder
