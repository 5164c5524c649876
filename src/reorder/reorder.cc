#include "reorder/reorder.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "reorder/louvain.h"
#include "sparse/permute.h"

namespace kdash::reorder {

namespace {

Reordering FromOldOfNew(std::vector<NodeId> old_of_new) {
  Reordering r;
  r.old_of_new = std::move(old_of_new);
  r.new_of_old = sparse::InversePermutation(r.old_of_new);
  return r;
}

// Algorithm 1: nodes by ascending total degree, ties by ascending id. A
// counting sort on degree: stable, so equal degrees keep id order, and
// O(n + max degree) where a comparison sort would be O(n log n).
Reordering AscendingDegreeReordering(const graph::Graph& graph) {
  const NodeId n = graph.num_nodes();
  Index max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, graph.Degree(u));
  }
  std::vector<NodeId> start(static_cast<std::size_t>(max_degree) + 2, 0);
  for (NodeId u = 0; u < n; ++u) {
    ++start[static_cast<std::size_t>(graph.Degree(u)) + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NodeId> old_of_new(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    old_of_new[static_cast<std::size_t>(
        start[static_cast<std::size_t>(graph.Degree(u))]++)] = u;
  }
  return FromOldOfNew(std::move(old_of_new));
}

// Algorithm 2: Louvain partitions, a border partition κ+1, and the nodes
// laid out partition by partition with the border last, giving the
// doubly-bordered block diagonal shape of Figure 1-(2). The paper puts both
// endpoints of every cut edge (one between two partitions) in the border;
// the shape needs only one, a vertex cover of the cut (the vertex-separator
// form of nested dissection, George 1973). LU costs Θ(b³) in a border of b
// nodes and the inverses Θ(b²), so the smaller border makes set-up, the
// index and queries cheaper.
Reordering ClusterImpl(const graph::Graph& graph, const ReorderOptions& options,
                       bool degree_sort_within) {
  // One pool for the whole reordering: Louvain, border detection, and the
  // hybrid per-partition sorts (an explicit thread count would otherwise
  // pay two pool spawn/teardown cycles per call).
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool& pool = SelectPool(options.num_threads, local_pool);

  LouvainOptions louvain_options;
  louvain_options.seed = options.seed;
  const LouvainResult louvain = RunLouvain(graph, louvain_options, pool);
  const NodeId kappa = louvain.num_communities;
  const NodeId border = kappa;  // label κ used for the (κ+1)-th partition
  const std::vector<NodeId>& community = louvain.community_of_node;
  const auto crosses = [&](NodeId u, NodeId v) {
    return community[static_cast<std::size_t>(u)] !=
           community[static_cast<std::size_t>(v)];
  };

  // Both passes are per-node independent, so they parallelize with no
  // effect on the result. Pass 1: cut_degree[u] = u's in- and out-edges
  // whose other endpoint lies in another community.
  std::vector<Index> cut_degree(static_cast<std::size_t>(graph.num_nodes()));
  pool.ParallelFor(0, graph.num_nodes(), /*grain=*/256, [&](Index begin,
                                                            Index end, int) {
    for (Index ui = begin; ui < end; ++ui) {
      const NodeId u = static_cast<NodeId>(ui);
      Index count = 0;
      for (const graph::Neighbor& nb : graph.OutNeighbors(u)) {
        count += crosses(u, nb.node);
      }
      for (const graph::Neighbor& nb : graph.InNeighbors(u)) {
        count += crosses(u, nb.node);
      }
      cut_degree[static_cast<std::size_t>(u)] = count;
    }
  });

  // Pass 2: u joins the border iff it wins some cut edge: the larger cut
  // degree wins, then the smaller id. Each cut edge has exactly one winner,
  // so the border covers the cut, no edge joins two different non-border
  // partitions (footnote 4), and every border node lies on the cut.
  const auto wins = [&](NodeId u, NodeId v) {
    const Index du = cut_degree[static_cast<std::size_t>(u)];
    const Index dv = cut_degree[static_cast<std::size_t>(v)];
    return du > dv || (du == dv && u < v);
  };
  std::vector<NodeId> partition = community;
  pool.ParallelFor(0, graph.num_nodes(), /*grain=*/256, [&](Index begin,
                                                            Index end, int) {
    for (Index ui = begin; ui < end; ++ui) {
      const NodeId u = static_cast<NodeId>(ui);
      const auto covers = [&](const graph::Neighbor& nb) {
        return crosses(u, nb.node) && wins(u, nb.node);
      };
      if (std::ranges::any_of(graph.OutNeighbors(u), covers) ||
          std::ranges::any_of(graph.InNeighbors(u), covers)) {
        partition[static_cast<std::size_t>(u)] = border;
      }
    }
  });

  // Bucket nodes by partition, preserving id order within each bucket.
  std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(kappa) + 1);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    buckets[static_cast<std::size_t>(partition[static_cast<std::size_t>(u)])]
        .push_back(u);
  }
  if (degree_sort_within) {
    // Algorithm 3 (hybrid): ascending degree inside every partition,
    // including the border. One independent stable sort per bucket.
    pool.ParallelFor(
        0, static_cast<Index>(buckets.size()), /*grain=*/1,
        [&](Index begin, Index end, int) {
          for (Index b = begin; b < end; ++b) {
            auto& bucket = buckets[static_cast<std::size_t>(b)];
            std::stable_sort(bucket.begin(), bucket.end(),
                             [&](NodeId a, NodeId c) {
                               return graph.Degree(a) < graph.Degree(c);
                             });
          }
        });
  }

  std::vector<NodeId> old_of_new;
  old_of_new.reserve(static_cast<std::size_t>(graph.num_nodes()));
  for (const auto& bucket : buckets) {
    old_of_new.insert(old_of_new.end(), bucket.begin(), bucket.end());
  }

  Reordering r = FromOldOfNew(std::move(old_of_new));
  r.partition_of_node = std::move(partition);
  r.num_partitions = kappa;
  return r;
}

}  // namespace

std::string MethodName(Method method) {
  switch (method) {
    case Method::kIdentity: return "Identity";
    case Method::kRandom: return "Random";
    case Method::kDegree: return "Degree";
    case Method::kCluster: return "Cluster";
    case Method::kHybrid: return "Hybrid";
  }
  return "Unknown";
}

Reordering ComputeReordering(const graph::Graph& graph, Method method,
                             const ReorderOptions& options) {
  const NodeId n = graph.num_nodes();
  switch (method) {
    case Method::kIdentity: {
      std::vector<NodeId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      return FromOldOfNew(std::move(order));
    }
    case Method::kRandom: {
      std::vector<NodeId> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      Rng rng(options.seed);
      rng.Shuffle(order);
      return FromOldOfNew(std::move(order));
    }
    case Method::kDegree:
      return AscendingDegreeReordering(graph);
    case Method::kCluster:
      return ClusterImpl(graph, options, /*degree_sort_within=*/false);
    case Method::kHybrid:
      return ClusterImpl(graph, options, /*degree_sort_within=*/true);
  }
  KDASH_CHECK(false) << "unreachable";
  return {};
}

Reordering ComputeReordering(const graph::Graph& graph, Method method,
                             std::uint64_t seed) {
  ReorderOptions options;
  options.seed = seed;
  return ComputeReordering(graph, method, options);
}

}  // namespace kdash::reorder
