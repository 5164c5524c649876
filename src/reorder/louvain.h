// Louvain community detection (Blondel et al., 2008).
//
// The paper's cluster and hybrid reorderings (Section 4.2.2, Algorithms 2–3)
// partition the graph with the Louvain Method because it maximizes
// modularity — few cross-partition edges — which is exactly what keeps the
// reordered matrix doubly-bordered block diagonal and the triangular
// inverses sparse. The number of partitions κ is decided by the method
// itself, which is why K-dash is parameter-free.
//
// Directed input graphs are symmetrized (edge weights summed per direction)
// before partitioning; only the partition labels feed back into K-dash, so
// this does not affect exactness.
//
// Two local-moving algorithms are provided:
//
//   kPhaseSynchronous (default) — Grappolo-style parallel local moving
//   (Lu, Halappanavar & Kalyanaraman, "Parallel heuristics for scalable
//   community detection"): each sweep computes every node's best move
//   against a frozen snapshot of the community assignment concurrently
//   (smaller-label tie-break), then walks the proposals in ascending
//   node-id order, re-evaluating each one exactly against the evolving
//   labels — the sequential acceptance rule, restricted to the
//   snapshot-chosen candidate — so every applied move strictly increases
//   modularity and batched application cannot oscillate. The phase ends
//   once a sweep's applied moves gain less than the threshold below (a
//   sweep that applies none gains nothing). Every per-node proposal is a
//   pure function of the snapshot and every reduction runs in a fixed
//   order, so the partition is bit-identical at every thread count.
//
//   kLegacySequential — the original asynchronous sequential algorithm
//   (seeded random visit order, moves visible immediately). Kept as the
//   quality baseline for tests; not parallelizable.
#ifndef KDASH_REORDER_LOUVAIN_H_
#define KDASH_REORDER_LOUVAIN_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/types.h"
#include "graph/graph.h"

namespace kdash::reorder {

struct LouvainOptions {
  enum class Algorithm {
    kPhaseSynchronous,   // deterministic parallel local moving (default)
    kLegacySequential,   // original asynchronous algorithm (quality baseline)
  };

  // Seed for the node visiting order of kLegacySequential. The
  // phase-synchronous algorithm is seed-free (fixed node-id order).
  std::uint64_t seed = 42;
  Algorithm algorithm = Algorithm::kPhaseSynchronous;
};

// The partition alone; Modularity() scores it.
struct LouvainResult {
  // community_of_node[u] ∈ [0, num_communities), dense labels.
  std::vector<NodeId> community_of_node;
  NodeId num_communities = 0;
};

// Partitions `graph` on `pool`. A local-moving phase stops once a full pass
// gains less than 1e-7 modularity, and at most 32 aggregation levels run
// (Louvain converges in far fewer). The pool is an execution knob only: the
// partition is bit-identical for every pool size, including for
// kLegacySequential (whose local moving is sequential regardless; its
// symmetrize/aggregate stages are order-canonicalized like the parallel
// path's). A caller that already sized a pool for the surrounding stage —
// e.g. the cluster/hybrid reorderings — passes it here.
LouvainResult RunLouvain(const graph::Graph& graph,
                         const LouvainOptions& options = {},
                         ThreadPool& pool = ThreadPool::Shared());

// Newman modularity Q of an arbitrary node→community labeling on the
// symmetrized weighted graph. Exposed for tests and diagnostics.
double Modularity(const graph::Graph& graph,
                  const std::vector<NodeId>& community_of_node);

}  // namespace kdash::reorder

#endif  // KDASH_REORDER_LOUVAIN_H_
