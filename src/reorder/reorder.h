// Node reordering heuristics for the inverse-matrices problem.
//
// Finding the node order that minimizes nonzeros in L⁻¹ and U⁻¹ is
// NP-complete (Theorem 1 of the paper, by reduction from minimum fill-in).
// These are the paper's three approximations (Algorithms 1–3) plus the
// random and identity orders used as experimental controls in Figures 5–6.
#ifndef KDASH_REORDER_REORDER_H_
#define KDASH_REORDER_REORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace kdash::reorder {

enum class Method {
  kIdentity,  // keep input order (control)
  kRandom,    // uniform random order (control; the paper's "Random")
  kDegree,    // Algorithm 1: ascending total degree
  kCluster,   // Algorithm 2: Louvain partitions, border partition last; the
              // border covers each cut edge with one endpoint, not both
  kHybrid,    // Algorithm 3: cluster, then ascending degree inside partitions
};

std::string MethodName(Method method);

struct Reordering {
  // new_of_old[u] = position of node u in the reordered matrix.
  std::vector<NodeId> new_of_old;
  // old_of_new[i] = original node placed at position i.
  std::vector<NodeId> old_of_new;

  // For kCluster/kHybrid: partition label per ORIGINAL node id; labels
  // 0..num_partitions-1 are Louvain partitions, label num_partitions is the
  // border partition κ+1. The border is a vertex cover of the cut: every
  // cross-partition edge has at least one endpoint in it (the endpoint
  // with more cross-partition edges, the smaller id on a tie), where the
  // paper's Algorithm 2 moves both. Empty for the other methods.
  std::vector<NodeId> partition_of_node;
  NodeId num_partitions = 0;  // κ (border partition not counted)
};

struct ReorderOptions {
  // Feeds the kRandom shuffle (and the legacy Louvain visit order, when a
  // caller opts into reorder::LouvainOptions::Algorithm::kLegacySequential
  // directly). All methods are deterministic given the seed.
  std::uint64_t seed = 42;
  // Worker threads for the parallel stages (phase-synchronous Louvain,
  // border detection, per-partition sorting). 0 = KDASH_NUM_THREADS or
  // hardware concurrency; 1 = fully inline. An execution knob only: every
  // method returns the identical permutation at every thread count.
  int num_threads = 0;
};

// Computes the ordering.
Reordering ComputeReordering(const graph::Graph& graph, Method method,
                             const ReorderOptions& options);

// Back-compat convenience: seed-only, process-default threads.
Reordering ComputeReordering(const graph::Graph& graph, Method method,
                             std::uint64_t seed = 42);

}  // namespace kdash::reorder

#endif  // KDASH_REORDER_REORDER_H_
