// Dynamic-graph extension: exact RWR under edge updates without immediate
// refactorization.
//
// The paper's index is static; rebuilding it per edge change would cost the
// full precompute. This wrapper keeps the graph of its last rebuild, the
// *base*, factored once, and represents the current system as a low-rank
// correction
//
//   W = W₀ + D·S,   D = the changed columns' deltas (n × d),
//                   S = selector rows e_uᵀ of the changed columns (d × n),
//
// because editing node u's out-edges only changes column u of the
// normalized adjacency (renormalization included). By the Woodbury
// identity every query stays exact:
//
//   W⁻¹x = W₀⁻¹x − Z·M·(S·W₀⁻¹x),  Z = W₀⁻¹D,  M = (I_d + S·Z)⁻¹.
//
// The state is one copy of the graph, one piece per term. W₀ comes from the
// base graph::Graph, factored as steps 1–3 of KDashIndex::Build factor one, in
// the paper's Algorithm 1 order (ascending total degree, ties by id), which
// keeps the factors sparse: on the Email stand-in at scale 1 L + U holds 28,756
// nonzeros, where the id order gives 162,032. D and S come from the pending
// nodes, whose out-edges differ from the base's: each keeps its current
// out-edges and its column of Z. All solve state lives in the solver order: the
// rhs is placed through new_of_old, p and the columns of Z stay permuted, and S
// picks Z's rows at new_of_old[u]. Node ids come back only where a result
// leaves the engine: Search maps a position to its node as it offers it to the
// heap, and Solve un-permutes once, on return.
//
// Z and M are kept current on the write path: an edit of node u's
// out-edges costs one base solve for Z's column u plus an O(d³) inversion
// of the d × d matrix M, so a read only applies them.
// An edit that restores u's base column (an added edge removed again, a
// removed edge re-added at its base weight) gives an exact-zero delta and
// takes u out of the correction. kMaxPendingColumns counts the columns that
// differ from the base; when one more would exceed it the index
// auto-rebuilds from the current graph. Queries take the same core/query.h
// `Query` as the static searcher and solve for the full exact proximity
// vector (no BFS pruning — the correction term is global), so this sits
// between the iterative solver and the static K-dash index: exact,
// factor-based, update-friendly.
#ifndef KDASH_CORE_DYNAMIC_H_
#define KDASH_CORE_DYNAMIC_H_

#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/query.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "obs/metrics.h"
#include "reorder/reorder.h"
#include "rwr/direct_solver.h"

namespace kdash::core {

// Auto-rebuild (refactorize) past this many columns that differ from the
// base.
inline constexpr int kMaxPendingColumns = 64;

class DynamicKDash {
 public:
  DynamicKDash(const graph::Graph& graph, Scalar restart_prob);

  // Edge mutations. AddEdge on an existing edge adds weight; RemoveEdge
  // returns kNotFound if the edge does not exist; both return
  // kInvalidArgument on out-of-range endpoints. AddEdge also returns
  // kInvalidArgument, leaving the graph unchanged, for a weight that is not
  // positive and finite or that would make the source's out-weight total
  // overflow to infinity.
  // Each costs O(n) plus one base solve and an O(d³) refresh of M (or a
  // full rebuild when the column would be the (kMaxPendingColumns + 1)-th).
  [[nodiscard]] Status AddEdge(NodeId src, NodeId dst, Scalar weight = 1.0);
  [[nodiscard]] Status RemoveEdge(NodeId src, NodeId dst);

  // Exact proximity vector under the *current* graph for a uniform restart
  // over `sources` (one source = the plain RWR column), exact by linearity
  // of W⁻¹. Each occurrence carries 1/|sources| of the restart mass, so a
  // repeated source is weighted by its multiplicity, as in
  // KDashSearcher::Search. Sources must be non-empty and in range.
  std::vector<Scalar> Solve(const std::vector<NodeId>& sources) const;

  // Exact top-k for `query` under the current graph. Every answer below
  // 1e-13 is dropped, reachable or not: the global solve gives unreachable
  // nodes rounding noise, not zeros. This differs from the static searcher,
  // which scores only BFS-reachable nodes and keeps their tiny proximities
  // (on a directed 30-node cycle at c = 0.95 and k = 25 it returns 25
  // answers; this engine returns 10). The solve is global (the correction
  // touches every node), so the stats report a full scan and `use_pruning`
  // is moot.
  SearchResult Search(const Query& query) const;

  // Number of columns that differ from the base, each one a correction
  // column.
  int pending_columns() const;

  // Fold all pending updates into a fresh factorization, in the degree
  // order of the current graph, assembled from the sorted out-lists without
  // sorting. Each call, the constructor's included, is one
  // dynamic.rebuild_us sample.
  void Rebuild();

  int rebuild_count() const { return rebuild_count_; }

 private:
  // A node whose current out-edges differ from the base's.
  struct PendingNode {
    NodeId node = kInvalidNode;
    std::vector<graph::Neighbor> out_edges;  // current, sorted by node
    // Z's column, W₀⁻¹ D(:, node) in solver order. Empty while the edits
    // leave the normalized column at its base value (weights scaled alike):
    // the node keeps its weights but adds no correction column.
    std::vector<Scalar> z;
  };

  // Node u's current out-edges, sorted by node: its pending ones, or else
  // the base's.
  std::span<const graph::Neighbor> OutEdges(NodeId u) const;

  // Factors `graph` as the new base and clears the correction.
  void Factor(graph::Graph graph);

  // Makes `out` node u's current out-edges and brings Z's column u and M up
  // to date.
  void UpdateColumn(NodeId u, std::vector<graph::Neighbor> out);

  // W⁻¹ · c·q for the restart distribution q over `sources`, in solver
  // order: entry new_of_old[u] is node u's proximity.
  std::vector<Scalar> SolveInSolverOrder(
      const std::vector<NodeId>& sources) const;

  Scalar restart_prob_;
  NodeId num_nodes_ = 0;

  // The graph as of the last Rebuild, its solver order (node u sits at
  // new_of_old[u]) and the factorization of its system W₀.
  graph::Graph base_;
  reorder::Reordering order_;
  std::optional<rwr::DirectRwrSolver> base_solver_;

  // Correction state: the pending nodes, sorted by node, and
  // M = (I + S Z)⁻¹ over those with a column of Z, in that order.
  std::vector<PendingNode> pending_;
  linalg::DenseMatrix m_;
  int rebuild_count_ = 0;

  // Resolved once: metric lookup takes the registry lock.
  obs::Histogram* rebuild_us_;
};

}  // namespace kdash::core

#endif  // KDASH_CORE_DYNAMIC_H_
