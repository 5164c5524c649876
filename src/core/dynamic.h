// Dynamic-graph extension: exact RWR under edge updates without immediate
// refactorization.
//
// The paper's index is static; rebuilding it per edge change would cost the
// full precompute. This wrapper keeps the *base* factorization W₀ = LU and
// represents the current system as a low-rank correction
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
// Solves against W₀ go through a rwr::DirectRwrSolver over the base graph
// (two triangular solves on its LU factors); Z and M are refreshed only
// when the set of touched columns changes. When d exceeds
// kMaxPendingColumns the index auto-rebuilds from the current graph,
// restoring the fast path. Queries take the same core/query.h `Query` as
// the static searcher and solve for the full exact proximity vector (no
// BFS pruning — the correction term is global), so this sits between the
// iterative solver and the static K-dash index: exact, factor-based,
// update-friendly.
#ifndef KDASH_CORE_DYNAMIC_H_
#define KDASH_CORE_DYNAMIC_H_

#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/query.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "rwr/direct_solver.h"
#include "sparse/csc_matrix.h"

namespace kdash::core {

// Auto-rebuild (refactorize) past this many distinct changed columns.
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
  // Both are O(out-degree) plus a deferred O(solve) refresh on the next
  // query.
  [[nodiscard]] Status AddEdge(NodeId src, NodeId dst, Scalar weight = 1.0);
  [[nodiscard]] Status RemoveEdge(NodeId src, NodeId dst);

  // Exact proximity vector under the *current* graph for a uniform restart
  // over `sources` (one source = the plain RWR column), exact by linearity
  // of W⁻¹. Each occurrence carries 1/|sources| of the restart mass, so a
  // repeated source is weighted by its multiplicity, as in
  // KDashSearcher::Search. Sources must be non-empty and in range.
  std::vector<Scalar> Solve(const std::vector<NodeId>& sources);

  // Exact top-k for `query` under the current graph. Unreachable nodes
  // (proximity ~ 0) are not answers, as with the static searcher. The
  // solve is global (the correction touches every node), so the stats
  // report a full scan and `use_pruning` is moot.
  SearchResult Search(const Query& query);

  // Number of columns currently represented as a correction.
  int pending_columns() const { return static_cast<int>(delta_columns_.size()); }

  // Fold all pending updates into a fresh factorization.
  void Rebuild();

  int rebuild_count() const { return rebuild_count_; }

 private:
  // Current out-adjacency of node u as a sorted (dst, weight) list.
  std::vector<Scalar> CurrentColumn(NodeId u) const;
  void MarkColumnChanged(NodeId u);
  void RefreshCorrection();

  Scalar restart_prob_;
  NodeId num_nodes_ = 0;

  // Mutable adjacency (current graph).
  std::vector<std::map<NodeId, Scalar>> out_edges_;

  // Base system (as of the last Rebuild) and its factorization W₀ = LU.
  sparse::CscMatrix base_a_;
  std::optional<rwr::DirectRwrSolver> base_solver_;

  // Correction state.
  std::vector<NodeId> delta_columns_;       // changed column ids, sorted
  linalg::DenseMatrix z_;                   // W₀⁻¹ D, n × d
  linalg::DenseMatrix m_;                   // (I + S Z)⁻¹, d × d
  bool correction_fresh_ = true;
  int rebuild_count_ = 0;
};

}  // namespace kdash::core

#endif  // KDASH_CORE_DYNAMIC_H_
