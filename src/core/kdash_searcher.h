// K-dash top-k search (Algorithm 4 of the paper).
//
// Per query:
//   1. load y = L⁻¹ q (stored sparse columns of the inverse lower factor;
//      q is e_query, or a uniform restart distribution for personalized
//      queries),
//   2. lazily expand the breadth-first tree rooted at the query node(s),
//   3. visit nodes in ascending layer order, maintaining the O(1)
//      incremental upper bound p̄ (Definitions 1–2),
//   4. if p̄(u) < θ (the current K-th best proximity), terminate: by
//      Lemmas 1–2 no unvisited node can reach the top-k (Theorem 2),
//   5. otherwise compute the exact proximity
//      p(u) = c · U⁻¹(u,:) · y  — one sparse row dot product —
//      and offer it to the top-k heap.
//
// The searcher owns reusable per-query workspace; one searcher per thread.
#ifndef KDASH_CORE_KDASH_SEARCHER_H_
#define KDASH_CORE_KDASH_SEARCHER_H_

#include <span>
#include <vector>

#include "common/top_k.h"
#include "common/types.h"
#include "core/estimator.h"
#include "core/kdash_index.h"

namespace kdash::core {

struct SearchOptions {
  // Disable the tree-estimation pruning: every node reachable from the
  // query gets an exact proximity computation. This is the "Without
  // pruning" configuration of Figure 7.
  bool use_pruning = true;

  // Diagnostic for Figure 9 / Appendix D: root the BFS tree at this node
  // instead of the query node. With a non-query root the search examines
  // only nodes reachable from that root, so results are NOT guaranteed
  // exact; K-dash proper always roots at the query node. Ignored by
  // personalized queries.
  NodeId root_override = kInvalidNode;

  // Nodes barred from the result (e.g., a recommender excluding items the
  // user already rated, or the query node itself). Excluded nodes are
  // still visited and selected — their exact proximities feed the
  // estimator — they just never enter the top-k heap, so the returned k
  // are exactly the best k among the allowed nodes. Duplicates are
  // harmless. A view, not a copy (Engine::Search points it at
  // Query::exclude so the hot path never copies): the viewed storage must
  // stay alive for the duration of the call.
  std::span<const NodeId> excluded;
};

struct SearchStats {
  NodeId nodes_visited = 0;           // estimates evaluated
  NodeId proximity_computations = 0;  // exact proximities computed
  bool terminated_early = false;      // pruning fired
  // Nodes discovered by the lazy BFS before the search ended. Equals the
  // full reachable set when pruning is off; with pruning it only counts the
  // explored neighborhood (the BFS never expands past the stop point).
  NodeId tree_size = 0;
};

class KDashSearcher {
 public:
  // `index` must outlive the searcher.
  explicit KDashSearcher(const KDashIndex* index);

  KDashSearcher(const KDashSearcher&) = delete;
  KDashSearcher& operator=(const KDashSearcher&) = delete;

  // Returns up to k nodes with the highest proximities w.r.t. `query`,
  // ranked best-first (the query node itself is a legal answer and, having
  // proximity ≥ c, is in practice always rank 1). Fewer than k nodes are
  // returned when fewer than k are reachable from the query.
  std::vector<ScoredNode> TopK(NodeId query, std::size_t k,
                               const SearchOptions& options = {},
                               SearchStats* stats = nullptr);

  // Personalized top-k: the walk restarts into `sources` (the Personalized
  // PageRank start-set semantics the paper contrasts with RWR in
  // Section 6), each occurrence carrying 1/|sources| of the restart mass —
  // a duplicated source gets proportionally more weight, matching an
  // explicit restart-vector solve over the raw list. Exact, like TopK: the
  // estimator's Lemma 1 argument carries over to a multi-source BFS tree,
  // with every source a layer-0 root.
  std::vector<ScoredNode> TopKPersonalized(const std::vector<NodeId>& sources,
                                           std::size_t k,
                                           const SearchOptions& options = {},
                                           SearchStats* stats = nullptr);

 private:
  // Shared engine. `source_weights[i]` (parallel to `sources`) scales
  // source i's L⁻¹ column when building y; `roots` seed layer 0 of the BFS
  // in visit order.
  std::vector<ScoredNode> Search(const std::vector<NodeId>& sources,
                                 const std::vector<Scalar>& source_weights,
                                 const std::vector<NodeId>& roots,
                                 std::size_t k, const SearchOptions& options,
                                 SearchStats* stats);

  // Exact proximity of original node u using the loaded query column.
  Scalar Proximity(NodeId u) const;

  const KDashIndex* index_;
  ProximityEstimator estimator_;

  // Dense y = L⁻¹ q in reordered space. y_rows_ is y's support, sorted
  // ascending and duplicate-free — the sparse proximity kernel intersects
  // it with U⁻¹ rows — and drives the O(nnz) clear after each query.
  std::vector<Scalar> y_;
  std::vector<NodeId> y_rows_;

  // BFS workspace.
  std::vector<NodeId> layer_;
  std::vector<NodeId> order_;

  // Exclusion lookup, epoch-stamped so it clears in O(|exclude|).
  std::vector<bool> excluded_;
  std::vector<NodeId> excluded_rows_;
};

}  // namespace kdash::core

#endif  // KDASH_CORE_KDASH_SEARCHER_H_
