// K-dash top-k search (Algorithm 4 of the paper).
//
// Per query:
//   1. load y = L⁻¹ q (q is e_source for a single-source Query, or the
//      restart distribution over Query::sources for a personalized one):
//      each source's column of the inverse lower factor is a head scatter
//      plus one dense run axpy (sparse/head_run_matrix.h),
//   2. lazily expand the breadth-first tree rooted at the query node(s),
//   3. visit nodes in ascending layer order, maintaining the O(1)
//      incremental upper bound p̄ (Definitions 1–2),
//   4. if p̄(u) < θ (the current K-th best proximity), terminate: by
//      Lemmas 1–2 no unvisited node can reach the top-k (Theorem 2),
//   5. otherwise compute the exact proximity
//      p(u) = c · U⁻¹(u,:) · y  — one row dot product: a head gather
//      plus one contiguous SIMD dot over the row's dense run, or, when y
//      is much sparser than the row, a walk of y's support — and offer it
//      to the top-k heap.
//
// The searcher owns reusable per-query workspace; one searcher per thread.
#ifndef KDASH_CORE_KDASH_SEARCHER_H_
#define KDASH_CORE_KDASH_SEARCHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/estimator.h"
#include "core/kdash_index.h"
#include "core/query.h"

namespace kdash::core {

class KDashSearcher {
 public:
  // `index` must outlive the searcher.
  explicit KDashSearcher(const KDashIndex* index);

  KDashSearcher(const KDashSearcher&) = delete;
  KDashSearcher& operator=(const KDashSearcher&) = delete;

  // Answers `query` exactly: up to k nodes ranked best-first (fewer when
  // fewer are reachable), plus the search's work counts.
  //   - One source: the paper's single-source top-k; the query node itself
  //     is a legal answer and, with proximity ≥ c, is in practice rank 1.
  //   - Several sources: the restart-set query. Exact, since Lemma 1
  //     carries over to a multi-source BFS tree with every source a
  //     layer-0 root; `root_override` is ignored.
  //   - `exclude` is read in place, never copied, and may hold duplicates.
  //     Excluded nodes still feed the estimator; they only skip the heap.
  // Aborts (KDASH_CHECK) on k = 0, an empty source set or an out-of-range
  // id; Engine::Search validates first and returns a Status instead.
  SearchResult Search(const Query& query);

 private:
  // Shared engine. `source_weights[i]` (parallel to `sources`) scales
  // source i's L⁻¹ column when building y; `roots` seed layer 0 of the BFS
  // in visit order.
  SearchResult Run(std::span<const NodeId> sources,
                   std::span<const Scalar> source_weights,
                   std::span<const NodeId> roots, std::size_t k,
                   bool use_pruning, std::span<const NodeId> exclude);

  // Step 1: y = Σ_s weight_s · L⁻¹(:, source_s), and y_rows_ = its
  // support.
  void LoadQueryColumns(std::span<const NodeId> sources,
                        std::span<const Scalar> source_weights);

  // Exact proximity of original node u using the loaded query column.
  Scalar Proximity(NodeId u) const;

  const KDashIndex* index_;
  ProximityEstimator estimator_;

  // Dense y = L⁻¹ q in reordered space. y_rows_ is y's support (the rows
  // of the sources' stored nonzeros), sorted ascending and duplicate-free —
  // the sparse proximity kernel intersects it with U⁻¹ rows — and drives
  // the O(nnz) clear after each query. in_support_ is the all-zero byte
  // mask a multi-source query marks its support in.
  std::vector<Scalar> y_;
  std::vector<NodeId> y_rows_;
  std::vector<std::uint8_t> in_support_;

  // BFS workspace.
  std::vector<NodeId> layer_;
  std::vector<NodeId> order_;

  // Exclusion lookup, epoch-stamped so it clears in O(|exclude|).
  std::vector<bool> excluded_;
  std::vector<NodeId> excluded_rows_;
};

}  // namespace kdash::core

#endif  // KDASH_CORE_KDASH_SEARCHER_H_
