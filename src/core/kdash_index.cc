#include "core/kdash_index.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/estimator.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "sparse/permute.h"

namespace kdash::core {

KDashIndex KDashIndex::Build(const graph::Graph& graph,
                             const KDashOptions& options) {
  KDASH_CHECK(graph.num_nodes() > 0);
  KDASH_CHECK(options.restart_prob > 0.0 && options.restart_prob < 1.0);

  KDashIndex index;
  index.options_ = options;
  index.num_nodes_ = graph.num_nodes();
  index.owned_end_ = graph.num_nodes();

  const WallTimer total_timer;
  SharedState state;

  // Step 1: reorder (phase-synchronous parallel Louvain for cluster/hybrid;
  // num_threads drives it exactly like the inverse stage).
  WallTimer phase_timer;
  reorder::ReorderOptions reorder_options;
  reorder_options.seed = options.seed;
  reorder_options.num_threads = options.num_threads;
  reorder::Reordering reordering = reorder::ComputeReordering(
      graph, options.reorder_method, reorder_options);
  state.new_of_old = std::move(reordering.new_of_old);
  state.old_of_new = std::move(reordering.old_of_new);
  index.stats_.num_partitions = reordering.num_partitions;
  index.stats_.reorder_seconds = phase_timer.Seconds();

  // Steps 2 + 3: W = I - (1-c)·PAPᵀ, then W = LU (its dense tail runs on
  // num_threads; see lu/sparse_lu.h). A, PAPᵀ and W are freed before the
  // inverses, which hold the build's memory peak.
  lu::LuFactors factors;
  {
    // Normalized adjacency and the estimator's precomputed values, all in
    // original id space (the estimator never sees the reordering).
    const sparse::CscMatrix a = graph.NormalizedAdjacency();
    state.amax = a.MaxValue();
    state.amax_of_node = a.ColumnMax();
    state.c_prime_of_node = ComputeCPrime(a.Diagonal(), options.restart_prob);

    phase_timer.Restart();
    const sparse::CscMatrix w = lu::BuildRwrSystemMatrix(
        sparse::PermuteSymmetric(a, state.new_of_old), options.restart_prob);
    factors = lu::FactorizeLu(w, options.num_threads);
    index.stats_.lu_seconds = phase_timer.Seconds();
  }
  index.stats_.nnz_lower = factors.lower.nnz();
  index.stats_.nnz_upper = factors.upper.nnz();

  // Step 4: explicit sparse inverses L⁻¹ and U⁻¹ᵀ, each written row by row
  // from a backward solve (lu/triangular.h: in hybrid order the rows of L⁻¹
  // cost O(b³) where its columns cost O(n·b²)), straight into the head +
  // run form the index serves and saves. Each builder sizes its output from
  // masks of T's pattern and then solves straight into it, so it keeps no
  // second copy of its values; the output is allocated unfilled, and its
  // pages are first touched on the pool, which zeroes the runs before the
  // values land. InvertUpperTriangular solves on U itself and
  // returns U⁻¹ᵀ, and L is freed before it. So at the build's memory peak,
  // this last inverse, the factor- and inverse-sized arrays alive are L⁻¹,
  // U, U⁻¹ᵀ's lane masks and U⁻¹ᵀ itself.
  phase_timer.Restart();
  state.lower_inverse =
      lu::InvertLowerTriangular(factors.lower, options.num_threads);
  factors.lower = {};
  index.upper_inverse_ =
      lu::InvertUpperTriangular(factors.upper, options.num_threads);
  factors = {};
  index.stats_.inverse_seconds = phase_timer.Seconds();
  index.stats_.nnz_lower_inverse = state.lower_inverse.nnz();
  index.stats_.nnz_upper_inverse = index.upper_inverse_.nnz();

  // Step 5: compact out-adjacency for the per-query BFS.
  state.adjacency_ptr.assign(static_cast<std::size_t>(graph.num_nodes()) + 1, 0);
  state.adjacency.reserve(static_cast<std::size_t>(graph.num_edges()));
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const graph::Neighbor& nb : graph.OutNeighbors(u)) {
      state.adjacency.push_back(nb.node);
    }
    state.adjacency_ptr[static_cast<std::size_t>(u) + 1] =
        static_cast<Index>(state.adjacency.size());
  }

  index.shared_ = std::make_shared<const SharedState>(std::move(state));
  index.stats_.total_seconds = total_timer.Seconds();
  return index;
}

KDashIndex KDashIndex::Restrict(NodeId begin, NodeId end) const {
  KDASH_CHECK(begin >= 0 && begin <= end && end <= num_nodes_)
      << "ownership window [" << begin << ", " << end << ") outside [0, "
      << num_nodes_ << ")";

  KDashIndex shard;
  shard.options_ = options_;
  shard.num_nodes_ = num_nodes_;
  shard.stats_ = stats_;
  shard.owned_begin_ = begin;
  shard.owned_end_ = end;

  // The non-U⁻¹ machinery is immutable and shared, not copied: P shards of
  // one index cost one L⁻¹/adjacency/estimator allocation plus P U⁻¹
  // slices.
  shard.shared_ = shared_;

  // Keep only the U⁻¹ rows of owned nodes, i.e. the owned columns of the
  // stored transpose. Ownership is an original-id window but U⁻¹ lives in
  // reordered space, so the kept columns are scattered: column
  // new_of_old[u] survives iff u ∈ [begin, end). Kept columns are copied
  // verbatim (same head, same run), so shard proximities are bit-identical
  // to the full index's.
  const std::vector<NodeId>& old_of_new = shared_->old_of_new;
  std::vector<bool> keep(static_cast<std::size_t>(num_nodes_));
  for (std::size_t col = 0; col < keep.size(); ++col) {
    keep[col] = old_of_new[col] >= begin && old_of_new[col] < end;
  }
  shard.upper_inverse_ = upper_inverse_.KeepColumns(keep);
  shard.stats_.nnz_upper_inverse = shard.upper_inverse_.nnz();
  return shard;
}

}  // namespace kdash::core
