#include "core/kdash_searcher.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/top_k.h"

namespace kdash::core {

KDashSearcher::KDashSearcher(const KDashIndex* index)
    : index_(index),
      estimator_(index->amax(), &index->amax_of_node(),
                 &index->c_prime_of_node()),
      y_(static_cast<std::size_t>(index->num_nodes()), 0.0),
      layer_(static_cast<std::size_t>(index->num_nodes()), kInvalidNode),
      excluded_(static_cast<std::size_t>(index->num_nodes()), false) {
  KDASH_CHECK(index != nullptr);
  order_.reserve(static_cast<std::size_t>(index->num_nodes()));
}

Scalar KDashSearcher::Proximity(NodeId u) const {
  const NodeId reordered = index_->new_of_old()[static_cast<std::size_t>(u)];
  // Column u of the stored transpose is row u of U⁻¹.
  const sparse::CscMatrix& uinv_t = index_->upper_inverse();
  // Adaptive kernel: y = L⁻¹ q is often far sparser than a U⁻¹ row is long
  // (a query near the end of the reordering touches a short L⁻¹ column).
  // When it is, intersecting the row with y's support beats scanning the
  // whole row. The cutover only depends on the two nnz counts, so the same
  // query always takes the same path (deterministic scores).
  // 64-bit: Index is 32-bit and a dense-support personalized query can put
  // y_nnz within 4x of overflow, which would flip the compare and send the
  // query down the (correct but slow) scan path.
  const auto y_nnz = static_cast<std::int64_t>(y_rows_.size());
  if (y_nnz * 4 < static_cast<std::int64_t>(uinv_t.ColNnz(reordered))) {
    return index_->restart_prob() *
           uinv_t.ColumnDotSparse(reordered, y_, y_rows_);
  }
  return index_->restart_prob() * uinv_t.ColumnDot(reordered, y_);
}

SearchResult KDashSearcher::Search(const Query& query) {
  KDASH_CHECK(!query.sources.empty());
  if (query.sources.size() == 1) {
    const NodeId source = query.sources.front();
    KDASH_CHECK(source >= 0 && source < index_->num_nodes());
    const NodeId root =
        query.root_override == kInvalidNode ? source : query.root_override;
    KDASH_CHECK(root >= 0 && root < index_->num_nodes());
    const Scalar weight = 1.0;
    return Run(query.sources, {&weight, 1}, {&root, 1}, query.k,
               query.use_pruning, query.exclude);
  }
  // Counted dedup: a repeated source carries extra restart mass, so each
  // unique source is weighted by multiplicity / |sources| — dropping the
  // duplicates and renormalizing by 1/|unique| (the old behavior) silently
  // rescaled the restart vector.
  std::vector<NodeId> sorted = query.sources;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> unique;
  std::vector<Scalar> weights;
  unique.reserve(sorted.size());
  weights.reserve(sorted.size());
  const Scalar per_occurrence = 1.0 / static_cast<Scalar>(query.sources.size());
  for (const NodeId s : sorted) {
    KDASH_CHECK(s >= 0 && s < index_->num_nodes()) << "source " << s;
    if (!unique.empty() && unique.back() == s) {
      weights.back() += per_occurrence;
    } else {
      unique.push_back(s);
      weights.push_back(per_occurrence);
    }
  }
  // The roots are the sources.
  return Run(unique, weights, unique, query.k, query.use_pruning,
             query.exclude);
}

SearchResult KDashSearcher::Run(std::span<const NodeId> sources,
                                std::span<const Scalar> source_weights,
                                std::span<const NodeId> roots, std::size_t k,
                                bool use_pruning,
                                std::span<const NodeId> exclude) {
  KDASH_CHECK(k > 0);
  KDASH_CHECK(sources.size() == source_weights.size());

  // Mark the exclusion set (cleared at the end of the query).
  excluded_rows_.clear();
  for (const NodeId node : exclude) {
    KDASH_CHECK(node >= 0 && node < index_->num_nodes())
        << "excluded node " << node;
    if (!excluded_[static_cast<std::size_t>(node)]) {
      excluded_[static_cast<std::size_t>(node)] = true;
      excluded_rows_.push_back(node);
    }
  }

  // Step 1: y = L⁻¹ q — accumulate the stored sparse columns of the
  // inverse lower factor, one per source, scaled by the restart weight.
  const sparse::CscMatrix& linv = index_->lower_inverse();
  y_rows_.clear();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const NodeId reordered =
        index_->new_of_old()[static_cast<std::size_t>(sources[s])];
    const Scalar weight = source_weights[s];
    const Index col_end = linv.ColEnd(reordered);
    for (Index t = linv.ColBegin(reordered); t < col_end; ++t) {
      const NodeId row = linv.RowIndex(t);
      y_[static_cast<std::size_t>(row)] += weight * linv.Value(t);
      y_rows_.push_back(row);
    }
  }
  // The sparse proximity kernel needs y's support sorted and unique, and a
  // duplicate-free list also avoids redundant clears below. A single source
  // is one CSC column — already sorted and unique per the CSC invariant.
  if (sources.size() > 1) {
    std::sort(y_rows_.begin(), y_rows_.end());
    y_rows_.erase(std::unique(y_rows_.begin(), y_rows_.end()), y_rows_.end());
  }

  // Steps 2–5: lazy breadth-first expansion from the roots interleaved
  // with the layer-ordered visit. The FIFO discipline makes pop order
  // equal BFS-layer order, and expanding a node's out-neighbors only when
  // it is visited means a pruned search never pays for the untouched part
  // of the graph — per-query cost stays proportional to the visited
  // neighborhood rather than O(n + m).
  order_.clear();
  for (const NodeId root : roots) {
    layer_[static_cast<std::size_t>(root)] = 0;
    order_.push_back(root);
  }

  TopKHeap heap(k);
  estimator_.Reset();
  SearchStats local_stats;

  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    ++local_stats.nodes_visited;

    // Sharded index: a node outside this shard's ownership window has no
    // stored U⁻¹ row, so its exact proximity cannot (and need not) be
    // computed here — some other shard answers for it. Recording proximity
    // 0 keeps the estimator's Lemma 1 bound valid: the node's true
    // probability mass stays inside the (1 − Σp)·Amax remainder term, which
    // upper-bounds it at least as loosely as its exact p·Amax(u) term
    // would. Pruning gets weaker, exactness of the owned top-k does not.
    const bool owned = index_->OwnsNode(u);

    if (head < roots.size()) {
      // A layer-0 root: p̄ = 1 by Definition 1 — never prunable since θ
      // starts at 0, scores are ≤ 1, and Algorithm 4 compares strictly.
      Scalar proximity = 0.0;
      if (owned) {
        proximity = Proximity(u);
        ++local_stats.proximity_computations;
        if (!excluded_[static_cast<std::size_t>(u)]) heap.Push(u, proximity);
      }
      estimator_.RecordQuery(u, proximity);
    } else {
      const NodeId u_layer = layer_[static_cast<std::size_t>(u)];
      if (use_pruning) {
        const Scalar upper_bound = estimator_.EstimateNext(u, u_layer);
        if (upper_bound < heap.Threshold()) {
          // Lemma 2: every remaining node's bound is ≤ this one; terminate.
          local_stats.terminated_early = true;
          break;
        }
        Scalar proximity = 0.0;
        if (owned) {
          proximity = Proximity(u);
          ++local_stats.proximity_computations;
          // Push keeps it only if it beats the current K-th.
          if (!excluded_[static_cast<std::size_t>(u)]) heap.Push(u, proximity);
        }
        estimator_.RecordSelected(u, proximity);
      } else if (owned) {
        const Scalar proximity = Proximity(u);
        ++local_stats.proximity_computations;
        if (!excluded_[static_cast<std::size_t>(u)]) heap.Push(u, proximity);
      }
    }

    // Expand: discover u's out-neighbors for the next layer.
    const NodeId next_layer =
        static_cast<NodeId>(layer_[static_cast<std::size_t>(u)] + 1);
    for (const NodeId v : index_->OutNeighbors(u)) {
      if (layer_[static_cast<std::size_t>(v)] == kInvalidNode) {
        layer_[static_cast<std::size_t>(v)] = next_layer;
        order_.push_back(v);
      }
    }
  }
  local_stats.tree_size = static_cast<NodeId>(order_.size());

  // Clear workspace for the next query.
  for (const NodeId row : y_rows_) y_[static_cast<std::size_t>(row)] = 0.0;
  for (const NodeId u : order_) layer_[static_cast<std::size_t>(u)] = kInvalidNode;
  for (const NodeId node : excluded_rows_) {
    excluded_[static_cast<std::size_t>(node)] = false;
  }

  SearchResult result;
  result.top = heap.Sorted();
  result.stats = local_stats;
  return result;
}

}  // namespace kdash::core
