#include "core/kdash_searcher.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/top_k.h"

namespace kdash::core {

KDashSearcher::KDashSearcher(const KDashIndex* index)
    : index_(index),
      estimator_(index->amax(), index->restart_prob(), &index->amax_of_node(),
                 &index->c_prime_of_node()),
      y_(static_cast<std::size_t>(index->num_nodes()), 0.0),
      in_support_(static_cast<std::size_t>(index->num_nodes()), 0),
      layer_(static_cast<std::size_t>(index->num_nodes()), kInvalidNode),
      excluded_(static_cast<std::size_t>(index->num_nodes()), false) {
  KDASH_CHECK(index != nullptr);
  order_.reserve(static_cast<std::size_t>(index->num_nodes()));
}

Scalar KDashSearcher::Proximity(NodeId u) const {
  const NodeId reordered = index_->new_of_old()[static_cast<std::size_t>(u)];
  // Column u of the stored transpose is row u of U⁻¹.
  const sparse::HeadRunMatrix& uinv_t = index_->upper_inverse();
  // Adaptive kernel: y = L⁻¹ q is often far sparser than a U⁻¹ row is long
  // (a query near the end of the reordering touches a short L⁻¹ column).
  // When it is, intersecting the row with y's support beats scanning the
  // whole row. The cutover only depends on the two nnz counts, so the same
  // query always takes the same path (deterministic scores).
  const auto y_nnz = static_cast<Index>(y_rows_.size());  // Index is 64-bit
  if (y_nnz * 4 < uinv_t.ColNnz(reordered)) {
    return index_->restart_prob() *
           uinv_t.ColumnDotSparse(reordered, y_, y_rows_);
  }
  return index_->restart_prob() * uinv_t.ColumnDot(reordered, y_);
}

void KDashSearcher::LoadQueryColumns(std::span<const NodeId> sources,
                                     std::span<const Scalar> source_weights) {
  const sparse::HeadRunMatrix& linv = index_->lower_inverse();
  const bool one_column = sources.size() == 1;
  y_rows_.clear();
  // The row range a multi-source query marked in in_support_.
  NodeId lo = index_->num_nodes();
  NodeId hi = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const NodeId col =
        index_->new_of_old()[static_cast<std::size_t>(sources[s])];
    const Scalar weight = source_weights[s];
    const std::span<const NodeId> head_rows = linv.HeadRows(col);
    const std::span<const Scalar> head_values = linv.HeadValues(col);
    const std::span<const Scalar> run = linv.Run(col);
    const NodeId run_begin = linv.RunBegin(col);
    for (std::size_t t = 0; t < head_rows.size(); ++t) {
      y_[static_cast<std::size_t>(head_rows[t])] += weight * head_values[t];
    }
    Scalar* y_run = y_.data() + run_begin;
    for (std::size_t i = 0; i < run.size(); ++i) y_run[i] += weight * run[i];

    if (one_column) {
      // The head rows, then the run's nonzero rows (appended branch-free),
      // are y's support in ascending order.
      y_rows_.assign(head_rows.begin(), head_rows.end());
      std::size_t count = y_rows_.size();
      y_rows_.resize(count + run.size());
      for (std::size_t i = 0; i < run.size(); ++i) {
        y_rows_[count] = run_begin + static_cast<NodeId>(i);
        count += run[i] != 0.0 ? 1 : 0;
      }
      y_rows_.resize(count);
      return;
    }
    for (const NodeId row : head_rows) {
      in_support_[static_cast<std::size_t>(row)] = 1;
    }
    std::uint8_t* marks = in_support_.data() + run_begin;
    for (std::size_t i = 0; i < run.size(); ++i) marks[i] |= run[i] != 0.0;
    // The column's nonzeros lie in [first, end); an empty column's
    // run_begin is num_nodes, so it widens nothing.
    const NodeId first = head_rows.empty() ? run_begin : head_rows.front();
    const NodeId end = !run.empty()
                           ? run_begin + static_cast<NodeId>(run.size())
                           : (head_rows.empty() ? 0 : head_rows.back() + 1);
    lo = std::min(lo, first);
    hi = std::max(hi, end);
  }
  // Several columns: one scan of the marked range gives the sorted,
  // duplicate-free support (and clears the mask) without a sort.
  if (lo >= hi) return;
  y_rows_.resize(static_cast<std::size_t>(hi - lo));
  std::size_t count = 0;
  for (NodeId row = lo; row < hi; ++row) {
    std::uint8_t& mark = in_support_[static_cast<std::size_t>(row)];
    y_rows_[count] = row;
    count += mark;
    mark = 0;
  }
  y_rows_.resize(count);
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

  // Step 1: y = L⁻¹ q — accumulate the inverse lower factor's columns,
  // one per source, scaled by the restart weight.
  LoadQueryColumns(sources, source_weights);

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
    // probability mass (and, if it is dangling, the mass it leaks) stays
    // inside the remainder term, which upper-bounds it at least as loosely
    // as its exact p·Amax(u) term would. Pruning gets weaker, exactness of
    // the owned top-k does not.
    const bool owned = index_->OwnsNode(u);

    // One visit step (Algorithm 4). A layer-0 root has p̄ = 1 by Definition
    // 1 and is never estimated: θ starts at 0, scores are ≤ 1, and the
    // comparison is strict.
    const bool root = head < roots.size();
    if (use_pruning && !root &&
        estimator_.EstimateNext(u, layer_[static_cast<std::size_t>(u)]) <
            heap.Threshold()) {
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
    if (root) {
      estimator_.RecordQuery(u, proximity);
    } else if (use_pruning) {
      estimator_.RecordSelected(u, proximity);
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
