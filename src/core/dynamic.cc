#include "core/dynamic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "common/top_k.h"
#include "sparse/permute.h"

namespace kdash::core {

namespace {

// Adds sign · (column v of the normalized adjacency, for v's out-edges
// `out`) to `column`, at the rows new_of_old[dst]. The out-weight total is
// summed in ascending node order, as Graph::NormalizedAdjacency sums it,
// so equal edges give bit-equal entries.
void AddNormalizedColumn(std::span<const graph::Neighbor> out, Scalar sign,
                         const std::vector<NodeId>& new_of_old,
                         std::vector<Scalar>& column) {
  Scalar total = 0.0;
  for (const graph::Neighbor& nb : out) total += nb.weight;
  if (total <= 0.0) return;  // dangling: all-zero column
  for (const graph::Neighbor& nb : out) {
    column[static_cast<std::size_t>(
        new_of_old[static_cast<std::size_t>(nb.node)])] +=
        sign * (nb.weight / total);
  }
}

}  // namespace

DynamicKDash::DynamicKDash(const graph::Graph& graph, Scalar restart_prob)
    : restart_prob_(restart_prob),
      num_nodes_(graph.num_nodes()),
      rebuild_us_(&obs::MetricRegistry::Global().GetHistogram(
          "dynamic.rebuild_us")) {
  KDASH_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  Factor(graph);
}

std::span<const graph::Neighbor> DynamicKDash::OutEdges(NodeId u) const {
  const auto it = std::ranges::lower_bound(pending_, u, {}, &PendingNode::node);
  if (it != pending_.end() && it->node == u) return it->out_edges;
  return base_.OutNeighbors(u);
}

int DynamicKDash::pending_columns() const {
  return static_cast<int>(std::ranges::count_if(
      pending_, [](const PendingNode& entry) { return !entry.z.empty(); }));
}

void DynamicKDash::Rebuild() {
  // The current out-lists are sorted and duplicate-free: appended in node
  // order they are the weight matrix's columns, with nothing to sort.
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> row_idx;
  std::vector<Scalar> weights;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const graph::Neighbor& nb : OutEdges(u)) {
      row_idx.push_back(nb.node);
      weights.push_back(nb.weight);
    }
    col_ptr.push_back(static_cast<Index>(row_idx.size()));
  }
  Factor(graph::Graph(sparse::CscMatrix(num_nodes_, num_nodes_,
                                        std::move(col_ptr), std::move(row_idx),
                                        std::move(weights))));
}

void DynamicKDash::Factor(graph::Graph graph) {
  const WallTimer timer;
  reorder::Reordering order =
      reorder::ComputeReordering(graph, reorder::Method::kDegree);
  // Assigned, not emplaced: the new factors are built while the old ones
  // are still held, so a failed factorization leaves the old base, order
  // and solver in place, and every rebuild peaks at the same two-factor
  // footprint instead of leaving the process's peak to allocator timing.
  base_solver_ = rwr::DirectRwrSolver(
      sparse::PermuteSymmetric(graph.NormalizedAdjacency(), order.new_of_old),
      restart_prob_);
  base_ = std::move(graph);
  order_ = std::move(order);
  pending_.clear();
  m_ = linalg::DenseMatrix();
  ++rebuild_count_;
  rebuild_us_->Record(static_cast<std::uint64_t>(timer.Micros()));
}

Status DynamicKDash::AddEdge(NodeId src, NodeId dst, Scalar weight) {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   std::to_string(src) + "->" +
                                   std::to_string(dst));
  }
  if (!(weight > 0.0 && std::isfinite(weight))) {
    return Status::InvalidArgument("edge weight must be positive and finite");
  }
  const std::span<const graph::Neighbor> current = OutEdges(src);
  std::vector<graph::Neighbor> out(current.begin(), current.end());
  const auto it =
      std::ranges::lower_bound(out, dst, {}, &graph::Neighbor::node);
  if (it != out.end() && it->node == dst) {
    it->weight += weight;
  } else {
    out.insert(it, graph::Neighbor{dst, weight});
  }
  // The column is normalized by the source's out-weight total. An infinite
  // total would zero the column (or, for an infinite entry, turn it into
  // NaNs), so the edit is refused instead of applied.
  Scalar total = 0.0;
  for (const graph::Neighbor& nb : out) total += nb.weight;
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("out-weight total of node " +
                                   std::to_string(src) +
                                   " would overflow to infinity");
  }
  UpdateColumn(src, std::move(out));
  return Status::Ok();
}

Status DynamicKDash::RemoveEdge(NodeId src, NodeId dst) {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   std::to_string(src) + "->" +
                                   std::to_string(dst));
  }
  const std::span<const graph::Neighbor> current = OutEdges(src);
  std::vector<graph::Neighbor> out(current.begin(), current.end());
  const auto it =
      std::ranges::lower_bound(out, dst, {}, &graph::Neighbor::node);
  if (it == out.end() || it->node != dst) {
    return Status::NotFound("edge " + std::to_string(src) + "->" +
                            std::to_string(dst) + " does not exist");
  }
  out.erase(it);
  UpdateColumn(src, std::move(out));
  return Status::Ok();
}

void DynamicKDash::UpdateColumn(NodeId u, std::vector<graph::Neighbor> out) {
  // D(:, u) = −(1-c)·(a_current(u) − a_base(u)), in solver order. Both
  // columns are normalized by the same helper, so a column that is back at
  // its base value gives exact zeros.
  const std::vector<NodeId>& new_of_old = order_.new_of_old;
  const std::span<const graph::Neighbor> base_out = base_.OutNeighbors(u);
  std::vector<Scalar> delta(static_cast<std::size_t>(num_nodes_), 0.0);
  AddNormalizedColumn(out, 1.0, new_of_old, delta);
  AddNormalizedColumn(base_out, -1.0, new_of_old, delta);
  const bool changed = std::ranges::any_of(
      delta, [](Scalar value) { return value != 0.0; });

  auto it = std::ranges::lower_bound(pending_, u, {}, &PendingNode::node);
  if (it == pending_.end() || it->node != u) {
    it = pending_.insert(it, PendingNode{u, {}, {}});
  }
  const bool was_column = !it->z.empty();
  it->out_edges = std::move(out);
  if (changed) {
    // Inserted first, so the rebuild reads u's new out-edges.
    if (!was_column && pending_columns() == kMaxPendingColumns) {
      Rebuild();
      return;
    }
    const Scalar damp = 1.0 - restart_prob_;
    for (auto& value : delta) value *= -damp;
    it->z = base_solver_->Solve(std::move(delta));
  } else {
    it->z = {};
    if (std::ranges::equal(it->out_edges, base_out)) pending_.erase(it);
    if (!was_column) return;
  }

  // M = (I_d + S Z)⁻¹ where S picks the changed nodes' rows of Z.
  std::vector<const PendingNode*> columns;
  for (const PendingNode& entry : pending_) {
    if (!entry.z.empty()) columns.push_back(&entry);
  }
  const int d = static_cast<int>(columns.size());
  linalg::DenseMatrix core(d, d);
  for (int r = 0; r < d; ++r) {
    const auto row = static_cast<std::size_t>(
        new_of_old[static_cast<std::size_t>(
            columns[static_cast<std::size_t>(r)]->node)]);
    for (int j = 0; j < d; ++j) {
      core(r, j) = columns[static_cast<std::size_t>(j)]->z[row];
    }
    core(r, r) += 1.0;
  }
  m_ = linalg::InvertDense(core);
}

std::vector<Scalar> DynamicKDash::SolveInSolverOrder(
    const std::vector<NodeId>& sources) const {
  KDASH_CHECK(!sources.empty());
  const std::vector<NodeId>& new_of_old = order_.new_of_old;

  // rhs = c·q with q the restart distribution placing 1/|sources| on each
  // occurrence — a duplicated source accumulates multiplicity, matching
  // KDashSearcher::Search (q = e_source for a single source).
  std::vector<Scalar> rhs(static_cast<std::size_t>(num_nodes_), 0.0);
  const Scalar restart_mass =
      restart_prob_ / static_cast<Scalar>(sources.size());
  for (const NodeId s : sources) {
    KDASH_CHECK(s >= 0 && s < num_nodes_) << "source " << s;
    rhs[static_cast<std::size_t>(new_of_old[static_cast<std::size_t>(s)])] +=
        restart_mass;
  }
  std::vector<Scalar> p = base_solver_->Solve(std::move(rhs));

  // p ← p − Z·M·(S·p), one column of Z at a time.
  std::vector<Scalar> selected;
  for (const PendingNode& entry : pending_) {
    if (entry.z.empty()) continue;
    selected.push_back(p[static_cast<std::size_t>(
        new_of_old[static_cast<std::size_t>(entry.node)])]);
  }
  if (selected.empty()) return p;
  const std::vector<Scalar> coefficients = linalg::MatVec(m_, selected);
  auto coefficient = coefficients.begin();
  for (const PendingNode& entry : pending_) {
    if (entry.z.empty()) continue;
    const Scalar scale = *coefficient++;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] -= scale * entry.z[i];
  }
  return p;
}

std::vector<Scalar> DynamicKDash::Solve(
    const std::vector<NodeId>& sources) const {
  const std::vector<Scalar> p = SolveInSolverOrder(sources);
  std::vector<Scalar> proximity(p.size());
  for (std::size_t u = 0; u < p.size(); ++u) {
    proximity[u] = p[static_cast<std::size_t>(order_.new_of_old[u])];
  }
  return proximity;
}

SearchResult DynamicKDash::Search(const Query& query) const {
  // Scanned in solver order; the heap ranks ties by node id, so the scan
  // order does not change the answer.
  const auto scores = SolveInSolverOrder(query.sources);
  const std::vector<NodeId>& old_of_new = order_.old_of_new;
  TopKHeap heap(query.k);
  if (query.exclude.empty()) {
    for (std::size_t i = 0; i < scores.size(); ++i) {
      heap.Push(old_of_new[i], scores[i]);
    }
  } else {
    std::vector<bool> excluded(scores.size(), false);
    for (const NodeId node : query.exclude) {
      KDASH_CHECK(node >= 0 && node < num_nodes_) << "excluded node " << node;
      excluded[static_cast<std::size_t>(
          order_.new_of_old[static_cast<std::size_t>(node)])] = true;
    }
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!excluded[i]) heap.Push(old_of_new[i], scores[i]);
    }
  }
  SearchResult result;
  result.top = heap.Sorted();
  // Unreachable nodes carry only numerical noise, not proximity.
  constexpr Scalar kUnreachableScore = 1e-13;
  while (!result.top.empty() && result.top.back().score < kUnreachableScore) {
    result.top.pop_back();
  }
  result.stats.nodes_visited = num_nodes_;
  result.stats.proximity_computations = num_nodes_;
  result.stats.tree_size = num_nodes_;
  return result;
}

}  // namespace kdash::core
