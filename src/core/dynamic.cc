#include "core/dynamic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "common/top_k.h"
#include "sparse/coo_builder.h"

namespace kdash::core {

namespace {

// Total degree (in + out) of every node of a mutable adjacency map, counted
// as graph::Graph::Degree counts it (a self-loop adds one to each side).
std::vector<Index> TotalDegrees(
    const std::vector<std::map<NodeId, Scalar>>& out_edges) {
  std::vector<Index> degree(out_edges.size(), 0);
  for (std::size_t v = 0; v < out_edges.size(); ++v) {
    degree[v] += static_cast<Index>(out_edges[v].size());
    for (const auto& [dst, weight] : out_edges[v]) {
      ++degree[static_cast<std::size_t>(dst)];
    }
  }
  return degree;
}

// Normalized adjacency from a mutable adjacency-map representation,
// permuted into solver order: P·A·Pᵀ.
sparse::CscMatrix NormalizedFromMaps(
    NodeId n, const std::vector<std::map<NodeId, Scalar>>& out_edges,
    const std::vector<NodeId>& new_of_old) {
  sparse::CooBuilder builder(n, n);
  for (NodeId v = 0; v < n; ++v) {
    Scalar total = 0.0;
    for (const auto& [dst, weight] : out_edges[static_cast<std::size_t>(v)]) {
      total += weight;
    }
    if (total <= 0.0) continue;
    const NodeId column = new_of_old[static_cast<std::size_t>(v)];
    for (const auto& [dst, weight] : out_edges[static_cast<std::size_t>(v)]) {
      builder.Add(new_of_old[static_cast<std::size_t>(dst)], column,
                  weight / total);
    }
  }
  return builder.BuildCsc();
}

}  // namespace

DynamicKDash::DynamicKDash(const graph::Graph& graph, Scalar restart_prob)
    : restart_prob_(restart_prob),
      num_nodes_(graph.num_nodes()),
      rebuild_us_(&obs::MetricRegistry::Global().GetHistogram(
          "dynamic.rebuild_us")) {
  KDASH_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  out_edges_.resize(static_cast<std::size_t>(num_nodes_));
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const graph::Neighbor& nb : graph.OutNeighbors(u)) {
      out_edges_[static_cast<std::size_t>(u)][nb.node] = nb.weight;
    }
  }
  Rebuild();
}

void DynamicKDash::Rebuild() {
  const WallTimer timer;
  reorder::Reordering order =
      reorder::AscendingDegreeReordering(TotalDegrees(out_edges_));
  sparse::CscMatrix base_a =
      NormalizedFromMaps(num_nodes_, out_edges_, order.new_of_old);
  // Assigned, not emplaced: the new factors are built while the old ones
  // are still held, so a failed factorization leaves the old order, system
  // and solver in place, and every rebuild peaks at the same two-factor
  // footprint instead of leaving the process's peak to allocator timing.
  base_solver_ = rwr::DirectRwrSolver(base_a, restart_prob_);
  order_ = std::move(order);
  base_a_ = std::move(base_a);
  delta_columns_.clear();
  z_columns_.clear();
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
  // The column is normalized by the source's out-weight total, summed in
  // the same map order NormalizedFromMaps uses. An infinite total would
  // zero the column (or, for an infinite entry, turn it into NaNs), so the
  // update is rolled back instead of applied.
  auto& edges = out_edges_[static_cast<std::size_t>(src)];
  const auto [it, inserted] = edges.try_emplace(dst, 0.0);
  const Scalar previous = it->second;
  it->second += weight;
  Scalar total = 0.0;
  for (const auto& [node, edge_weight] : edges) total += edge_weight;
  if (!std::isfinite(total)) {
    if (inserted) {
      edges.erase(it);
    } else {
      it->second = previous;
    }
    return Status::InvalidArgument("out-weight total of node " +
                                   std::to_string(src) +
                                   " would overflow to infinity");
  }
  UpdateColumn(src);
  return Status::Ok();
}

Status DynamicKDash::RemoveEdge(NodeId src, NodeId dst) {
  if (src < 0 || src >= num_nodes_ || dst < 0 || dst >= num_nodes_) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   std::to_string(src) + "->" +
                                   std::to_string(dst));
  }
  auto& edges = out_edges_[static_cast<std::size_t>(src)];
  const auto it = edges.find(dst);
  if (it == edges.end()) {
    return Status::NotFound("edge " + std::to_string(src) + "->" +
                            std::to_string(dst) + " does not exist");
  }
  edges.erase(it);
  UpdateColumn(src);
  return Status::Ok();
}

void DynamicKDash::UpdateColumn(NodeId u) {
  // D(:, u) = −(1-c)·(a_current(u) − a_base(u)), in solver order. Both
  // columns are normalized from the same map in the same order as
  // NormalizedFromMaps, so a column that is back at its base value gives
  // exact zeros.
  const std::vector<NodeId>& new_of_old = order_.new_of_old;
  std::vector<Scalar> delta(static_cast<std::size_t>(num_nodes_), 0.0);
  const auto& edges = out_edges_[static_cast<std::size_t>(u)];
  Scalar total = 0.0;
  for (const auto& [dst, weight] : edges) total += weight;
  if (total > 0.0) {
    for (const auto& [dst, weight] : edges) {
      delta[static_cast<std::size_t>(
          new_of_old[static_cast<std::size_t>(dst)])] = weight / total;
    }
  }
  const NodeId column = new_of_old[static_cast<std::size_t>(u)];
  for (Index k = base_a_.ColBegin(column); k < base_a_.ColEnd(column); ++k) {
    delta[static_cast<std::size_t>(base_a_.RowIndex(k))] -= base_a_.Value(k);
  }
  const bool restored = std::all_of(delta.begin(), delta.end(),
                                    [](Scalar value) { return value == 0.0; });

  const auto it =
      std::lower_bound(delta_columns_.begin(), delta_columns_.end(), u);
  const auto z_it = z_columns_.begin() + (it - delta_columns_.begin());
  const bool pending = it != delta_columns_.end() && *it == u;
  if (restored) {
    if (!pending) return;
    delta_columns_.erase(it);
    z_columns_.erase(z_it);
  } else {
    if (!pending &&
        static_cast<int>(delta_columns_.size()) == kMaxPendingColumns) {
      Rebuild();
      return;
    }
    const Scalar damp = 1.0 - restart_prob_;
    for (auto& value : delta) value *= -damp;
    std::vector<Scalar> column = base_solver_->Solve(std::move(delta));
    if (pending) {
      *z_it = std::move(column);
    } else {
      delta_columns_.insert(it, u);
      z_columns_.insert(z_it, std::move(column));
    }
  }

  // M = (I_d + S Z)⁻¹ where S picks the changed nodes' rows of Z.
  const int d = static_cast<int>(delta_columns_.size());
  linalg::DenseMatrix core(d, d);
  for (int r = 0; r < d; ++r) {
    const NodeId node = delta_columns_[static_cast<std::size_t>(r)];
    const auto row =
        static_cast<std::size_t>(new_of_old[static_cast<std::size_t>(node)]);
    for (int j = 0; j < d; ++j) {
      core(r, j) = z_columns_[static_cast<std::size_t>(j)][row];
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
  const int d = static_cast<int>(delta_columns_.size());
  if (d == 0) return p;

  // p ← p − Z·M·(S·p), one column of Z at a time.
  std::vector<Scalar> selected(static_cast<std::size_t>(d), 0.0);
  for (int r = 0; r < d; ++r) {
    const NodeId node = delta_columns_[static_cast<std::size_t>(r)];
    selected[static_cast<std::size_t>(r)] =
        p[static_cast<std::size_t>(new_of_old[static_cast<std::size_t>(node)])];
  }
  const std::vector<Scalar> coefficients = linalg::MatVec(m_, selected);
  for (int j = 0; j < d; ++j) {
    const Scalar coefficient = coefficients[static_cast<std::size_t>(j)];
    const std::vector<Scalar>& z = z_columns_[static_cast<std::size_t>(j)];
    for (std::size_t i = 0; i < p.size(); ++i) p[i] -= coefficient * z[i];
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
