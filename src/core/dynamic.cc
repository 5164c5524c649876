#include "core/dynamic.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/top_k.h"
#include "sparse/coo_builder.h"

namespace kdash::core {

namespace {

// Normalized adjacency from a mutable adjacency-map representation.
sparse::CscMatrix NormalizedFromMaps(
    NodeId n, const std::vector<std::map<NodeId, Scalar>>& out_edges) {
  sparse::CooBuilder builder(n, n);
  for (NodeId v = 0; v < n; ++v) {
    Scalar total = 0.0;
    for (const auto& [dst, weight] : out_edges[static_cast<std::size_t>(v)]) {
      total += weight;
    }
    if (total <= 0.0) continue;
    for (const auto& [dst, weight] : out_edges[static_cast<std::size_t>(v)]) {
      builder.Add(dst, v, weight / total);
    }
  }
  return builder.BuildCsc();
}

}  // namespace

DynamicKDash::DynamicKDash(const graph::Graph& graph, Scalar restart_prob)
    : restart_prob_(restart_prob), num_nodes_(graph.num_nodes()) {
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
  base_a_ = NormalizedFromMaps(num_nodes_, out_edges_);
  // Assigned, not emplaced: the new factors are built while the old ones
  // are still held, so a failed factorization leaves the old solver in
  // place, and every rebuild peaks at the same two-factor footprint instead
  // of leaving the process's peak to allocator timing.
  base_solver_ = rwr::DirectRwrSolver(base_a_, restart_prob_);
  delta_columns_.clear();
  z_ = linalg::DenseMatrix();
  m_ = linalg::DenseMatrix();
  correction_fresh_ = true;
  ++rebuild_count_;
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
  MarkColumnChanged(src);
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
  MarkColumnChanged(src);
  return Status::Ok();
}

void DynamicKDash::MarkColumnChanged(NodeId u) {
  const auto it =
      std::lower_bound(delta_columns_.begin(), delta_columns_.end(), u);
  if (it == delta_columns_.end() || *it != u) {
    delta_columns_.insert(it, u);
  }
  correction_fresh_ = false;
  if (static_cast<int>(delta_columns_.size()) > kMaxPendingColumns) {
    Rebuild();
  }
}

std::vector<Scalar> DynamicKDash::CurrentColumn(NodeId u) const {
  std::vector<Scalar> column(static_cast<std::size_t>(num_nodes_), 0.0);
  Scalar total = 0.0;
  for (const auto& [dst, weight] : out_edges_[static_cast<std::size_t>(u)]) {
    total += weight;
  }
  if (total <= 0.0) return column;
  for (const auto& [dst, weight] : out_edges_[static_cast<std::size_t>(u)]) {
    column[static_cast<std::size_t>(dst)] = weight / total;
  }
  return column;
}

void DynamicKDash::RefreshCorrection() {
  const int d = static_cast<int>(delta_columns_.size());
  const Scalar damp = 1.0 - restart_prob_;

  // Z = W₀⁻¹ D, one triangular-solve pair per changed column. The delta of
  // column u is −(1-c)·(a_current(u) − a_base(u)).
  z_ = linalg::DenseMatrix(num_nodes_, d);
  for (int j = 0; j < d; ++j) {
    const NodeId u = delta_columns_[static_cast<std::size_t>(j)];
    std::vector<Scalar> delta = CurrentColumn(u);
    for (Index k = base_a_.ColBegin(u); k < base_a_.ColEnd(u); ++k) {
      delta[static_cast<std::size_t>(base_a_.RowIndex(k))] -= base_a_.Value(k);
    }
    for (auto& value : delta) value *= -damp;
    const std::vector<Scalar> column = base_solver_->Solve(std::move(delta));
    for (NodeId i = 0; i < num_nodes_; ++i) {
      z_(i, j) = column[static_cast<std::size_t>(i)];
    }
  }

  // M = (I_d + S Z)⁻¹ where S picks the changed rows of Z.
  linalg::DenseMatrix core(d, d);
  for (int r = 0; r < d; ++r) {
    const NodeId u = delta_columns_[static_cast<std::size_t>(r)];
    for (int j = 0; j < d; ++j) core(r, j) = z_(u, j);
    core(r, r) += 1.0;
  }
  m_ = linalg::InvertDense(core);
  correction_fresh_ = true;
}

std::vector<Scalar> DynamicKDash::Solve(const std::vector<NodeId>& sources) {
  KDASH_CHECK(!sources.empty());
  if (!correction_fresh_) RefreshCorrection();

  // rhs = c·q with q the restart distribution placing 1/|sources| on each
  // occurrence — a duplicated source accumulates multiplicity, matching
  // KDashSearcher::Search (q = e_source for a single source).
  std::vector<Scalar> rhs(static_cast<std::size_t>(num_nodes_), 0.0);
  const Scalar restart_mass =
      restart_prob_ / static_cast<Scalar>(sources.size());
  for (const NodeId s : sources) {
    KDASH_CHECK(s >= 0 && s < num_nodes_) << "source " << s;
    rhs[static_cast<std::size_t>(s)] += restart_mass;
  }
  std::vector<Scalar> p = base_solver_->Solve(std::move(rhs));
  const int d = static_cast<int>(delta_columns_.size());
  if (d == 0) return p;

  // p ← p − Z·M·(S·p).
  std::vector<Scalar> selected(static_cast<std::size_t>(d), 0.0);
  for (int r = 0; r < d; ++r) {
    selected[static_cast<std::size_t>(r)] =
        p[static_cast<std::size_t>(delta_columns_[static_cast<std::size_t>(r)])];
  }
  const std::vector<Scalar> coefficients = linalg::MatVec(m_, selected);
  const std::vector<Scalar> correction = linalg::MatVec(z_, coefficients);
  for (NodeId i = 0; i < num_nodes_; ++i) {
    p[static_cast<std::size_t>(i)] -= correction[static_cast<std::size_t>(i)];
  }
  return p;
}

SearchResult DynamicKDash::Search(const Query& query) {
  const auto scores = Solve(query.sources);
  TopKHeap heap(query.k);
  if (query.exclude.empty()) {
    for (std::size_t u = 0; u < scores.size(); ++u) {
      heap.Push(static_cast<NodeId>(u), scores[u]);
    }
  } else {
    std::vector<bool> excluded(scores.size(), false);
    for (const NodeId node : query.exclude) {
      KDASH_CHECK(node >= 0 && node < num_nodes_) << "excluded node " << node;
      excluded[static_cast<std::size_t>(node)] = true;
    }
    for (std::size_t u = 0; u < scores.size(); ++u) {
      if (!excluded[u]) heap.Push(static_cast<NodeId>(u), scores[u]);
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
