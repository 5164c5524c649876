#include "graph/graph.h"

#include <algorithm>
#include <sstream>

namespace kdash::graph {

namespace {

// Adjacency lists (ptr + neighbor array) in which list v is column v of `m`.
void AssignLists(const sparse::CscMatrix& m, std::vector<Index>& ptr,
                 std::vector<Neighbor>& adj) {
  ptr = m.col_ptr();
  adj.resize(static_cast<std::size_t>(m.nnz()));
  for (Index k = 0; k < m.nnz(); ++k) {
    adj[static_cast<std::size_t>(k)] = Neighbor{m.RowIndex(k), m.Value(k)};
  }
}

}  // namespace

Graph::Graph(const sparse::CscMatrix& weights) : num_nodes_(weights.cols()) {
  KDASH_CHECK_EQ(weights.rows(), weights.cols());
  AssignLists(weights, out_ptr_, out_neighbors_);
  AssignLists(weights.Transposed(), in_ptr_, in_neighbors_);
  out_weight_.assign(static_cast<std::size_t>(num_nodes_), 0.0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    Scalar total = 0.0;
    for (const Neighbor& nb : OutNeighbors(u)) total += nb.weight;
    out_weight_[static_cast<std::size_t>(u)] = total;
  }
}

sparse::CscMatrix Graph::NormalizedAdjacency() const {
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (const Neighbor& nb : OutNeighbors(v)) {
      row_idx.push_back(nb.node);
      values.push_back(nb.weight / OutWeight(v));
    }
  }
  return sparse::CscMatrix(num_nodes_, num_nodes_, out_ptr_, std::move(row_idx),
                           std::move(values));
}

bool Graph::IsSymmetric() const {
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (!std::ranges::equal(OutNeighbors(u), InNeighbors(u), {},
                            &Neighbor::node, &Neighbor::node)) {
      return false;
    }
  }
  return true;
}

Graph GraphBuilder::Build() && { return Graph(edges_.BuildCsc()); }

GraphStats ComputeStats(const Graph& graph) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    stats.max_out_degree = std::max(stats.max_out_degree, graph.OutDegree(u));
    stats.max_in_degree = std::max(stats.max_in_degree, graph.InDegree(u));
    if (graph.OutDegree(u) == 0) ++stats.num_dangling;
  }
  stats.avg_degree = graph.num_nodes() > 0
                         ? static_cast<double>(graph.num_edges()) /
                               static_cast<double>(graph.num_nodes())
                         : 0.0;
  return stats;
}

std::string DescribeGraph(const Graph& graph) {
  const GraphStats s = ComputeStats(graph);
  std::ostringstream os;
  os << "n=" << s.num_nodes << " m=" << s.num_edges
     << " avg_out_deg=" << s.avg_degree << " max_out=" << s.max_out_degree
     << " max_in=" << s.max_in_degree << " dangling=" << s.num_dangling;
  return os.str();
}

}  // namespace kdash::graph
