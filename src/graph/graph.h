// Directed weighted graph container.
//
// The random walk in RWR follows *out*-edges, so the primary adjacency is
// the out-lists; the in-lists beside them are their exact transpose (same
// entries, same weight bits), read by reorder's degree order and border
// detection, Louvain's symmetrization, IsSymmetric and ComputeStats. Node
// ids are dense [0, n). Parallel edges are merged (weights summed) once, by
// GraphBuilder; self-loops are allowed (the paper's estimator handles
// A(u,u) ≠ 0 explicitly through the c′(u) factor).
#ifndef KDASH_GRAPH_GRAPH_H_
#define KDASH_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sparse/coo_builder.h"
#include "sparse/csc_matrix.h"

namespace kdash::graph {

// One directed edge endpoint with weight, as seen from an adjacency list.
struct Neighbor {
  NodeId node = kInvalidNode;
  Scalar weight = 1.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

class Graph {
 public:
  Graph() = default;

  // The graph whose node v has column v of the square `weights` as its
  // out-list: weights(u, v) = w(v→u), rows ascending and unique (the CSC
  // invariant), every weight positive. The in-lists are weights' transpose.
  explicit Graph(const sparse::CscMatrix& weights);

  NodeId num_nodes() const { return num_nodes_; }
  // Number of distinct directed edges after merging duplicates.
  Index num_edges() const { return static_cast<Index>(out_neighbors_.size()); }

  std::span<const Neighbor> OutNeighbors(NodeId u) const {
    return {out_neighbors_.data() + out_ptr_[static_cast<std::size_t>(u)],
            out_neighbors_.data() + out_ptr_[static_cast<std::size_t>(u) + 1]};
  }

  std::span<const Neighbor> InNeighbors(NodeId u) const {
    return {in_neighbors_.data() + in_ptr_[static_cast<std::size_t>(u)],
            in_neighbors_.data() + in_ptr_[static_cast<std::size_t>(u) + 1]};
  }

  Index OutDegree(NodeId u) const {
    return out_ptr_[static_cast<std::size_t>(u) + 1] - out_ptr_[static_cast<std::size_t>(u)];
  }
  Index InDegree(NodeId u) const {
    return in_ptr_[static_cast<std::size_t>(u) + 1] - in_ptr_[static_cast<std::size_t>(u)];
  }
  // Total degree (in + out); the ordering heuristics sort by this.
  Index Degree(NodeId u) const { return OutDegree(u) + InDegree(u); }

  // Sum of out-edge weights of u (0 for dangling nodes).
  Scalar OutWeight(NodeId u) const { return out_weight_[static_cast<std::size_t>(u)]; }

  // The column-normalized adjacency matrix A of the paper: A(u, v) is the
  // probability of stepping to u from v, i.e., w(v→u) / Σ_x w(v→x).
  // Columns of dangling nodes are all-zero (sub-stochastic), a convention
  // shared by every engine in this library.
  sparse::CscMatrix NormalizedAdjacency() const;

  // True if for every edge u→v the edge v→u also exists, i.e., every
  // node's out-list and in-list name the same nodes.
  bool IsSymmetric() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<Index> out_ptr_ = {0};
  std::vector<Neighbor> out_neighbors_;  // sorted by node within each list
  std::vector<Index> in_ptr_ = {0};
  std::vector<Neighbor> in_neighbors_;
  std::vector<Scalar> out_weight_;
};

// Incremental edge accumulator. AddEdge / AddUndirectedEdge, then Build().
// The one place a graph's edges are sorted and duplicates summed: every
// later form of the graph (in-lists, A, P·A·Pᵀ, W) is a linear pass over
// the sorted columns.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : edges_(num_nodes, num_nodes) {
    KDASH_CHECK(num_nodes >= 0);
  }

  void AddEdge(NodeId src, NodeId dst, Scalar weight = 1.0) {
    KDASH_CHECK(src >= 0 && src < num_nodes()) << "src " << src;
    KDASH_CHECK(dst >= 0 && dst < num_nodes()) << "dst " << dst;
    KDASH_CHECK(weight > 0.0) << "non-positive weight";
    edges_.Add(/*row=*/dst, /*col=*/src, weight);
  }

  // Adds both directions. Self-loops are added once.
  void AddUndirectedEdge(NodeId a, NodeId b, Scalar weight = 1.0) {
    AddEdge(a, b, weight);
    if (a != b) AddEdge(b, a, weight);
  }

  NodeId num_nodes() const { return edges_.cols(); }

  Graph Build() &&;

 private:
  sparse::CooBuilder edges_;  // w(src→dst) at (row dst, col src)
};

// Basic structural statistics, used by dataset tests and the bench headers.
struct GraphStats {
  NodeId num_nodes = 0;
  Index num_edges = 0;
  Index max_out_degree = 0;
  Index max_in_degree = 0;
  double avg_degree = 0.0;
  NodeId num_dangling = 0;  // nodes with no out-edges
};

GraphStats ComputeStats(const Graph& graph);

// Human-readable one-line summary.
std::string DescribeGraph(const Graph& graph);

}  // namespace kdash::graph

#endif  // KDASH_GRAPH_GRAPH_H_
