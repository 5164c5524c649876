// B_LIN (Tong et al., ICDM 2006): the partitioned variant of NB_LIN that
// Theorem 3 of the K-dash paper also covers.
//
// Precompute: partition the graph (the authors used METIS; we use our
// Louvain partitioner, which the reordering already ships, so no external
// partitioner is needed), split A = A₁ + A₂ into
// within-partition and cross-partition parts, factor W₁ = I - (1-c)A₁
// exactly (block-diagonal, so the explicit inverse stays block-sparse), and
// approximate A₂ by a rank-r SVD. By Sherman–Morrison–Woodbury:
//   W⁻¹ ≈ W₁⁻¹ + (1-c) W₁⁻¹ U Λ Vᵀ W₁⁻¹,
//   Λ = (Σ⁻¹ - (1-c) Vᵀ W₁⁻¹ U)⁻¹.
// Query: p̃ = c [ w + (1-c) Ũ Λ (V W ᵀ-row lookup) ] with w = W₁⁻¹ e_q a
// stored sparse column and Ũ = W₁⁻¹U precomputed dense.
#ifndef KDASH_BASELINES_B_LIN_H_
#define KDASH_BASELINES_B_LIN_H_

#include <cstdint>
#include <vector>

#include "common/top_k.h"
#include "common/types.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "sparse/csc_matrix.h"

namespace kdash::baselines {

struct BLinOptions {
  Scalar restart_prob = 0.95;
  int target_rank = 100;
  std::uint64_t seed = 42;
};

class BLin {
 public:
  BLin(const graph::Graph& graph, const BLinOptions& options);

  std::vector<Scalar> Solve(NodeId query) const;
  std::vector<ScoredNode> TopK(NodeId query, std::size_t k) const;

  NodeId num_partitions() const { return num_partitions_; }
  double precompute_seconds() const { return precompute_seconds_; }

 private:
  BLinOptions options_;
  NodeId num_nodes_ = 0;
  NodeId num_partitions_ = 0;
  sparse::CscMatrix w1_inverse_;     // block-sparse exact inverse of W₁
  linalg::DenseMatrix u_tilde_;      // W₁⁻¹ U, n × r
  linalg::DenseMatrix v_;            // n × r (right singular vectors of A₂)
  linalg::DenseMatrix lambda_;       // r × r
  double precompute_seconds_ = 0.0;
};

}  // namespace kdash::baselines

#endif  // KDASH_BASELINES_B_LIN_H_
