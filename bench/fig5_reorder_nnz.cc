// Figure 5: ratio of the number of nonzeros in the inverse matrices
// (L⁻¹ plus U⁻¹) to the number of graph edges, for the Degree, Cluster,
// Hybrid, and Random reorderings, on each dataset.
//
// Random ordering makes the inverses (and the benchmark) dramatically more
// expensive — exactly the paper's point — so this binary runs at a reduced
// default scale (override with KDASH_BENCH_SCALE).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/kdash_index.h"

namespace kdash {
namespace {

constexpr double kScaleMultiplier = 0.4;

// Entries of a square matrix that are on the diagonal or above 1e-16 in
// magnitude (the same count for the matrix and its transpose).
Index CountAboveEps(const sparse::CscMatrix& m) {
  Index count = 0;
  for (NodeId col = 0; col < m.cols(); ++col) {
    for (Index k = m.ColBegin(col); k < m.ColEnd(col); ++k) {
      if (m.RowIndex(k) == col || std::abs(m.Value(k)) > 1e-16) ++count;
    }
  }
  return count;
}

void Run() {
  bench::PrintBenchHeader(
      "Figure 5 — Effect of reordering approaches",
      "nnz(L^-1) + nnz(U^-1) divided by the number of edges m; c = 0.95");

  const auto all = bench::LoadAllDatasets(kScaleMultiplier);
  const std::vector<reorder::Method> methods = {
      reorder::Method::kDegree, reorder::Method::kCluster,
      reorder::Method::kHybrid, reorder::Method::kRcm,
      reorder::Method::kRandom};

  // Two accountings of the same exact index:
  //  * exact:   every stored entry — every numerically nonzero value, the
  //             exactness guarantee of Theorem 2. The inverse of a
  //             triangular factor is reachability-dense, so these counts
  //             include entries down to ~(1-c)^depth.
  //  * eps:     only the diagonal and the entries above double-precision
  //             ranking resolution (|v| > 1e-16). This is the accounting
  //             under which the paper's "number of non-zero elements is
  //             O(m)" claim is reproducible (it leaves out the sub-1e-16
  //             reachability tail counted above).
  std::vector<std::vector<double>> exact(all.size());
  std::vector<std::vector<double>> eps(all.size());
  for (std::size_t d = 0; d < all.size(); ++d) {
    const double edges = static_cast<double>(all[d].graph.num_edges());
    for (const auto method : methods) {
      core::KDashOptions options;
      options.reorder_method = method;
      const auto index = core::KDashIndex::Build(all[d].graph, options);
      const sparse::CscMatrix lower = index.lower_inverse().ToCsc();
      const sparse::CscMatrix upper = index.upper_inverse().ToCsc();
      exact[d].push_back(
          static_cast<double>(lower.nnz() + upper.nnz()) / edges);
      eps[d].push_back(
          static_cast<double>(CountAboveEps(lower) + CountAboveEps(upper)) /
          edges);
    }
  }
  for (const bool machine_precision : {false, true}) {
    std::printf("\n--- %s ---\n",
                machine_precision
                    ? "|v| > 1e-16 plus the diagonal (machine-precision "
                      "accounting)"
                    : "every stored entry (exact)");
    bench::PrintTableHeader(
        {"dataset", "Degree", "Cluster", "Hybrid", "RCM", "Random"});
    for (std::size_t d = 0; d < all.size(); ++d) {
      bench::PrintTableRow(all[d].name, machine_precision ? eps[d] : exact[d],
                           "%14.2f");
    }
  }
  std::fflush(stdout);

  std::printf(
      "\nExpected shape (paper): Degree/Cluster/Hybrid give far fewer\n"
      "nonzeros than Random, with the hybrid/cluster orderings exploiting\n"
      "the block structure; under the machine-precision accounting the\n"
      "sparsity-aware orderings approach the size of the graph itself.\n");
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
