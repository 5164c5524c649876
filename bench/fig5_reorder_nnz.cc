// Figure 5: ratio of the number of nonzeros in the inverse matrices
// (L⁻¹ plus U⁻¹) to the number of graph edges, for the Degree, Cluster,
// Hybrid, and Random reorderings, on each dataset.
//
// Random ordering makes the inverses (and the benchmark) dramatically more
// expensive — exactly the paper's point — so this binary runs at a reduced
// default scale (override with KDASH_BENCH_SCALE).
#include <cstdio>

#include "bench_util.h"
#include "core/kdash_index.h"

namespace kdash {
namespace {

constexpr double kScaleMultiplier = 0.4;

void Run() {
  bench::PrintBenchHeader(
      "Figure 5 — Effect of reordering approaches",
      "nnz(L^-1) + nnz(U^-1) divided by the number of edges m; c = 0.95");

  const auto all = bench::LoadAllDatasets(kScaleMultiplier);
  const std::vector<reorder::Method> methods = {
      reorder::Method::kDegree, reorder::Method::kCluster,
      reorder::Method::kHybrid, reorder::Method::kRcm,
      reorder::Method::kRandom};

  // Two accountings:
  //  * exact:   every numerically nonzero entry is kept (drop tolerance 0,
  //             K-dash's default — the exactness guarantee of Theorem 2).
  //             The inverse of a triangular factor is reachability-dense,
  //             so these counts include entries down to ~(1-c)^depth.
  //  * eps:     entries below double-precision ranking resolution (1e-16)
  //             dropped. This is the accounting under which the paper's
  //             "number of non-zero elements is O(m)" claim is reproducible
  //             (it drops the sub-1e-16 reachability tail counted
  //             above); top-5 results are unaffected at this tolerance
  //             (ablation_drop_tolerance).
  for (const double tolerance : {0.0, 1e-16}) {
    std::printf("\n--- drop tolerance %.0e (%s) ---\n", tolerance,
                tolerance == 0.0 ? "exact" : "machine-precision accounting");
    bench::PrintTableHeader(
        {"dataset", "Degree", "Cluster", "Hybrid", "RCM", "Random"});
    for (const auto& dataset : all) {
      std::vector<double> row;
      for (const auto method : methods) {
        core::KDashOptions options;
        options.reorder_method = method;
        options.drop_tolerance = tolerance;
        const auto index = core::KDashIndex::Build(dataset.graph, options);
        const double nnz = static_cast<double>(
            index.stats().nnz_lower_inverse + index.stats().nnz_upper_inverse);
        row.push_back(nnz / static_cast<double>(dataset.graph.num_edges()));
      }
      bench::PrintTableRow(dataset.name, row, "%14.2f");
      std::fflush(stdout);
    }
  }

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
