// Thread-scaling of the parallelized paths: the precompute's three parallel
// stages — the phase-synchronous Louvain reordering, the LU factorization's
// dense tail (see lu/sparse_lu.h) and the explicit triangular inverses (the
// Figure 6 axis) — and batch query serving, one searcher per pool rank (the
// Figure 2 axis). Prints a human-readable table plus one
// machine-readable JSON line so future changes have a perf trajectory to
// compare against; every record carries the full per-stage precompute
// breakdown (reorder / LU / L⁻¹ / U⁻¹) so the trajectory shows where any
// remaining sequential wall is.
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "graph/generators.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "reorder/reorder.h"
#include "sparse/permute.h"

namespace kdash::bench {
namespace {

int Main() {
  const auto n = static_cast<NodeId>(8000 * BenchScale());
  PrintBenchHeader("Parallel scaling: precompute + batch serving",
                   "threads x {reorder, LU and inverse seconds, batch QPS}; "
                   "hardware threads: " + std::to_string(DefaultNumThreads()));

  Rng rng(42);
  const auto graph =
      graph::PowerLawCluster(n, 6, 0.6, /*directed=*/true, 0.4, rng);

  const auto index = core::KDashIndex::Build(graph, {});
  const auto queries = SampleQueries(graph, 256);

  const std::vector<int> thread_counts{1, 2, 4, 8};
  PrintTableHeader({"threads", "reord_sec", "reord_x", "lu_sec", "lu_x",
                    "linv_sec", "uinv_sec", "inv_x", "batch_qps", "qps_x"});

  // Downstream stage inputs (exactly as KDashIndex::Build stages them),
  // produced by the t=1 timing loop's last rep below — the reordering is
  // deterministic at every thread count, so no separate staging run is
  // needed. The LU is identical at every thread count too.
  reorder::Reordering order;
  sparse::CscMatrix w;
  lu::LuFactors factors;

  std::vector<JsonObject> records;
  double reorder_base = 0.0;
  double lu_base = 0.0;
  double invert_base = 0.0;
  double qps_base = 0.0;
  for (const int threads : thread_counts) {
    reorder::ReorderOptions reorder_options;
    reorder_options.num_threads = threads;
    const double reorder_seconds = MedianSeconds(
        [&] {
          order = reorder::ComputeReordering(graph, reorder::Method::kHybrid,
                                             reorder_options);
        },
        3);
    if (threads == thread_counts.front()) {
      const auto a_perm = sparse::PermuteSymmetric(graph.NormalizedAdjacency(),
                                                   order.new_of_old);
      w = lu::BuildRwrSystemMatrix(a_perm, 0.95);
    }
    const double lu_seconds =
        MedianSeconds([&] { factors = lu::FactorizeLu(w, threads); }, 3);
    const double lower_inverse_seconds = MedianSeconds(
        [&] { lu::InvertLowerTriangular(factors.lower, threads); }, 3);
    const double upper_inverse_seconds = MedianSeconds(
        [&] { lu::InvertUpperTriangular(factors.upper, threads); }, 3);
    // The legacy index_build_seconds key keeps its original methodology (one
    // combined L⁻¹ + U⁻¹ timing) so the cross-PR trajectory stays comparable.
    const double invert_seconds = MedianSeconds(
        [&] {
          lu::InvertLowerTriangular(factors.lower, threads);
          lu::InvertUpperTriangular(factors.upper, threads);
        },
        3);

    // Batch serving as Engine::SearchBatch runs it: each rank of a
    // `threads`-sized pool keeps one searcher and pulls queries off a
    // shared cursor.
    ThreadPool pool(threads);
    std::vector<std::unique_ptr<core::KDashSearcher>> searchers;
    for (int rank = 0; rank < threads; ++rank) {
      searchers.push_back(std::make_unique<core::KDashSearcher>(&index));
    }
    const double batch_seconds = MedianSeconds(
        [&] {
          std::atomic<std::size_t> cursor{0};
          pool.RunOnAllThreads([&](int rank) {
            core::KDashSearcher& searcher =
                *searchers[static_cast<std::size_t>(rank)];
            for (std::size_t i = cursor.fetch_add(1); i < queries.size();
                 i = cursor.fetch_add(1)) {
              searcher.Search(Query::Single(queries[i], 10));
            }
          });
        },
        3);
    const double qps = static_cast<double>(queries.size()) / batch_seconds;

    if (threads == 1) {
      reorder_base = reorder_seconds;
      lu_base = lu_seconds;
      invert_base = invert_seconds;
      qps_base = qps;
    }
    PrintTableRow("t=" + std::to_string(threads),
                  {static_cast<double>(threads), reorder_seconds,
                   reorder_base / reorder_seconds, lu_seconds,
                   lu_base / lu_seconds, lower_inverse_seconds,
                   upper_inverse_seconds, invert_base / invert_seconds, qps,
                   qps / qps_base});
    records.push_back(JsonObject()
                          .Add("threads", threads)
                          .Add("reorder_seconds", reorder_seconds)
                          .Add("reorder_speedup", reorder_base / reorder_seconds)
                          .Add("lu_seconds", lu_seconds)
                          .Add("lu_speedup", lu_base / lu_seconds)
                          .Add("lower_inverse_seconds", lower_inverse_seconds)
                          .Add("upper_inverse_seconds", upper_inverse_seconds)
                          .Add("index_build_seconds", invert_seconds)
                          .Add("index_build_speedup", invert_base / invert_seconds)
                          .Add("batch_qps", qps)
                          .Add("batch_qps_speedup", qps / qps_base));
  }
  PrintJsonRecords("parallel_scaling", records);
  return 0;
}

}  // namespace
}  // namespace kdash::bench

int main() { return kdash::bench::Main(); }
