// Thread-scaling of the parallelized paths: the precompute's three parallel
// stages — the phase-synchronous Louvain reordering, the LU factorization's
// dense tail (see lu/sparse_lu.h) and the explicit triangular inverses (the
// Figure 6 axis) — and batch query serving, one searcher per pool rank (the
// Figure 2 axis). Prints a human-readable table plus one
// machine-readable JSON line so future changes have a perf trajectory to
// compare against; every record carries the full per-stage precompute
// breakdown (reorder / LU / L⁻¹ / U⁻¹) so the trajectory shows where any
// remaining sequential wall is, and the memory peak of one whole
// KDashIndex::Build at that thread count.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/parse_number.h"
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

// The `key` line of /proc/self/status ("VmRSS:", "VmHWM:", ...) in MB, or
// -1.
double ProcStatusMb(std::string_view key) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    std::string_view value(line);
    if (!value.starts_with(key)) continue;
    value.remove_prefix(key.size());
    value.remove_prefix(std::min(value.find_first_not_of(" \t"), value.size()));
    double kb = 0.0;
    if (!ParseNumber(value.substr(0, value.find(' ')), &kb, 0.0)) break;
    return kb / 1024.0;
  }
  return -1.0;
}

// How far one KDashIndex::Build on `threads` raises the resident
// high-water mark (VmHWM) above the resident set it starts from, in MB.
// The build runs in a forked child, which resets the mark by writing 5 to
// /proc/self/clear_refs and sends the rise back through a pipe. Call it
// before the process starts any thread: then the child begins with no
// worker arena, whereas glibc keeps a finished stage's freed memory
// resident in its workers' arenas, where a later build would reuse it and
// hide part of its peak. nullopt when the child cannot run or reset the
// mark (not Linux, or a kernel before 4.0).
std::optional<double> BuildPeakMb(const graph::Graph& graph, int threads) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t child = fork();
  if (child == 0) {
    close(fds[0]);
    double rise = -1.0;
    std::ofstream clear_refs("/proc/self/clear_refs");
    if (clear_refs << "5" << std::flush) {
      const double start_mb = ProcStatusMb("VmRSS:");
      core::KDashOptions options;
      options.num_threads = threads;
      core::KDashIndex::Build(graph, options);
      const double peak_mb = ProcStatusMb("VmHWM:");
      if (start_mb >= 0.0 && peak_mb >= 0.0) rise = peak_mb - start_mb;
    }
    _exit(write(fds[1], &rise, sizeof(rise)) == sizeof(rise) ? 0 : 1);
  }
  close(fds[1]);
  double rise = -1.0;
  const bool received =
      child > 0 && read(fds[0], &rise, sizeof(rise)) == sizeof(rise);
  close(fds[0]);
  if (child > 0) waitpid(child, nullptr, 0);
  if (!received || rise < 0.0) return std::nullopt;
  return rise;
}

int Main() {
  const auto n = static_cast<NodeId>(8000 * BenchScale());
  PrintBenchHeader("Parallel scaling: precompute + batch serving",
                   "threads x {reorder, LU and inverse seconds, build peak "
                   "MB, batch QPS}; "
                   "hardware threads: " + std::to_string(DefaultNumThreads()));

  Rng rng(42);
  const auto graph =
      graph::PowerLawCluster(n, 6, 0.6, /*directed=*/true, 0.4, rng);

  // Measure the memory peaks first, while the process has no thread (see
  // BuildPeakMb).
  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<std::optional<double>> build_peak_mb;
  for (const int threads : thread_counts) {
    build_peak_mb.push_back(BuildPeakMb(graph, threads));
  }

  const auto index = core::KDashIndex::Build(graph, {});
  const auto queries = SampleQueries(graph, 256);

  PrintTableHeader({"threads", "reord_sec", "reord_x", "lu_sec", "lu_x",
                    "linv_sec", "uinv_sec", "inv_x", "build_mb", "batch_qps",
                    "qps_x"});

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
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const int threads = thread_counts[t];
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
    const double invert_seconds = lower_inverse_seconds + upper_inverse_seconds;

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
                  {reorder_seconds, reorder_base / reorder_seconds, lu_seconds,
                   lu_base / lu_seconds, lower_inverse_seconds,
                   upper_inverse_seconds, invert_base / invert_seconds,
                   build_peak_mb[t].value_or(NAN), qps, qps / qps_base});
    JsonObject record;
    record.Add("threads", threads)
        .Add("reorder_seconds", reorder_seconds)
        .Add("reorder_speedup", reorder_base / reorder_seconds)
        .Add("lu_seconds", lu_seconds)
        .Add("lu_speedup", lu_base / lu_seconds)
        .Add("lower_inverse_seconds", lower_inverse_seconds)
        .Add("upper_inverse_seconds", upper_inverse_seconds)
        .Add("batch_qps", qps)
        .Add("batch_qps_speedup", qps / qps_base);
    if (build_peak_mb[t]) record.Add("build_peak_mb", *build_peak_mb[t]);
    records.push_back(record);
  }
  PrintJsonRecords("parallel_scaling", records);
  return 0;
}

}  // namespace
}  // namespace kdash::bench

int main() { return kdash::bench::Main(); }
