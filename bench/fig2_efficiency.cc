// Figure 2: query wall-clock time of K-dash(5/25/50), NB_LIN(low/high rank)
// and Basic Push Algorithm(5/25/50) on the five datasets.
//
// The paper sweeps SVD target ranks {100, 1000} and 1,000 hub nodes on
// full-size datasets; ranks and hub counts here scale with the dataset so
// their *ratio* to n matches the paper's (fixed counts would cover a far
// larger share of the reduced graphs than they did of the paper's).
#include <cstdio>

#include "baselines/basic_push.h"
#include "baselines/nb_lin.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Figure 2 — Efficiency of K-dash",
      "median per-query wall clock [s]; c = 0.95, hybrid reordering");

  const auto all = bench::LoadAllDatasets();
  // Paper: ranks 100 / 1000 at n = 13k..265k → keep rank/n ratios similar.
  const int queries_per_dataset = 10;

  bench::PrintTableHeader({"dataset", "K-dash(5)", "K-dash(25)", "K-dash(50)",
                           "NB_LIN(lo)", "NB_LIN(hi)", "BPA(5)", "BPA(25)",
                           "BPA(50)"});

  for (const auto& dataset : all) {
    const auto& graph = dataset.graph;
    const auto a = graph.NormalizedAdjacency();
    const auto queries = bench::SampleQueries(graph, queries_per_dataset);

    const int rank_lo = std::max(8, static_cast<int>(graph.num_nodes()) / 128);
    const int rank_hi = std::max(32, static_cast<int>(graph.num_nodes()) / 24);
    const int hubs = std::max(16, static_cast<int>(graph.num_nodes()) / 24);

    const auto index = core::KDashIndex::Build(graph, {});
    core::KDashSearcher searcher(&index);
    const baselines::NbLin nb_lo(a, {.restart_prob = 0.95, .target_rank = rank_lo});
    const baselines::NbLin nb_hi(a, {.restart_prob = 0.95, .target_rank = rank_hi});
    const baselines::BasicPush bpa(a, {.restart_prob = 0.95, .num_hubs = hubs});

    auto time_queries = [&](auto&& fn) {
      return bench::MedianSeconds(
                 [&] {
                   for (const NodeId q : queries) fn(q);
                 },
                 3) /
             queries_per_dataset;
    };

    std::vector<double> row;
    for (const std::size_t k : {5u, 25u, 50u}) {
      row.push_back(time_queries(
          [&](NodeId q) { searcher.Search(Query::Single(q, k)); }));
    }
    row.push_back(time_queries([&](NodeId q) { nb_lo.TopK(q, 5); }));
    row.push_back(time_queries([&](NodeId q) { nb_hi.TopK(q, 5); }));
    for (const std::size_t k : {5u, 25u, 50u}) {
      row.push_back(time_queries([&](NodeId q) { bpa.TopK(q, k); }));
    }
    bench::PrintTableRow(dataset.name, row, "%14.3e");
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): K-dash is orders of magnitude faster than\n"
      "both baselines on every dataset; NB_LIN cost grows with rank; BPA is\n"
      "the slowest. K has little effect on K-dash's time.\n");
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
