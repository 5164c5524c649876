// Figure 4: query wall-clock time of NB_LIN vs SVD target rank and of
// Basic Push Algorithm vs hub count (Dictionary dataset), with K-dash as
// the flat reference line.
#include <cstdio>

#include "baselines/basic_push.h"
#include "baselines/nb_lin.h"
#include "bench_util.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Figure 4 — Query time vs target rank / number of hub nodes",
      "median per-query wall clock [s]; Dictionary dataset, K = 5");

  const auto dataset =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, bench::BenchScale());
  const auto& graph = dataset.graph;
  const auto a = graph.NormalizedAdjacency();
  const auto queries = bench::SampleQueries(graph, 10);
  constexpr std::size_t kTopK = 5;

  const int n = graph.num_nodes();
  const std::vector<int> params = {std::max(4, n / 134), std::max(8, n / 33),
                                   std::max(12, n / 19), std::max(16, n / 13)};

  const auto index = core::KDashIndex::Build(graph, {});
  core::KDashSearcher searcher(&index);

  auto per_query = [&](auto&& fn) {
    return bench::MedianSeconds(
               [&] {
                 for (const NodeId q : queries) fn(q);
               },
               3) /
           static_cast<double>(queries.size());
  };
  const double kdash_time =
      per_query([&](NodeId q) { searcher.Search(Query::Single(q, kTopK)); });

  bench::PrintTableHeader({"param", "NB_LIN", "BPA", "K-dash"});
  for (const int param : params) {
    const baselines::NbLin nb(a, {.restart_prob = 0.95, .target_rank = param});
    const baselines::BasicPush bpa(a, {.restart_prob = 0.95, .num_hubs = param});
    const double nb_time = per_query([&](NodeId q) { nb.TopK(q, kTopK); });
    const double bpa_time = per_query([&](NodeId q) { bpa.TopK(q, kTopK); });
    bench::PrintTableRow("rank/hubs=" + std::to_string(param),
                         {nb_time, bpa_time, kdash_time}, "%14.3e");
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): NB_LIN time grows with the target rank;\n"
      "BPA time falls as hubs absorb residual mass sooner; K-dash is flat\n"
      "and far below both.\n");
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
