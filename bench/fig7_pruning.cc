// Figure 7: effect of the tree-estimation pruning — K-dash vs K-dash with
// the pruning removed (every reachable node's proximity computed).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Figure 7 — Effect of tree estimation (pruning)",
      "median per-query wall clock [s], K = 5, hybrid reordering");

  const auto all = bench::LoadAllDatasets();
  bench::PrintTableHeader(
      {"dataset", "K-dash", "NoPruning", "speedup", "prox/query",
       "prox-nopr"});

  for (const auto& dataset : all) {
    const auto index = core::KDashIndex::Build(dataset.graph, {});
    core::KDashSearcher searcher(&index);
    const auto queries = bench::SampleQueries(dataset.graph, 10);

    std::vector<Query> pruned, unpruned;
    for (const NodeId q : queries) {
      pruned.push_back(Query::Single(q, 5));
      unpruned.push_back(Query::Single(q, 5));
      unpruned.back().use_pruning = false;
    }

    double prox_pruned = 0.0, prox_unpruned = 0.0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      prox_pruned += static_cast<double>(
          searcher.Search(pruned[i]).stats.proximity_computations);
      prox_unpruned += static_cast<double>(
          searcher.Search(unpruned[i]).stats.proximity_computations);
    }
    prox_pruned /= static_cast<double>(queries.size());
    prox_unpruned /= static_cast<double>(queries.size());

    const double pruned_time = bench::MedianSeconds(
                                   [&] {
                                     for (const Query& q : pruned) {
                                       searcher.Search(q);
                                     }
                                   },
                                   3) /
                               static_cast<double>(queries.size());
    const double unpruned_time =
        bench::MedianSeconds(
            [&] {
              for (const Query& q : unpruned) searcher.Search(q);
            },
            3) /
        static_cast<double>(queries.size());

    bench::PrintTableRow(dataset.name,
                         {pruned_time, unpruned_time,
                          unpruned_time / pruned_time, prox_pruned,
                          prox_unpruned},
                         "%14.4g");
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape (paper): pruning wins on every dataset (up to\n"
      "~1000x on graphs where the BFS tree is large but the top-k is\n"
      "local); even Without-pruning stays faster than NB_LIN.\n");
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
