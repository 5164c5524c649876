// Section 6.3.3 (text): the pruning stays effective across restart
// probabilities c. Sweeps c and reports per-query time and the fraction of
// nodes whose exact proximity had to be computed. paper_claims_test
// asserts the claim at every c of this sweep.
#include <cstdio>

#include "bench_util.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Ablation — restart probability sweep (Section 6.3.3)",
      "K-dash per-query time [s] and proximity computations vs c; "
      "Dictionary, K = 5");

  const auto dataset =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, bench::BenchScale());
  const auto queries = bench::SampleQueries(dataset.graph, 10);

  bench::PrintTableHeader(
      {"c", "time/query", "prox/query", "visited", "tree-size"});
  for (const double c : {0.5, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    core::KDashOptions options;
    options.restart_prob = c;
    const auto index = core::KDashIndex::Build(dataset.graph, options);
    core::KDashSearcher searcher(&index);

    double prox = 0.0, visited = 0.0, tree = 0.0;
    for (const NodeId q : queries) {
      const core::SearchStats stats =
          searcher.Search(Query::Single(q, 5)).stats;
      prox += static_cast<double>(stats.proximity_computations);
      visited += static_cast<double>(stats.nodes_visited);
      tree += static_cast<double>(stats.tree_size);
    }
    const double count = static_cast<double>(queries.size());
    const double time = bench::MedianSeconds(
                            [&] {
                              for (const NodeId q : queries) {
                                searcher.Search(Query::Single(q, 5));
                              }
                            },
                            3) /
                        count;
    bench::PrintTableRow(std::to_string(c),
                         {time, prox / count, visited / count, tree / count},
                         "%14.4g");
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
