// Figure 9 (Appendix D.1): number of exact proximity computations when the
// BFS tree is rooted at the query node (K-dash proper) vs at a random node.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Figure 9 — Comparison of root node selection",
      "mean exact proximity computations per query, K = 5");

  const auto all = bench::LoadAllDatasets();
  bench::PrintTableHeader({"dataset", "K-dash", "Random"});

  for (const auto& dataset : all) {
    const auto index = core::KDashIndex::Build(dataset.graph, {});
    core::KDashSearcher searcher(&index);
    const auto queries = bench::SampleQueries(dataset.graph, 10);
    Rng rng(99);

    double query_root = 0.0, random_root = 0.0;
    for (const NodeId q : queries) {
      const Query query = Query::Single(q, 5);
      query_root += static_cast<double>(
          searcher.Search(query).stats.proximity_computations);

      const NodeId root = rng.NextNode(dataset.graph.num_nodes());
      random_root += static_cast<double>(
          searcher.Search(query, root).stats.proximity_computations);
    }
    query_root /= static_cast<double>(queries.size());
    random_root /= static_cast<double>(queries.size());
    bench::PrintTableRow(dataset.name, {query_root, random_root}, "%14.1f");
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
