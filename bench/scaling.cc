// Scaling study (supports Section 5's complexity discussion): K-dash
// precompute and query cost as the Dictionary-family graph grows. The
// paper's claim is O(n + m) *practical* query time — the per-query numbers
// here should grow far slower than n, and the precompute roughly with the
// inverse-factor nonzeros.
#include <cstdio>

#include "bench_util.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Scaling — K-dash cost vs graph size",
      "Dictionary-family graphs at growing scale; K = 5, hybrid reordering");

  bench::PrintTableHeader({"n", "m", "precomp[s]", "nnz(inv)", "query[s]",
                           "prox/query"});
  for (const double scale : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    const auto dataset = datasets::MakeDataset(
        datasets::DatasetId::kDictionary, bench::BenchScale() * scale);
    const auto index = core::KDashIndex::Build(dataset.graph, {});
    core::KDashSearcher searcher(&index);
    const auto queries = bench::SampleQueries(dataset.graph, 10);

    double prox = 0.0;
    for (const NodeId q : queries) {
      prox += static_cast<double>(
          searcher.Search(Query::Single(q, 5)).stats.proximity_computations);
    }
    const double query_time =
        bench::MedianSeconds(
            [&] {
              for (const NodeId q : queries) {
                searcher.Search(Query::Single(q, 5));
              }
            },
            3) /
        static_cast<double>(queries.size());

    bench::PrintTableRow(
        std::to_string(dataset.graph.num_nodes()),
        {static_cast<double>(dataset.graph.num_edges()),
         index.stats().total_seconds,
         static_cast<double>(index.stats().nnz_lower_inverse +
                             index.stats().nnz_upper_inverse),
         query_time, prox / static_cast<double>(queries.size())},
        "%14.4g");
    std::fflush(stdout);
  }

  std::printf(
      "\nExpected shape: query time and proximity computations stay nearly\n"
      "flat as n grows 16x — the pruned search only touches the query's\n"
      "neighborhood — while the precompute grows with the inverse factors.\n");
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
