// Figure 3: precision@5 of NB_LIN vs SVD target rank and of Basic Push
// Algorithm vs hub count, on the Dictionary dataset; K-dash is exact
// (precision 1) throughout. The paper's shape, K-dash exact and NB_LIN
// below 1 and not falling as the rank rises, is asserted by
// paper_claims_test.
#include <cstdio>

#include "baselines/basic_push.h"
#include "baselines/nb_lin.h"
#include "bench_util.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "rwr/power_iteration.h"

namespace kdash {
namespace {

void Run() {
  bench::PrintBenchHeader(
      "Figure 3 — Precision vs target rank / number of hub nodes",
      "precision@5 against the iterative ground truth; Dictionary dataset");

  const auto dataset =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, bench::BenchScale());
  const auto& graph = dataset.graph;
  const auto a = graph.NormalizedAdjacency();
  const auto queries = bench::SampleQueries(graph, 15);
  constexpr std::size_t kTopK = 5;

  // Ground truth per query.
  std::vector<std::vector<ScoredNode>> truth;
  for (const NodeId q : queries) {
    truth.push_back(rwr::TopKByPowerIteration(a, q, kTopK, {}));
  }

  // Paper sweeps {100, 400, 700, 1000} on n = 13,356: keep the same n
  // fractions (≈ 0.75%, 3%, 5.2%, 7.5% of n).
  const int n = graph.num_nodes();
  const std::vector<int> params = {std::max(4, n / 134), std::max(8, n / 33),
                                   std::max(12, n / 19), std::max(16, n / 13)};

  const auto index = core::KDashIndex::Build(graph, {});
  core::KDashSearcher searcher(&index);

  bench::PrintTableHeader({"param", "NB_LIN", "BPA", "K-dash"});
  for (const int param : params) {
    const baselines::NbLin nb(a, {.restart_prob = 0.95, .target_rank = param});
    const baselines::BasicPush bpa(a, {.restart_prob = 0.95, .num_hubs = param});

    double nb_precision = 0.0, bpa_precision = 0.0, kdash_precision = 0.0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      nb_precision +=
          bench::PrecisionAtK(nb.TopK(queries[i], kTopK), truth[i], kTopK);
      // BPA returns a recall-1 answer set that can be LARGER than K (the
      // paper notes this); its precision is |answer ∩ top-k| / |answer|.
      const auto bpa_answer = bpa.TopK(queries[i], kTopK);
      std::size_t hits = 0;
      for (const auto& entry : bpa_answer) {
        for (const auto& t : truth[i]) {
          if (t.node == entry.node) {
            ++hits;
            break;
          }
        }
      }
      bpa_precision += bpa_answer.empty()
                           ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(bpa_answer.size());
      kdash_precision += bench::PrecisionAtK(
          searcher.Search(Query::Single(queries[i], kTopK)).top,
                                             truth[i], kTopK);
    }
    const double count = static_cast<double>(queries.size());
    bench::PrintTableRow("rank/hubs=" + std::to_string(param),
                         {nb_precision / count, bpa_precision / count,
                          kdash_precision / count},
                         "%14.3f");
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace kdash

int main() {
  kdash::Run();
  return 0;
}
