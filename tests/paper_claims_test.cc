// The paper's claims, checked as deterministic tests on the five dataset
// stand-ins at a fixed small scale and seed.
//
// Theorem 2 (Fig. 3: K-dash is exact): Algorithm 4's early stop never
// changes the answer. For every source of every stand-in, at k = 5, 25 and
// 50, and for personalized restart sets, the pruned top-k must equal the
// `use_pruning = false` top-k bit for bit, ids and scores. Any change to the
// estimator's bound is guarded here: an inadmissible bound stops a search
// before some top-k node is scored.
//
// Fig. 7 (pruning cuts work): over every single source, at each k, no
// pruned search computes more exact proximities than the unpruned one, and
// the stand-in's pruned total is strictly below the unpruned total.
//
// Fig. 9 (root selection): at k = 5, the total exact proximities with the
// BFS tree rooted at the query node are strictly below the total with the
// tree rooted at a seeded random node.
//
// Fig. 5 (reordering sparsifies the inverses): nnz(L⁻¹) + nnz(U⁻¹) under
// each of the Degree, Cluster and Hybrid orders is strictly below the
// Random order's.
//
// Fig. 3 (precision): on the Dictionary stand-in, against power-iteration
// ground truth, K-dash's precision@5 is exactly 1, while NB_LIN's is below
// 1 at each of the figure's four SVD ranks and does not fall as the rank
// rises.
//
// Section 6.3.3 (pruning across restart probabilities): on the Dictionary
// stand-in at k = 5, at every c that bench/ablation_restart_prob.cc
// sweeps, the pruned searches over every source compute fewer exact
// proximities in total than the unpruned ones, none computes more, and
// every pruned answer equals the unpruned one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "baselines/nb_lin.h"
#include "common/random.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "datasets/datasets.h"
#include "graph/graph.h"
#include "reorder/reorder.h"
#include "rwr/power_iteration.h"

namespace kdash {
namespace {

constexpr double kScale = 0.25;
constexpr std::size_t kMaxK = 50;
constexpr std::size_t kKs[] = {5, 25, kMaxK};

// Ranking is a total order (score, then id; common/top_k.h), so the
// unpruned top-k for any k ≤ kMaxK is the first k entries of its top-kMaxK:
// one unpruned search per query serves every k.
SearchResult Unpruned(core::KDashSearcher& searcher, Query query) {
  query.k = kMaxK;
  query.use_pruning = false;
  return searcher.Search(query);
}

// Empty when `pruned` is the first `pruned_k` entries of `unpruned`;
// otherwise the first difference.
std::string FirstDifference(const SearchResult& pruned, std::size_t pruned_k,
                            const SearchResult& unpruned) {
  const std::size_t want = std::min(pruned_k, unpruned.top.size());
  if (pruned.top.size() != want) {
    return "size " + std::to_string(pruned.top.size()) + " vs " +
           std::to_string(want);
  }
  for (std::size_t r = 0; r < want; ++r) {
    if (pruned.top[r] != unpruned.top[r]) {
      return "rank " + std::to_string(r) + ": node " +
             std::to_string(pruned.top[r].node) + " vs " +
             std::to_string(unpruned.top[r].node);
    }
  }
  return {};
}

class PaperClaimsTest
    : public ::testing::TestWithParam<datasets::DatasetId> {};

TEST_P(PaperClaimsTest, PrunedSearchIsExactAndCheaper) {
  const datasets::Dataset dataset = datasets::MakeDataset(GetParam(), kScale);
  const core::KDashIndex index = core::KDashIndex::Build(dataset.graph, {});
  core::KDashSearcher searcher(&index);
  const NodeId n = dataset.graph.num_nodes();

  std::vector<Query> queries;
  for (NodeId source = 0; source < n; ++source) {
    queries.push_back(Query::Single(source, kMaxK));
  }
  // Personalized restart sets of 2–4 sources, repeats allowed.
  Rng rng(7);
  for (int group = 0; group < 100; ++group) {
    std::vector<NodeId> sources;
    for (int s = 0; s < 2 + group % 3; ++s) sources.push_back(rng.NextNode(n));
    queries.push_back(Query::Personalized(std::move(sources), kMaxK));
  }

  // Exact proximities summed over the single-source queries.
  std::int64_t unpruned_total = 0;
  std::int64_t pruned_total[std::size(kKs)] = {};
  std::int64_t random_root_total = 0;
  Rng root_rng(11);
  for (Query& query : queries) {
    const SearchResult unpruned = Unpruned(searcher, query);
    const bool single = query.sources.size() == 1;
    if (single) unpruned_total += unpruned.stats.proximity_computations;
    for (std::size_t i = 0; i < std::size(kKs); ++i) {
      const std::size_t k = kKs[i];
      query.k = k;
      const SearchResult pruned = searcher.Search(query);
      const std::string difference = FirstDifference(pruned, k, unpruned);
      ASSERT_TRUE(difference.empty())
          << dataset.name << " source " << query.sources.front() << " ("
          << query.sources.size() << " sources) k=" << k << ": "
          << difference;
      if (!single) continue;
      // Fig. 7, per query.
      ASSERT_LE(pruned.stats.proximity_computations,
                unpruned.stats.proximity_computations)
          << dataset.name << " source " << query.sources.front()
          << " k=" << k;
      pruned_total[i] += pruned.stats.proximity_computations;
    }
    if (single) {  // Fig. 9: the same source with a random root.
      query.k = kKs[0];
      random_root_total +=
          searcher.Search(query, root_rng.NextNode(n))
              .stats.proximity_computations;
    }
  }

  for (std::size_t i = 0; i < std::size(kKs); ++i) {
    EXPECT_LT(pruned_total[i], unpruned_total)
        << dataset.name << " k=" << kKs[i];
  }
  EXPECT_LT(pruned_total[0], random_root_total) << dataset.name;
}

TEST_P(PaperClaimsTest, ReorderingBeatsRandomOnInverseNonzeros) {
  const datasets::Dataset dataset = datasets::MakeDataset(GetParam(), kScale);
  const auto inverse_nnz = [&](reorder::Method method) {
    core::KDashOptions options;
    options.reorder_method = method;
    const core::KDashIndex index =
        core::KDashIndex::Build(dataset.graph, options);
    return index.lower_inverse().nnz() + index.upper_inverse().nnz();
  };
  const Index random = inverse_nnz(reorder::Method::kRandom);
  for (const reorder::Method method :
       {reorder::Method::kDegree, reorder::Method::kCluster,
        reorder::Method::kHybrid}) {
    EXPECT_LT(inverse_nnz(method), random)
        << dataset.name << " " << reorder::MethodName(method);
  }
}

// A query on the Social stand-in (30% of nodes dangling) whose k-th score
// lies below the walk mass the query leaks at dangling nodes. Without the
// estimator's dangling charge (core/estimator.h) the remainder term never
// fell under that floor, so the search scored all 1040 reachable nodes;
// with it the search stops early and returns the same answer.
TEST(Theorem2Test, DanglingChargeStopsAFormerFullScan) {
  const datasets::Dataset social =
      datasets::MakeDataset(datasets::DatasetId::kSocial, kScale);
  const core::KDashIndex index = core::KDashIndex::Build(social.graph, {});
  core::KDashSearcher searcher(&index);
  const Query query = Query::Single(59, 5);

  const SearchResult unpruned = Unpruned(searcher, query);
  ASSERT_EQ(unpruned.stats.proximity_computations, 1040);
  const SearchResult pruned = searcher.Search(query);
  EXPECT_TRUE(pruned.stats.terminated_early);
  EXPECT_LT(pruned.stats.proximity_computations,
            unpruned.stats.proximity_computations);
  EXPECT_EQ(FirstDifference(pruned, query.k, unpruned), "");
}

// A directed 30-node cycle: from node q the proximities fall by a factor
// 1 − c = 0.05 per hop, so after about a dozen nodes the unvisited mass
// is below an ulp of 1 and the estimator's remainder term rounds below 0.
// Unfloored, that made p̄ negative and stopped the search at `p̄ < θ` with
// θ = 0, returning 15 of the 25 reachable answers.
TEST(Theorem2Test, RoundedRemainderNeverStopsAPartialHeap) {
  constexpr NodeId kCycle = 30;
  constexpr std::size_t kK = 25;
  graph::GraphBuilder builder(kCycle);
  for (NodeId u = 0; u < kCycle; ++u) builder.AddEdge(u, (u + 1) % kCycle);
  const graph::Graph cycle = std::move(builder).Build();
  const core::KDashIndex index = core::KDashIndex::Build(cycle, {});
  core::KDashSearcher searcher(&index);

  for (NodeId source = 0; source < kCycle; ++source) {
    const Query query = Query::Single(source, kK);
    const SearchResult pruned = searcher.Search(query);
    EXPECT_EQ(pruned.top.size(), kK) << "source " << source;
    EXPECT_EQ(FirstDifference(pruned, kK, Unpruned(searcher, query)), "")
        << "source " << source;
  }
}

// Fig. 3 sweeps NB_LIN's target rank over {100, 400, 700, 1000} on
// n = 13,356; the same n fractions (with bench/fig3_precision.cc's
// minimums) keep the sweep's shape at the test's scale.
TEST(Fig3Test, KDashIsExactWhileNbLinMissesAndImprovesWithRank) {
  const datasets::Dataset dictionary =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, kScale);
  const graph::Graph& graph = dictionary.graph;
  const sparse::CscMatrix a = graph.NormalizedAdjacency();
  const NodeId n = graph.num_nodes();
  const int ranks[] = {std::max(4, n / 134), std::max(8, n / 33),
                       std::max(12, n / 19), std::max(16, n / 13)};
  constexpr std::size_t kTopK = 5;

  const core::KDashIndex index = core::KDashIndex::Build(graph, {});
  core::KDashSearcher searcher(&index);
  std::vector<NodeId> sources;
  std::vector<std::set<NodeId>> truth;
  int kdash_hits = 0;
  int total = 0;
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    const NodeId q = rng.NextNode(n);
    std::set<NodeId> true_top;
    for (const ScoredNode& entry : rwr::TopKByPowerIteration(a, q, kTopK)) {
      if (entry.score >= 1e-13) true_top.insert(entry.node);
    }
    for (const ScoredNode& entry :
         searcher.Search(Query::Single(q, kTopK)).top) {
      kdash_hits += static_cast<int>(true_top.count(entry.node));
    }
    total += static_cast<int>(true_top.size());
    sources.push_back(q);
    truth.push_back(std::move(true_top));
  }
  EXPECT_EQ(kdash_hits, total);  // precision@5 exactly 1

  int previous_hits = 0;
  for (const int rank : ranks) {
    const baselines::NbLin nb_lin(a, {.target_rank = rank});
    int hits = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (const ScoredNode& entry :
           nb_lin.TopK(sources[i], truth[i].size())) {
        hits += static_cast<int>(truth[i].count(entry.node));
      }
    }
    EXPECT_LT(hits, total) << "rank " << rank;
    EXPECT_GE(hits, previous_hits) << "rank " << rank;
    previous_hits = hits;
  }
}

TEST(Section633Test, PruningCutsWorkAtEveryRestartProbability) {
  const datasets::Dataset dictionary =
      datasets::MakeDataset(datasets::DatasetId::kDictionary, kScale);
  constexpr std::size_t kTopK = 5;
  for (const double c : {0.5, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    core::KDashOptions options;
    options.restart_prob = c;
    const core::KDashIndex index =
        core::KDashIndex::Build(dictionary.graph, options);
    core::KDashSearcher searcher(&index);
    std::int64_t unpruned_total = 0;
    std::int64_t pruned_total = 0;
    for (NodeId source = 0; source < dictionary.graph.num_nodes(); ++source) {
      const Query query = Query::Single(source, kTopK);
      const SearchResult unpruned = Unpruned(searcher, query);
      const SearchResult pruned = searcher.Search(query);
      ASSERT_EQ(FirstDifference(pruned, kTopK, unpruned), "")
          << "c=" << c << " source " << source;
      ASSERT_LE(pruned.stats.proximity_computations,
                unpruned.stats.proximity_computations)
          << "c=" << c << " source " << source;
      unpruned_total += unpruned.stats.proximity_computations;
      pruned_total += pruned.stats.proximity_computations;
    }
    EXPECT_LT(pruned_total, unpruned_total) << "c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, PaperClaimsTest, ::testing::ValuesIn(datasets::AllDatasets()),
    [](const ::testing::TestParamInfo<datasets::DatasetId>& info) {
      return datasets::DatasetName(info.param);
    });

}  // namespace
}  // namespace kdash
