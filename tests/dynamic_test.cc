// DynamicKDash: exact RWR under edge insertions/deletions (Woodbury
// correction over the base factorization), verified against rebuilding
// from scratch and against power iteration on the mutated graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/random.h"
#include "core/dynamic.h"
#include "obs/metrics.h"
#include "reorder/reorder.h"
#include "rwr/power_iteration.h"
#include "test_util.h"

namespace kdash::core {
namespace {

// An explicitly mutated copy of the graph: `removals` dropped, then
// `additions` added (onto an existing edge, their weights sum).
graph::Graph MutatedGraph(
    const graph::Graph& original,
    const std::vector<std::tuple<NodeId, NodeId, Scalar>>& additions,
    const std::vector<std::pair<NodeId, NodeId>>& removals) {
  graph::GraphBuilder builder(original.num_nodes());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    for (const graph::Neighbor& nb : original.OutNeighbors(u)) {
      bool removed = false;
      for (const auto& [src, dst] : removals) {
        if (src == u && dst == nb.node) {
          removed = true;
          break;
        }
      }
      if (!removed) builder.AddEdge(u, nb.node, nb.weight);
    }
  }
  for (const auto& [src, dst, weight] : additions) {
    builder.AddEdge(src, dst, weight);
  }
  return std::move(builder).Build();
}

// Ground truth on an explicitly mutated copy of the graph.
std::vector<Scalar> TruthAfterMutations(
    const graph::Graph& original,
    const std::vector<std::tuple<NodeId, NodeId, Scalar>>& additions,
    const std::vector<std::pair<NodeId, NodeId>>& removals, NodeId query,
    Scalar c) {
  rwr::PowerIterationOptions options;
  options.restart_prob = c;
  options.tolerance = 1e-14;
  options.max_iterations = 20000;
  return rwr::SolveRwr(
             MutatedGraph(original, additions, removals).NormalizedAdjacency(),
             query, options)
      .proximity;
}

// Checks a Search answer against a ground-truth proximity vector: every
// answer is an allowed node scored within 1e-9 of its truth, each rank
// holds the truth's node at that rank or one tied with it within 1e-9, and
// no node whose truth clears 1e-9 is missing from a short answer.
void ExpectSearchMatchesTruth(const SearchResult& result,
                              const std::vector<Scalar>& truth,
                              const Query& query) {
  std::vector<bool> allowed(truth.size(), true);
  for (const NodeId node : query.exclude) {
    allowed[static_cast<std::size_t>(node)] = false;
  }
  std::vector<ScoredNode> expected;
  for (std::size_t u = 0; u < truth.size(); ++u) {
    if (allowed[u]) expected.push_back({static_cast<NodeId>(u), truth[u]});
  }
  std::sort(expected.begin(), expected.end(), RanksHigher);
  ASSERT_LE(result.top.size(), std::min(query.k, expected.size()));
  for (std::size_t r = 0; r < result.top.size(); ++r) {
    const ScoredNode& got = result.top[r];
    ASSERT_TRUE(allowed[static_cast<std::size_t>(got.node)])
        << "rank " << r << " node " << got.node;
    EXPECT_NEAR(got.score, truth[static_cast<std::size_t>(got.node)], 1e-9)
        << "rank " << r << " node " << got.node;
    if (got.node != expected[r].node) {
      EXPECT_NEAR(truth[static_cast<std::size_t>(got.node)], expected[r].score,
                  1e-9)
          << "rank " << r << ": " << got.node << " for " << expected[r].node;
    }
  }
  if (result.top.size() < query.k && result.top.size() < expected.size()) {
    EXPECT_LT(expected[result.top.size()].score, 1e-9)
        << "node " << expected[result.top.size()].node << " is missing";
  }
}

// Uniform restart over `sources` (a repeated source counts once per
// occurrence), by linearity of the per-source truths.
std::vector<Scalar> MixTruths(const std::vector<std::vector<Scalar>>& per_node,
                              const std::vector<NodeId>& sources) {
  std::vector<Scalar> mix(per_node.front().size(), 0.0);
  for (const NodeId s : sources) {
    const auto& truth = per_node[static_cast<std::size_t>(s)];
    for (std::size_t u = 0; u < mix.size(); ++u) {
      mix[u] += truth[u] / static_cast<Scalar>(sources.size());
    }
  }
  return mix;
}

TEST(DynamicTest, NodeIdsSurviveANonTrivialSolverOrder) {
  // The solver factors the system in ascending-degree order. This graph's
  // order is far from the identity: the hub 0 links both ways with most
  // nodes and goes last, while the path over the highest ids, two
  // dangling nodes and a self-loop all sit early.
  constexpr NodeId kNodes = 40;
  constexpr NodeId kPathBegin = 33;
  graph::GraphBuilder builder(kNodes);
  for (NodeId v = 1; v < 30; ++v) {
    builder.AddEdge(0, v, 1.0 + 0.1 * v);
    builder.AddEdge(v, 0, 2.0);
    if (v % 3 != 0) builder.AddEdge(v, v + 1, 0.5);
  }
  builder.AddEdge(0, 30, 1.0);   // 30 and 39 are the dangling nodes
  builder.AddEdge(0, kPathBegin, 0.7);
  builder.AddEdge(31, 31, 1.0);  // the self-loop
  builder.AddEdge(31, 0, 1.0);
  builder.AddEdge(32, 31, 1.0);
  builder.AddEdge(0, 32, 0.4);
  for (NodeId v = kPathBegin; v + 1 < kNodes; ++v) builder.AddEdge(v, v + 1);
  const auto g = std::move(builder).Build();
  const auto order = reorder::ComputeReordering(g, reorder::Method::kDegree);
  ASSERT_EQ(order.new_of_old[0], kNodes - 1);
  ASSERT_LT(order.new_of_old[kNodes - 1], kNodes / 2);

  DynamicKDash dynamic(g, 0.95);
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  std::vector<std::pair<NodeId, NodeId>> removals;
  const auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    std::vector<std::vector<Scalar>> truths;
    for (NodeId s = 0; s < kNodes; ++s) {
      truths.push_back(TruthAfterMutations(g, additions, removals, s, 0.95));
      const auto p = dynamic.Solve({s});
      for (std::size_t u = 0; u < p.size(); ++u) {
        ASSERT_NEAR(p[u], truths.back()[u], 1e-9) << "s=" << s << " u=" << u;
      }
      const Query query = Query::Single(s, 8);
      ExpectSearchMatchesTruth(dynamic.Search(query), truths.back(), query);
    }
    Query personalized = Query::Personalized({36, 5, 36, 31}, 12);
    personalized.exclude = {0, 37, 6};
    ExpectSearchMatchesTruth(dynamic.Search(personalized),
                             MixTruths(truths, personalized.sources),
                             personalized);
  };

  check("base");
  ASSERT_TRUE(dynamic.AddEdge(37, 2, 1.5).ok());
  additions.emplace_back(37, 2, 1.5);
  ASSERT_TRUE(dynamic.RemoveEdge(0, 5).ok());
  removals.emplace_back(0, 5);
  EXPECT_EQ(dynamic.pending_columns(), 2);
  check("after an add and a remove");
}

TEST(DynamicTest, NoUpdatesMatchesStaticSolve) {
  const auto g = test::RandomDirectedGraph(80, 500, 11);
  DynamicKDash dynamic(g, 0.95);
  const auto p = dynamic.Solve({5});
  const auto truth = rwr::SolveRwr(g.NormalizedAdjacency(), 5, {});
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth.proximity[u], 1e-9);
  }
  EXPECT_EQ(dynamic.pending_columns(), 0);
}

TEST(DynamicTest, SingleEdgeAdditionExact) {
  const auto g = test::RandomDirectedGraph(60, 350, 12);
  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.AddEdge(3, 40, 2.0).ok());
  EXPECT_EQ(dynamic.pending_columns(), 1);

  const auto p = dynamic.Solve({3});
  const auto truth = TruthAfterMutations(g, {{3, 40, 2.0}}, {}, 3, 0.95);
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth[u], 1e-9) << "u=" << u;
  }
}

TEST(DynamicTest, EdgeRemovalExact) {
  const auto g = test::RandomDirectedGraph(60, 350, 13);
  // Pick an existing edge to remove.
  const NodeId src = 7;
  ASSERT_GT(g.OutDegree(src), 0);
  const NodeId dst = g.OutNeighbors(src)[0].node;

  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.RemoveEdge(src, dst).ok());
  const auto p = dynamic.Solve({src});
  const auto truth = TruthAfterMutations(g, {}, {{src, dst}}, src, 0.95);
  for (std::size_t u = 0; u < p.size(); ++u) {
    EXPECT_NEAR(p[u], truth[u], 1e-9) << "u=" << u;
  }
}

TEST(DynamicTest, ManyMixedUpdatesExact) {
  const auto g = test::RandomDirectedGraph(100, 700, 14);
  DynamicKDash dynamic(g, 0.95);  // 20 writes stay in the correction

  Rng rng(15);
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  for (int e = 0; e < 20; ++e) {
    const NodeId src = rng.NextNode(100);
    const NodeId dst = rng.NextNode(100);
    if (src == dst) continue;
    const Scalar weight = 0.5 + rng.NextDouble();
    ASSERT_TRUE(dynamic.AddEdge(src, dst, weight).ok());
    additions.emplace_back(src, dst, weight);
  }
  EXPECT_EQ(dynamic.rebuild_count(), 1);  // only the constructor's build

  for (const NodeId q : {0, 33, 99}) {
    const auto p = dynamic.Solve({q});
    const auto truth = TruthAfterMutations(g, additions, {}, q, 0.95);
    for (std::size_t u = 0; u < p.size(); ++u) {
      EXPECT_NEAR(p[u], truth[u], 1e-8) << "q=" << q << " u=" << u;
    }
  }
}

TEST(DynamicTest, AutoRebuildKicksIn) {
  const auto g = test::RandomDirectedGraph(200, 1200, 16);
  const obs::Histogram& rebuild_us =
      obs::MetricRegistry::Global().GetHistogram("dynamic.rebuild_us");
  const std::uint64_t rebuilds_before = rebuild_us.Count();
  DynamicKDash dynamic(g, 0.95);
  // One edge out of each of kMaxPendingColumns + 8 distinct sources.
  for (NodeId src = 0; src < kMaxPendingColumns + 8; ++src) {
    ASSERT_TRUE(dynamic.AddEdge(src, (src + 100) % 200, 1.0).ok());
  }
  EXPECT_GT(dynamic.rebuild_count(), 1);
  EXPECT_LE(dynamic.pending_columns(), kMaxPendingColumns);
  // Every rebuild, the constructor's included, is one latency sample.
  EXPECT_EQ(rebuild_us.Count() - rebuilds_before,
            static_cast<std::uint64_t>(dynamic.rebuild_count()));

  // The rebuild ordered the edited graph afresh: the answers must follow it.
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  for (NodeId src = 0; src < kMaxPendingColumns + 8; ++src) {
    additions.emplace_back(src, (src + 100) % 200, 1.0);
  }
  for (const NodeId q : {0, 70, 150}) {
    const auto truth = TruthAfterMutations(g, additions, {}, q, 0.95);
    const auto p = dynamic.Solve({q});
    for (std::size_t u = 0; u < p.size(); ++u) {
      ASSERT_NEAR(p[u], truth[u], 1e-9) << "q=" << q << " u=" << u;
    }
    const Query query = Query::Single(q, 10);
    ExpectSearchMatchesTruth(dynamic.Search(query), truth, query);
  }
}

// True when `src` already has an out-edge to `dst` in `g`.
bool HasEdge(const graph::Graph& g, NodeId src, NodeId dst) {
  for (const graph::Neighbor& nb : g.OutNeighbors(src)) {
    if (nb.node == dst) return true;
  }
  return false;
}

// The first node after `src` (cyclically) that `src` has no edge to.
NodeId NonNeighbor(const graph::Graph& g, NodeId src) {
  for (NodeId step = 1; step < g.num_nodes(); ++step) {
    const NodeId dst = (src + step) % g.num_nodes();
    if (!HasEdge(g, src, dst)) return dst;
  }
  ADD_FAILURE() << "node " << src << " links to every other node";
  return src;
}

// Bit-for-bit equality of two solves, so a cancelled edit that left any
// rounding residue behind fails.
void ExpectSameBits(const std::vector<Scalar>& got,
                    const std::vector<Scalar>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Scalar)),
            0);
}

TEST(DynamicTest, CancelledEditsLeaveTheCorrection) {
  const auto g = test::RandomDirectedGraph(80, 500, 22);
  const DynamicKDash untouched(g, 0.95);
  const std::vector<std::vector<NodeId>> sources{{5}, {17}, {2, 9, 40}};

  // A new edge, added and then removed.
  DynamicKDash dynamic(g, 0.95);
  const NodeId src = 5;
  const NodeId dst = NonNeighbor(g, src);
  ASSERT_TRUE(dynamic.AddEdge(src, dst, 1.0).ok());
  EXPECT_EQ(dynamic.pending_columns(), 1);
  ASSERT_TRUE(dynamic.RemoveEdge(src, dst).ok());
  EXPECT_EQ(dynamic.pending_columns(), 0);
  EXPECT_EQ(dynamic.rebuild_count(), 1);
  for (const auto& s : sources) ExpectSameBits(dynamic.Solve(s), untouched.Solve(s));

  // A base edge, removed and then re-added at its base weight.
  ASSERT_GT(g.OutDegree(src), 0);
  const graph::Neighbor base_edge = g.OutNeighbors(src)[0];
  ASSERT_TRUE(dynamic.RemoveEdge(src, base_edge.node).ok());
  EXPECT_EQ(dynamic.pending_columns(), 1);
  ASSERT_TRUE(dynamic.AddEdge(src, base_edge.node, base_edge.weight).ok());
  EXPECT_EQ(dynamic.pending_columns(), 0);
  EXPECT_EQ(dynamic.rebuild_count(), 1);
  for (const auto& s : sources) ExpectSameBits(dynamic.Solve(s), untouched.Solve(s));
}

TEST(DynamicTest, CancelledEditsNeverRebuild) {
  // Every added edge is removed kLag writes later, as in a stream of
  // short-lived edges: at most kLag columns differ from the base at once,
  // however many distinct sources the stream touches.
  constexpr NodeId kLag = 8;
  const auto g = test::RandomDirectedGraph(200, 1200, 23);
  DynamicKDash dynamic(g, 0.95);
  const NodeId pairs = 2 * kMaxPendingColumns;
  for (NodeId src = 0; src < pairs + kLag; ++src) {
    if (src < pairs) {
      ASSERT_TRUE(dynamic.AddEdge(src, NonNeighbor(g, src), 1.0).ok());
    }
    if (src >= kLag) {
      const NodeId old = src - kLag;
      ASSERT_TRUE(dynamic.RemoveEdge(old, NonNeighbor(g, old)).ok());
    }
    EXPECT_LE(dynamic.pending_columns(), kLag) << "after source " << src;
  }
  EXPECT_EQ(dynamic.pending_columns(), 0);
  EXPECT_EQ(dynamic.rebuild_count(), 1);
}

TEST(DynamicTest, EditsOfPendingColumnsStayExact) {
  // Re-edits a column that is already pending (onto a new edge and onto a
  // base edge) and cancels one from the middle of the sorted set, checking
  // every answer after every write.
  const auto g = test::RandomDirectedGraph(100, 700, 24);
  DynamicKDash dynamic(g, 0.95);
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  std::vector<std::pair<NodeId, NodeId>> removals;
  const auto check = [&](int pending, const char* step) {
    EXPECT_EQ(dynamic.pending_columns(), pending) << step;
    for (const NodeId q : {3, 10, 57}) {
      const auto p = dynamic.Solve({q});
      const auto truth = TruthAfterMutations(g, additions, removals, q, 0.95);
      for (std::size_t u = 0; u < p.size(); ++u) {
        ASSERT_NEAR(p[u], truth[u], 1e-9) << step << " q=" << q << " u=" << u;
      }
    }
  };
  const NodeId a = NonNeighbor(g, 3);
  const NodeId b = NonNeighbor(g, 10);
  const NodeId c = NonNeighbor(g, 20);
  ASSERT_GT(g.OutDegree(20), 0);
  ASSERT_GT(g.OutDegree(7), 0);
  const NodeId base_of_20 = g.OutNeighbors(20)[0].node;
  const NodeId base_of_7 = g.OutNeighbors(7)[0].node;

  ASSERT_TRUE(dynamic.AddEdge(3, a, 1.5).ok());
  additions.emplace_back(3, a, 1.5);
  check(1, "add 3");
  ASSERT_TRUE(dynamic.AddEdge(10, b, 0.7).ok());
  additions.emplace_back(10, b, 0.7);
  check(2, "add 10");
  ASSERT_TRUE(dynamic.AddEdge(20, c, 2.0).ok());
  additions.emplace_back(20, c, 2.0);
  check(3, "add 20");
  ASSERT_TRUE(dynamic.AddEdge(3, a, 0.5).ok());  // onto the pending new edge
  additions.emplace_back(3, a, 0.5);
  check(3, "re-add 3");
  ASSERT_TRUE(dynamic.AddEdge(20, base_of_20, 1.0).ok());  // onto a base edge
  additions.emplace_back(20, base_of_20, 1.0);
  check(3, "add onto base edge of 20");
  ASSERT_TRUE(dynamic.RemoveEdge(10, b).ok());  // cancels the middle column
  additions.erase(additions.begin() + 1);
  check(2, "cancel 10");
  ASSERT_TRUE(dynamic.RemoveEdge(7, base_of_7).ok());
  removals.emplace_back(7, base_of_7);
  check(3, "remove base edge of 7");
  ASSERT_TRUE(dynamic.RemoveEdge(3, a).ok());
  additions.erase(additions.begin());  // both additions to 3 -> a
  additions.erase(additions.begin() + 1);
  check(2, "cancel 3");
  EXPECT_EQ(dynamic.rebuild_count(), 1);
}

TEST(DynamicTest, ManualRebuildPreservesAnswers) {
  const auto g = test::RandomDirectedGraph(70, 400, 18);
  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.AddEdge(1, 50, 3.0).ok());
  ASSERT_TRUE(dynamic.AddEdge(2, 60, 1.5).ok());
  const auto before = dynamic.Solve({1});
  dynamic.Rebuild();
  EXPECT_EQ(dynamic.pending_columns(), 0);
  const auto after = dynamic.Solve({1});
  for (std::size_t u = 0; u < before.size(); ++u) {
    EXPECT_NEAR(before[u], after[u], 1e-9);
  }
}

// Checks that `engine`, right after a rebuild, answers bit for bit like a
// fresh engine over `mutated`, the graph its edits made: full solves,
// single-source top-k, and a personalized query with a repeated source and
// an excluded node.
void ExpectSameAsFreshEngine(const DynamicKDash& engine,
                             const graph::Graph& mutated) {
  ASSERT_EQ(engine.pending_columns(), 0);
  const DynamicKDash fresh(mutated, 0.95);
  for (const NodeId s : {0, 17, 64, 150}) {
    SCOPED_TRACE(s);
    ExpectSameBits(engine.Solve({s}), fresh.Solve({s}));
    const Query single = Query::Single(s, 25);
    EXPECT_EQ(engine.Search(single).top, fresh.Search(single).top);
  }
  Query personalized = Query::Personalized({3, 90, 3, 120}, 25);
  personalized.exclude = {90, 41};
  ExpectSameBits(engine.Solve(personalized.sources),
                 fresh.Solve(personalized.sources));
  EXPECT_EQ(engine.Search(personalized).top, fresh.Search(personalized).top);
}

TEST(DynamicTest, RebuildEqualsAFreshEngine) {
  const auto g = test::RandomDirectedGraph(200, 1200, 25);

  // An auto-rebuild: a new edge out of each of kMaxPendingColumns + 1
  // sources, the last one past the limit.
  DynamicKDash automatic(g, 0.95);
  std::vector<std::tuple<NodeId, NodeId, Scalar>> additions;
  for (NodeId src = 0; src <= kMaxPendingColumns; ++src) {
    additions.emplace_back(src, NonNeighbor(g, src), 1.0);
    ASSERT_TRUE(automatic.AddEdge(src, NonNeighbor(g, src), 1.0).ok());
  }
  ASSERT_EQ(automatic.rebuild_count(), 2);
  ExpectSameAsFreshEngine(automatic, MutatedGraph(g, additions, {}));

  // A manual rebuild with added and removed edges pending.
  DynamicKDash manual(g, 0.95);
  additions = {{5, NonNeighbor(g, 5), 2.5}, {140, NonNeighbor(g, 140), 0.3}};
  std::vector<std::pair<NodeId, NodeId>> removals;
  for (const NodeId src : {17, 150}) {
    ASSERT_GT(g.OutDegree(src), 0);
    removals.emplace_back(src, g.OutNeighbors(src)[0].node);
  }
  for (const auto& [src, dst, weight] : additions) {
    ASSERT_TRUE(manual.AddEdge(src, dst, weight).ok());
  }
  for (const auto& [src, dst] : removals) {
    ASSERT_TRUE(manual.RemoveEdge(src, dst).ok());
  }
  ASSERT_EQ(manual.pending_columns(), 4);
  manual.Rebuild();
  ExpectSameAsFreshEngine(manual, MutatedGraph(g, additions, removals));
}

TEST(DynamicTest, ScaledWeightsAreKept) {
  // Node 0 has one out-edge, so more weight on it leaves its normalized
  // column at its base value and no correction column is pending. The new
  // weight must still count when a second edge splits the column.
  graph::GraphBuilder builder(6);
  builder.AddEdge(0, 1, 1.0);
  for (NodeId v = 1; v < 6; ++v) builder.AddEdge(v, (v + 1) % 6, 1.0);
  builder.AddEdge(3, 1, 2.0);
  const auto g = std::move(builder).Build();
  DynamicKDash dynamic(g, 0.95);
  ASSERT_TRUE(dynamic.AddEdge(0, 1, 3.0).ok());
  EXPECT_EQ(dynamic.pending_columns(), 0);
  ASSERT_TRUE(dynamic.AddEdge(0, 4, 1.0).ok());
  EXPECT_EQ(dynamic.pending_columns(), 1);
  for (const NodeId s : {0, 3}) {
    const auto truth =
        TruthAfterMutations(g, {{0, 1, 3.0}, {0, 4, 1.0}}, {}, s, 0.95);
    const auto p = dynamic.Solve({s});
    for (std::size_t u = 0; u < p.size(); ++u) {
      EXPECT_NEAR(p[u], truth[u], 1e-9) << "s=" << s << " u=" << u;
    }
  }
}

TEST(DynamicTest, TopKTracksUpdates) {
  // Adding a strong edge from the query must promote the target node.
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  DynamicKDash dynamic(g, 0.95);
  const NodeId query = 4;
  const NodeId target = 77;

  const auto before = dynamic.Search(Query::Single(query, 5)).top;
  bool target_in_before = false;
  for (const auto& entry : before) target_in_before |= entry.node == target;
  EXPECT_FALSE(target_in_before);

  // Dominate the query's out-mass.
  ASSERT_TRUE(dynamic.AddEdge(query, target, 500.0).ok());
  const auto after = dynamic.Search(Query::Single(query, 5)).top;
  ASSERT_GE(after.size(), 2u);
  EXPECT_EQ(after[0].node, query);
  EXPECT_EQ(after[1].node, target);
}

TEST(DynamicTest, SearchReportsAFullScanAndHonorsExclude) {
  // The solve is global, so the stats count every node; excluded nodes
  // never come back, and the rest keep their exact ranking.
  const auto g = test::RandomDirectedGraph(60, 350, 20);
  DynamicKDash dynamic(g, 0.95);
  const auto full = dynamic.Search(Query::Personalized({2, 9}, 6));
  EXPECT_EQ(full.stats.nodes_visited, g.num_nodes());
  EXPECT_EQ(full.stats.proximity_computations, g.num_nodes());
  EXPECT_EQ(full.stats.tree_size, g.num_nodes());
  EXPECT_FALSE(full.stats.terminated_early);
  ASSERT_EQ(full.top.size(), 6u);

  Query query = Query::Personalized({2, 9}, 5);
  query.exclude = {full.top[0].node};
  const auto excluded = dynamic.Search(query);
  ASSERT_EQ(excluded.top.size(), 5u);
  for (std::size_t r = 0; r < excluded.top.size(); ++r) {
    EXPECT_EQ(excluded.top[r].node, full.top[r + 1].node) << "rank " << r;
    EXPECT_EQ(excluded.top[r].score, full.top[r + 1].score) << "rank " << r;
  }
}

TEST(DynamicTest, RemoveNonexistentEdgeIsNotFound) {
  const auto g = test::SmallDirectedGraph();
  DynamicKDash dynamic(g, 0.95);
  const Status status = dynamic.RemoveEdge(0, 4);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("does not exist"), std::string::npos);
}

TEST(DynamicTest, OutOfRangeEdgeUpdatesAreInvalidArgument) {
  const auto g = test::SmallDirectedGraph();
  DynamicKDash dynamic(g, 0.95);
  EXPECT_EQ(dynamic.AddEdge(-1, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.AddEdge(0, g.num_nodes()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.AddEdge(0, 1, -2.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dynamic.RemoveEdge(g.num_nodes(), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(DynamicTest, MultiSourceSolveMatchesAverageOfSolves) {
  const auto g = test::RandomDirectedGraph(70, 400, 21);
  DynamicKDash dynamic(g, 0.95);
  // Exercise the correction path too.
  ASSERT_TRUE(dynamic.AddEdge(2, 30, 1.5).ok());
  const std::vector<NodeId> sources{3, 10, 44};
  const auto personalized = dynamic.Solve(sources);
  std::vector<Scalar> average(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (const NodeId s : sources) {
    const auto p = dynamic.Solve({s});
    for (std::size_t u = 0; u < p.size(); ++u) {
      average[u] += p[u] / static_cast<Scalar>(sources.size());
    }
  }
  for (std::size_t u = 0; u < average.size(); ++u) {
    EXPECT_NEAR(personalized[u], average[u], 1e-10) << "u=" << u;
  }
}

}  // namespace
}  // namespace kdash::core
