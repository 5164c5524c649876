#include "reorder/louvain.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"

namespace kdash::reorder {

namespace {

// Chunk size for the per-node parallel loops. Chunk boundaries never affect
// the output (every per-node computation is independent), so this is purely
// a scheduling knob.
constexpr Index kNodeGrain = 256;

// A local-moving phase stops once a full pass gains less modularity than
// this.
constexpr double kMinModularityGain = 1e-7;
// Safety cap on aggregation levels (Louvain converges in far fewer).
constexpr int kMaxLevels = 32;

// Undirected weighted working graph for the aggregation levels.
// For u != v both (u, v) and (v, u) are stored with the same weight; a
// self-loop (u, u) is stored once and contributes twice to the strength.
struct WorkGraph {
  NodeId n = 0;
  std::vector<std::vector<std::pair<NodeId, double>>> adj;
  std::vector<double> strength;  // k_u
  double two_m = 0.0;            // Σ_u k_u

  void FinalizeStrengths(ThreadPool& pool) {
    strength.assign(static_cast<std::size_t>(n), 0.0);
    pool.ParallelFor(0, n, kNodeGrain, [&](Index begin, Index end, int) {
      for (Index ui = begin; ui < end; ++ui) {
        const auto u = static_cast<std::size_t>(ui);
        double k = 0.0;
        for (const auto& [v, w] : adj[u]) {
          k += (static_cast<std::size_t>(v) == u) ? 2.0 * w : w;
        }
        strength[u] = k;
      }
    });
    // Sequential reduction in node order: identical at every thread count.
    two_m = std::accumulate(strength.begin(), strength.end(), 0.0);
  }
};

// Sorts a neighbor list by (node, weight) and merges duplicate nodes by
// summing weights. Sorting the full pair fixes the order of equal-node
// entries (by weight), so the merged sums — and therefore every downstream
// float — do not depend on the construction order of the list.
void SortAndMergeNeighbors(std::vector<std::pair<NodeId, double>>& list) {
  std::sort(list.begin(), list.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (out > 0 && list[out - 1].first == list[i].first) {
      list[out - 1].second += list[i].second;
    } else {
      list[out++] = list[i];
    }
  }
  list.resize(out);
}

// Symmetrizes the input graph: w_sym(u, v) = w(u→v) + w(v→u). Each node's
// list is assembled independently from its out- and in-neighbor spans, so
// the loop parallelizes with no shared writes; the result is bit-identical
// to a sequential mirror-and-merge construction because SortAndMergeNeighbors
// canonicalizes the list order before any weights are summed.
WorkGraph Symmetrize(const graph::Graph& g, ThreadPool& pool) {
  WorkGraph work;
  work.n = g.num_nodes();
  work.adj.assign(static_cast<std::size_t>(work.n), {});
  pool.ParallelFor(0, work.n, kNodeGrain, [&](Index begin, Index end, int) {
    for (Index ui = begin; ui < end; ++ui) {
      const NodeId u = static_cast<NodeId>(ui);
      auto& list = work.adj[static_cast<std::size_t>(ui)];
      for (const graph::Neighbor& nb : g.OutNeighbors(u)) {
        list.emplace_back(nb.node, nb.weight);  // self-loops appear once here
      }
      for (const graph::Neighbor& nb : g.InNeighbors(u)) {
        if (nb.node != u) list.emplace_back(nb.node, nb.weight);
      }
      SortAndMergeNeighbors(list);
    }
  });
  work.FinalizeStrengths(pool);
  return work;
}

// One level of Louvain: local moving until no gain. Returns the community
// labels (dense) and whether anything moved at all.
struct LevelResult {
  std::vector<NodeId> community;  // dense labels
  NodeId num_communities = 0;
  bool moved = false;
};

// Relabels arbitrary community ids to dense [0, count) in first-appearance
// (node-id) order.
LevelResult Densify(const std::vector<NodeId>& community, NodeId n,
                    bool moved) {
  std::vector<NodeId> dense(static_cast<std::size_t>(n), kInvalidNode);
  NodeId next = 0;
  LevelResult result;
  result.community.resize(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    NodeId& slot = dense[static_cast<std::size_t>(community[static_cast<std::size_t>(u)])];
    if (slot == kInvalidNode) slot = next++;
    result.community[static_cast<std::size_t>(u)] = slot;
  }
  result.num_communities = next;
  result.moved = moved;
  return result;
}

// The original asynchronous sequential local moving (seeded visit order,
// moves visible immediately). Quality baseline for tests/ablations.
LevelResult LocalMovingLegacy(const WorkGraph& work, double min_gain,
                              Rng& rng) {
  const NodeId n = work.n;
  std::vector<NodeId> community(static_cast<std::size_t>(n));
  std::iota(community.begin(), community.end(), 0);
  std::vector<double> community_strength = work.strength;

  std::vector<NodeId> visit(static_cast<std::size_t>(n));
  std::iota(visit.begin(), visit.end(), 0);
  rng.Shuffle(visit);

  // Scratch: weight from the current node to each neighboring community.
  std::vector<double> weight_to(static_cast<std::size_t>(n), 0.0);
  std::vector<NodeId> touched;
  const double two_m = work.two_m;
  KDASH_CHECK(two_m > 0.0) << "Louvain needs at least one edge";

  bool moved_any = false;
  bool improved = true;
  // Each accepted move strictly increases modularity (by more than min_gain),
  // so the sweep loop terminates; the pass cap is a floating-point backstop.
  for (int pass = 0; improved && pass < 128; ++pass) {
    improved = false;
    for (const NodeId u : visit) {
      const NodeId old_c = community[static_cast<std::size_t>(u)];
      touched.clear();
      for (const auto& [v, w] : work.adj[static_cast<std::size_t>(u)]) {
        if (v == u) continue;
        const NodeId c = community[static_cast<std::size_t>(v)];
        if (weight_to[static_cast<std::size_t>(c)] == 0.0) touched.push_back(c);
        weight_to[static_cast<std::size_t>(c)] += w;
      }

      const double k_u = work.strength[static_cast<std::size_t>(u)];
      // Remove u from its community for the gain comparison.
      community_strength[static_cast<std::size_t>(old_c)] -= k_u;

      NodeId best_c = old_c;
      double best_gain = weight_to[static_cast<std::size_t>(old_c)] -
                         community_strength[static_cast<std::size_t>(old_c)] *
                             k_u / two_m;
      for (const NodeId c : touched) {
        const double gain =
            weight_to[static_cast<std::size_t>(c)] -
            community_strength[static_cast<std::size_t>(c)] * k_u / two_m;
        if (gain > best_gain + min_gain) {
          best_gain = gain;
          best_c = c;
        }
      }

      community_strength[static_cast<std::size_t>(best_c)] += k_u;
      if (best_c != old_c) {
        community[static_cast<std::size_t>(u)] = best_c;
        improved = true;
        moved_any = true;
      }
      for (const NodeId c : touched) weight_to[static_cast<std::size_t>(c)] = 0.0;
    }
  }

  return Densify(community, n, moved_any);
}

// Phase-synchronous parallel local moving (see the header). Each sweep:
//   1. propose (parallel): every node's best community against a frozen
//      snapshot of {community, community_strength}, smallest-label
//      tie-break;
//   2. monitor: the snapshot's modularity, assembled from per-node partials
//      in fixed node order — if the previous sweep's moves failed to improve
//      it by min_gain, the phase has converged and this sweep's proposals
//      are discarded;
//   3. apply (sequential, ascending node id): each proposal is re-evaluated
//      exactly against the *current* labels (one adjacency scan per
//      proposer, two accumulators) and applied only if it still improves
//      modularity — the sequential algorithm's acceptance rule, restricted
//      to the snapshot-chosen candidate. Applied moves therefore strictly
//      increase Q, so batched application can neither oscillate nor
//      overshoot, and quality tracks the sequential baseline.
// Every proposal is a pure function of the snapshot, the apply order is
// fixed, and every float reduction runs in a fixed order, so the result is
// bit-identical at every thread count.
LevelResult LocalMovingPhaseSynchronous(const WorkGraph& work, double min_gain,
                                        ThreadPool& pool) {
  const NodeId n = work.n;
  const double two_m = work.two_m;
  KDASH_CHECK(two_m > 0.0) << "Louvain needs at least one edge";

  std::vector<NodeId> community(static_cast<std::size_t>(n));
  std::iota(community.begin(), community.end(), 0);
  std::vector<double> community_strength = work.strength;

  std::vector<NodeId> proposal(static_cast<std::size_t>(n));
  // w(u → u's own community) + 2·w(u,u): node u's contribution to the intra
  // weight of the snapshot, captured during the propose scan so the
  // modularity monitor costs no extra adjacency pass.
  std::vector<double> intra_to_own(static_cast<std::size_t>(n), 0.0);

  struct Scratch {
    std::vector<double> weight_to;  // dense per-community accumulator
    std::vector<NodeId> touched;

    void EnsureSize(NodeId nodes) {
      if (weight_to.size() < static_cast<std::size_t>(nodes)) {
        weight_to.assign(static_cast<std::size_t>(nodes), 0.0);
      }
    }
  };
  std::vector<Scratch> scratches(static_cast<std::size_t>(pool.num_threads()));

  bool moved_any = false;
  double prev_q = 0.0;
  bool have_prev_q = false;
  // The modularity monitor breaks the loop as soon as a sweep stops paying;
  // the pass cap is a backstop against floating-point-scale oscillation.
  for (int pass = 0; pass < 128; ++pass) {
    pool.ParallelFor(0, n, kNodeGrain, [&](Index begin, Index end, int rank) {
      Scratch& scratch = scratches[static_cast<std::size_t>(rank)];
      scratch.EnsureSize(n);
      for (Index ui = begin; ui < end; ++ui) {
        const auto u = static_cast<std::size_t>(ui);
        const NodeId old_c = community[u];
        const double k_u = work.strength[u];
        scratch.touched.clear();
        double self_weight = 0.0;
        for (const auto& [v, w] : work.adj[u]) {
          if (static_cast<std::size_t>(v) == u) {
            self_weight += 2.0 * w;
            continue;
          }
          const NodeId c = community[static_cast<std::size_t>(v)];
          if (scratch.weight_to[static_cast<std::size_t>(c)] == 0.0) {
            scratch.touched.push_back(c);
          }
          scratch.weight_to[static_cast<std::size_t>(c)] += w;
        }
        intra_to_own[u] =
            scratch.weight_to[static_cast<std::size_t>(old_c)] + self_weight;

        // Gain of staying, with u removed from its own community.
        const double stay_gain =
            scratch.weight_to[static_cast<std::size_t>(old_c)] -
            (community_strength[static_cast<std::size_t>(old_c)] - k_u) * k_u /
                two_m;
        NodeId best_c = kInvalidNode;
        double best_gain = 0.0;
        for (const NodeId c : scratch.touched) {
          if (c == old_c) continue;
          const double gain =
              scratch.weight_to[static_cast<std::size_t>(c)] -
              community_strength[static_cast<std::size_t>(c)] * k_u / two_m;
          // Exact comparisons with a smallest-label tie-break: deterministic
          // regardless of the (first-encounter) candidate order.
          if (best_c == kInvalidNode || gain > best_gain ||
              (gain == best_gain && c < best_c)) {
            best_gain = gain;
            best_c = c;
          }
        }

        proposal[u] =
            (best_c != kInvalidNode && best_gain > stay_gain + min_gain)
                ? best_c
                : old_c;
        for (const NodeId c : scratch.touched) {
          scratch.weight_to[static_cast<std::size_t>(c)] = 0.0;
        }
      }
    });

    // Snapshot modularity from the per-node partials, in fixed order.
    double intra = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      intra += intra_to_own[static_cast<std::size_t>(u)];
    }
    double expected = 0.0;
    for (NodeId c = 0; c < n; ++c) {
      const double tot = community_strength[static_cast<std::size_t>(c)] / two_m;
      expected += tot * tot;
    }
    const double q = intra / two_m - expected;
    if (have_prev_q && q - prev_q < min_gain) break;
    prev_q = q;
    have_prev_q = true;

    // Apply in ascending node-id order, re-checking each move exactly
    // against the evolving state (proposals were judged on the snapshot).
    NodeId moves = 0;
    double applied_gain = 0.0;  // Σ (move_gain - stay_gain) of applied moves
    for (NodeId u = 0; u < n; ++u) {
      const NodeId target = proposal[static_cast<std::size_t>(u)];
      const NodeId old_c = community[static_cast<std::size_t>(u)];
      if (target == old_c) continue;
      const double k_u = work.strength[static_cast<std::size_t>(u)];
      double weight_to_old = 0.0;
      double weight_to_target = 0.0;
      for (const auto& [v, w] : work.adj[static_cast<std::size_t>(u)]) {
        if (v == u) continue;
        const NodeId c = community[static_cast<std::size_t>(v)];
        if (c == old_c) {
          weight_to_old += w;
        } else if (c == target) {
          weight_to_target += w;
        }
      }
      const double stay_gain =
          weight_to_old -
          (community_strength[static_cast<std::size_t>(old_c)] - k_u) * k_u /
              two_m;
      const double move_gain =
          weight_to_target -
          community_strength[static_cast<std::size_t>(target)] * k_u / two_m;
      if (move_gain <= stay_gain + min_gain) continue;
      community_strength[static_cast<std::size_t>(old_c)] -= k_u;
      community_strength[static_cast<std::size_t>(target)] += k_u;
      community[static_cast<std::size_t>(u)] = target;
      applied_gain += move_gain - stay_gain;
      ++moves;
    }
    if (moves == 0) break;
    moved_any = true;
    // ΔQ of a single move is (move_gain - stay_gain) · 2/2m, so the
    // sweep's exact modularity improvement is already in hand — when it is
    // below the threshold the monitor would apply next sweep, stop now
    // instead of paying one more full propose pass just to observe it.
    if (2.0 * applied_gain / two_m < min_gain) break;
  }

  return Densify(community, n, moved_any);
}

// Aggregates communities into super-nodes. Each super-node's list is built
// from its members in ascending node-id order (one parallel task per
// community — no shared writes) and canonicalized by SortAndMergeNeighbors,
// so the aggregate is bit-identical to the sequential construction.
WorkGraph Aggregate(const WorkGraph& work, const std::vector<NodeId>& community,
                    NodeId num_communities, ThreadPool& pool) {
  WorkGraph agg;
  agg.n = num_communities;
  agg.adj.assign(static_cast<std::size_t>(num_communities), {});

  // Members of each community, ascending node id (stable counting sort).
  std::vector<Index> member_ptr(static_cast<std::size_t>(num_communities) + 1, 0);
  for (NodeId u = 0; u < work.n; ++u) {
    ++member_ptr[static_cast<std::size_t>(community[static_cast<std::size_t>(u)]) + 1];
  }
  for (NodeId c = 0; c < num_communities; ++c) {
    member_ptr[static_cast<std::size_t>(c) + 1] += member_ptr[static_cast<std::size_t>(c)];
  }
  std::vector<NodeId> members(static_cast<std::size_t>(work.n));
  std::vector<Index> cursor(member_ptr.begin(), member_ptr.end() - 1);
  for (NodeId u = 0; u < work.n; ++u) {
    members[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(community[static_cast<std::size_t>(u)])]++)] = u;
  }

  pool.ParallelFor(0, num_communities, /*grain=*/4, [&](Index begin, Index end,
                                                        int) {
    for (Index ci = begin; ci < end; ++ci) {
      const auto cu = static_cast<std::size_t>(ci);
      auto& list = agg.adj[cu];
      for (Index m = member_ptr[cu]; m < member_ptr[cu + 1]; ++m) {
        const NodeId u = members[static_cast<std::size_t>(m)];
        for (const auto& [v, w] : work.adj[static_cast<std::size_t>(u)]) {
          const NodeId cv = community[static_cast<std::size_t>(v)];
          if (v == u) {
            list.emplace_back(static_cast<NodeId>(ci), w);
          } else if (static_cast<std::size_t>(cv) == cu) {
            // Each intra edge appears twice (u,v)+(v,u); halve into one
            // self-loop visit each so the total self-loop weight is w per
            // unordered pair.
            list.emplace_back(static_cast<NodeId>(ci), w * 0.5);
          } else {
            list.emplace_back(cv, w);
          }
        }
      }
      SortAndMergeNeighbors(list);
    }
  });
  agg.FinalizeStrengths(pool);
  return agg;
}

double ModularityOfWork(const WorkGraph& work,
                        const std::vector<NodeId>& community,
                        NodeId num_communities) {
  if (work.two_m <= 0.0) return 0.0;
  std::vector<double> intra(static_cast<std::size_t>(num_communities), 0.0);
  std::vector<double> total(static_cast<std::size_t>(num_communities), 0.0);
  for (NodeId u = 0; u < work.n; ++u) {
    const NodeId cu = community[static_cast<std::size_t>(u)];
    total[static_cast<std::size_t>(cu)] += work.strength[static_cast<std::size_t>(u)];
    for (const auto& [v, w] : work.adj[static_cast<std::size_t>(u)]) {
      if (v == u) {
        intra[static_cast<std::size_t>(cu)] += 2.0 * w;
      } else if (community[static_cast<std::size_t>(v)] == cu) {
        intra[static_cast<std::size_t>(cu)] += w;  // counted from both sides
      }
    }
  }
  double q = 0.0;
  for (NodeId c = 0; c < num_communities; ++c) {
    const double tot = total[static_cast<std::size_t>(c)] / work.two_m;
    q += intra[static_cast<std::size_t>(c)] / work.two_m - tot * tot;
  }
  return q;
}

}  // namespace

LouvainResult RunLouvain(const graph::Graph& g, const LouvainOptions& options,
                         ThreadPool& pool) {
  LouvainResult result;
  result.community_of_node.resize(static_cast<std::size_t>(g.num_nodes()));
  std::iota(result.community_of_node.begin(), result.community_of_node.end(), 0);
  result.num_communities = g.num_nodes();
  if (g.num_edges() == 0) return result;

  const bool legacy =
      options.algorithm == LouvainOptions::Algorithm::kLegacySequential;
  Rng rng(options.seed);
  WorkGraph work = Symmetrize(g, pool);
  // node → current super-node chain.
  std::vector<NodeId> membership(static_cast<std::size_t>(g.num_nodes()));
  std::iota(membership.begin(), membership.end(), 0);

  for (int level = 0; level < kMaxLevels; ++level) {
    LevelResult lr =
        legacy ? LocalMovingLegacy(work, kMinModularityGain, rng)
               : LocalMovingPhaseSynchronous(work, kMinModularityGain, pool);
    if (!lr.moved) break;
    result.levels = level + 1;
    for (auto& m : membership) {
      m = lr.community[static_cast<std::size_t>(m)];
    }
    if (lr.num_communities == work.n) break;  // no compression: converged
    work = Aggregate(work, lr.community, lr.num_communities, pool);
  }

  result.community_of_node = membership;
  result.num_communities = 0;
  for (const NodeId c : membership) {
    result.num_communities = std::max<NodeId>(result.num_communities,
                                              static_cast<NodeId>(c + 1));
  }
  result.modularity = Modularity(g, result.community_of_node);
  return result;
}

double Modularity(const graph::Graph& g,
                  const std::vector<NodeId>& community_of_node) {
  KDASH_CHECK_EQ(community_of_node.size(), static_cast<std::size_t>(g.num_nodes()));
  NodeId num_communities = 0;
  for (const NodeId c : community_of_node) {
    KDASH_CHECK(c >= 0);
    num_communities = std::max<NodeId>(num_communities, static_cast<NodeId>(c + 1));
  }
  // The parallel symmetrize is bit-identical to the sequential one, so the
  // shared pool here never changes the reported Q.
  const WorkGraph work = Symmetrize(g, ThreadPool::Shared());
  return ModularityOfWork(work, community_of_node, num_communities);
}

}  // namespace kdash::reorder
