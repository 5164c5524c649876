// The one query contract, from the backends (core::KDashSearcher::Search,
// core::DynamicKDash::Search) through Engine to the serving tier: a
// `Query` goes in, a `SearchResult` comes out. A new per-query field is
// added here once.
#ifndef KDASH_CORE_QUERY_H_
#define KDASH_CORE_QUERY_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/top_k.h"
#include "common/types.h"
#include "obs/trace.h"

namespace kdash {

namespace core {

struct SearchStats {
  NodeId nodes_visited = 0;           // estimates evaluated
  NodeId proximity_computations = 0;  // exact proximities computed
  bool terminated_early = false;      // pruning fired
  // Nodes discovered by the lazy BFS before the search ended. Equals the
  // full reachable set when pruning is off; with pruning it only counts the
  // explored neighborhood (the BFS never expands past the stop point).
  NodeId tree_size = 0;
};

}  // namespace core

// A fully-typed, self-contained query: no positional-argument juggling, no
// borrowed pointers. One source = the paper's single-source top-k RWR;
// several sources = the personalized restart-set query (each occurrence
// carries 1/|sources| of the restart mass, so a repeated source is
// weighted by its multiplicity).
struct Query {
  // Restart set. Must be non-empty, every id in [0, num_nodes).
  std::vector<NodeId> sources;

  // How many results to return (fewer come back when fewer nodes are
  // reachable). Must be ≥ 1.
  std::size_t k = 10;

  // Owned exclusion set: nodes barred from the result while still feeding
  // the pruning estimator, so the answer is the exact top-k of the allowed
  // nodes. Must be duplicate-free and in range.
  std::vector<NodeId> exclude;

  // Diagnostic (Figure 7 of the paper): `use_pruning = false` disables
  // tree-estimation pruning. The answer stays exact either way (Theorem
  // 2); only the work counts move. Figure 9's inexact BFS-root diagnostic
  // is not a query field but a core::KDashSearcher::Search argument.
  bool use_pruning = true;

  // Absolute serving deadline. time_point::max() (the default) means none.
  // Like `trace`, the deadline never affects the answer and never
  // participates in query identity (coalescing/caching ignore it); it is a
  // *propagated budget*: BatchScheduler stamps each request's deadline here
  // before dispatch, the sharded fan-out caps retry backoff at the time
  // remaining and fails fast once expired, and the distributed router
  // forwards the remaining budget over the wire (`deadline_us=`) so a
  // remote worker's scheduler can expire the request instead of serving an
  // answer nobody is waiting for.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  // Optional per-query trace sink (see obs/trace.h): when set, every layer
  // the query passes through — scheduler queue, engine search, per-shard
  // fan-out, merge — stamps a timing span into it. Never affects results,
  // and never participates in query identity: the batch scheduler coalesces
  // queries that differ only in `trace` (the duplicate's trace then carries
  // its own queue span but the group head's compute spans).
  std::shared_ptr<obs::TraceContext> trace;

  static Query Single(NodeId source, std::size_t k = 10) {
    Query query;
    query.sources = {source};
    query.k = k;
    return query;
  }

  static Query Personalized(std::vector<NodeId> sources, std::size_t k = 10) {
    Query query;
    query.sources = std::move(sources);
    query.k = k;
    return query;
  }
};

struct SearchResult {
  std::vector<ScoredNode> top;  // ranked best-first
  core::SearchStats stats;

  // Failure-domain accounting, filled by serving::ShardedEngine: how many
  // shards contributed to `top` and how many were dropped by a graceful
  // degradation policy. A single unsharded Engine leaves both at 0. A
  // result is complete iff shards_failed == 0; a degraded result is still
  // the *exact* top-k over the surviving shards' nodes, just possibly
  // missing nodes owned by the failed ones.
  int shards_ok = 0;
  int shards_failed = 0;

  bool degraded() const { return shards_failed > 0; }
};

}  // namespace kdash

#endif  // KDASH_CORE_QUERY_H_
