// kdash::Engine — the single serving facade of the library.
//
// The paper-artifact API (KDashIndex + KDashSearcher, positional
// arguments, abort-on-bad-file loading) is the wrong surface for a
// long-lived server. Engine wraps it in one thread-safe handle:
//
//   KDASH_ASSIGN_OR_RETURN(auto engine, Engine::Open("social.kdash"));
//   Query query = Query::Single(123, /*k=*/10);
//   query.exclude = {45, 99};
//   KDASH_ASSIGN_OR_RETURN(auto result, engine.Search(query));
//
// Contracts:
//   - Every failure the caller can provoke (bad file, out-of-range node,
//     empty source set, duplicate excludes, unsupported operation) comes
//     back as a Status/Result — the process never aborts on bad input.
//   - Search and SearchBatch are safe to call concurrently from any number
//     of threads on one Engine, and their results are bit-identical to
//     sequential execution (searchers are deterministic; the engine only
//     adds workspace reuse, never reordering of floating-point work).
//   - An Engine is either *static* (immutable precomputed index — the
//     paper's K-dash, milliseconds per query) or *updatable*
//     (EngineOptions::updatable — Woodbury-corrected exact solves that
//     absorb AddEdge/RemoveEdge without refactorizing). The Query surface
//     is the same for both.
#ifndef KDASH_CORE_ENGINE_H_
#define KDASH_CORE_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/top_k.h"
#include "common/types.h"
#include "core/kdash_index.h"
#include "core/kdash_searcher.h"
#include "obs/trace.h"

namespace kdash {

struct EngineOptions {
  // Precompute knobs for the underlying index (restart probability,
  // reordering, threads, ...).
  core::KDashOptions index;

  // Build an updatable engine: AddEdge/RemoveEdge are accepted and queries
  // stay exact under the mutated graph (Woodbury correction over the base
  // factorization, auto-refactorize after `max_pending_columns` distinct
  // changed columns). Updatable engines serve queries under an exclusive
  // lock (the correction state is shared) and cannot be Saved/Opened.
  bool updatable = false;
  int max_pending_columns = 64;
};

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

  // Diagnostics (Figure 7 / Figure 9 of the paper). `use_pruning = false`
  // disables tree-estimation pruning; `root_override` roots the BFS tree
  // at a non-query node (single-source static queries only — results are
  // then not guaranteed exact).
  bool use_pruning = true;
  NodeId root_override = kInvalidNode;

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

class Engine {
 public:
  // Precompute an index for `graph` (or, with options.updatable, factorize
  // it for update-friendly serving). Returns kInvalidArgument for an empty
  // graph or out-of-range options instead of aborting.
  [[nodiscard]] static Result<Engine> Build(const graph::Graph& graph,
                              const EngineOptions& options = {});

  // Open a previously saved index. Corrupt, truncated, or
  // version-mismatched files come back as non-OK (kDataLoss /
  // kFailedPrecondition), a missing file as kNotFound.
  [[nodiscard]] static Result<Engine> Open(const std::string& path);
  [[nodiscard]] static Result<Engine> Open(std::istream& in);

  // Wrap an already-built index (e.g., a shard from KDashIndex::Restrict)
  // into a static engine. The index is taken by value — an index in hand is
  // already valid, so this cannot fail.
  static Engine FromIndex(core::KDashIndex index);

  // Persist a static engine's index. kFailedPrecondition for updatable
  // engines (their factorization tracks a mutating graph).
  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]] Status Save(std::ostream& out) const;

  // Answer one query. Validates every input (source/exclude ids in range,
  // non-empty sources, duplicate-free excludes, k ≥ 1) and returns
  // kInvalidArgument with a precise message on violation. Thread-safe.
  [[nodiscard]] Result<SearchResult> Search(const Query& query) const;

  // Answer a batch; results[i] answers queries[i]. On a static engine the
  // batch fans out over the process-wide thread pool (KDASH_NUM_THREADS
  // workers), each worker borrowing a searcher from the same checkout list
  // as Search; any invalid query fails the whole batch (use Search per
  // query for per-query error handling). Thread-safe.
  [[nodiscard]] Result<std::vector<SearchResult>> SearchBatch(
      std::span<const Query> queries) const;

  // Graph mutation (updatable engines only; kFailedPrecondition otherwise).
  // RemoveEdge of an absent edge returns kNotFound. Exclusive with
  // concurrent searches — callers see either the old or the new graph,
  // never a torn state.
  [[nodiscard]] Status AddEdge(NodeId src, NodeId dst, Scalar weight = 1.0);
  [[nodiscard]] Status RemoveEdge(NodeId src, NodeId dst);

  NodeId num_nodes() const;
  Scalar restart_prob() const;
  bool updatable() const;

  // Monotone counter bumped on every successful AddEdge/RemoveEdge (0 for
  // a static engine, forever). Caches keyed on query content poll it to
  // invalidate across graph mutations: an entry admitted under epoch e is
  // stale iff update_epoch() != e. The bump happens before AddEdge returns,
  // so a caller that observes the mutation also observes the new epoch.
  std::uint64_t update_epoch() const;

  // The underlying precomputed index (static engines only — aborts on an
  // updatable engine, which has no KDashIndex). For stats/introspection;
  // new serving features should extend Engine instead.
  const core::KDashIndex& index() const;

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

 private:
  struct Impl;
  explicit Engine(std::unique_ptr<Impl> impl);
  // Shared tail of the two Open overloads.
  [[nodiscard]] static Result<Engine> WrapLoadedIndex(
      Result<core::KDashIndex> loaded);
  std::unique_ptr<Impl> impl_;
};

}  // namespace kdash

#endif  // KDASH_CORE_ENGINE_H_
