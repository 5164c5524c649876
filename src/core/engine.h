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
//     absorb AddEdge/RemoveEdge without refactorizing). On an updatable
//     engine searches share a reader lock and run in parallel like static
//     ones; AddEdge/RemoveEdge take it exclusively, bring the correction up
//     to date and return, so a search never pays for an earlier edit. Both
//     backends
//     take the same core/query.h `Query` (KDashSearcher::Search,
//     DynamicKDash::Search); Engine validates it and hands it through
//     unchanged.
#ifndef KDASH_CORE_ENGINE_H_
#define KDASH_CORE_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/kdash_index.h"
#include "core/query.h"

namespace kdash {

struct EngineOptions {
  // Precompute knobs for the underlying index (restart probability,
  // reordering, threads, ...). An updatable engine uses only
  // index.restart_prob; it neither reorders nor builds inverses.
  core::KDashOptions index;

  // Build an updatable engine: AddEdge/RemoveEdge are accepted and queries
  // stay exact under the mutated graph (Woodbury correction over the base
  // factorization, kept current by each edge update, auto-refactorize past
  // core::kMaxPendingColumns columns that differ from the base). Updatable
  // engines serve queries under a shared lock that edge updates take
  // exclusively, and cannot be Saved/Opened.
  bool updatable = false;
};

class Engine {
 public:
  // Precompute an index for `graph` (or, with options.updatable, factorize
  // it for update-friendly serving). Returns kInvalidArgument for an empty
  // graph, a node whose out-weight total is not finite, or out-of-range
  // options instead of aborting.
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

  // Answer one query: SearchBatch over a batch of one, so it runs on the
  // calling thread. Thread-safe.
  [[nodiscard]] Result<SearchResult> Search(const Query& query) const;

  // Answer a batch; results[i] answers queries[i] on its own. Validates
  // every query (source/exclude ids in range, non-empty sources,
  // duplicate-free excludes, k ≥ 1) and gives an invalid one
  // kInvalidArgument with a precise message. Two or more valid queries fan
  // out over the process-wide thread pool (KDASH_NUM_THREADS workers); one
  // runs on the caller. On a static engine each worker borrows a searcher
  // from the engine's checkout list; on an updatable engine the whole batch
  // runs under one shared hold, so it sees one graph. Thread-safe.
  [[nodiscard]] std::vector<Result<SearchResult>> SearchBatch(
      std::span<const Query> queries) const;

  // Graph mutation (updatable engines only; kFailedPrecondition otherwise).
  // RemoveEdge of an absent edge returns kNotFound. Exclusive with
  // concurrent searches — callers see either the old or the new graph,
  // never a torn state. Each costs one solve against the base factors plus
  // an O(d³) refresh of the d × d Woodbury core, d ≤ kMaxPendingColumns.
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
