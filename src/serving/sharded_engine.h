// kdash::serving::ShardedEngine — partitioned indexes with exact merging.
//
// One KDashIndex holds two kinds of state: per-query machinery that every
// query needs in full (L⁻¹ columns for y, the BFS adjacency, the estimator
// tables — all O(n) or query-source-dependent) and the per-answer-node
// payload, the U⁻¹ rows, which dominate the footprint (paper Fig. 5). A
// ShardedEngine splits the payload: node ids [0, n) are partitioned into P
// contiguous ranges, and shard s keeps only the U⁻¹ rows of its range
// (KDashIndex::Restrict). A query fans out to every shard; each returns the
// exact top-k among its own nodes with bit-identical scores to a full
// index (the proximity kernel sees the same row bytes and the same y), and
// the per-shard heaps merge under the library-wide (score desc, id asc)
// total order into the exact global top-k — bit-identical, ids and scores,
// to a single unsharded Engine.
//
// What sharding buys: each shard's U⁻¹ storage is ~1/P of the full index,
// so P hosts (or P mmap'd files) can serve a graph whose full inverse does
// not fit one precompute, and per-shard query work shrinks with the shard.
// What it costs: within one process the shared machinery (L⁻¹, adjacency,
// estimator tables) exists exactly once — KDashIndex::Restrict aliases it
// behind a shared_ptr rather than copying — but every *saved shard file*
// carries a full copy of it, so P shard processes on P hosts replicate it P
// ways. Per-shard pruning thresholds are also local — looser than the
// global θ — so the summed work across shards exceeds one unsharded query.
// Sharding is a scale-out tool, not a latency optimization on one small
// host.
#ifndef KDASH_SERVING_SHARDED_ENGINE_H_
#define KDASH_SERVING_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "serving/fan_out.h"

namespace kdash::serving {

struct ShardedEngineOptions {
  // Number of node partitions. Must be in [1, num_nodes]; each shard owns a
  // contiguous id range of size ⌈n/P⌉ or ⌊n/P⌋.
  int num_shards = 2;

  // Precompute knobs for the underlying (single, then restricted) index.
  core::KDashOptions index;

  // Per-shard failure handling for Search/SearchBatch (see above).
  ShardFailurePolicy failure_policy;
};

class ShardedEngine {
 public:
  // Precompute once over the full graph, then split the index into
  // `options.num_shards` restricted shard engines (restriction runs on the
  // thread pool, one task per shard). The shards alias the full index's
  // immutable non-U⁻¹ state instead of copying it, so an in-process build's
  // footprint is one full index plus the per-shard U⁻¹ slices (≈ 2× the
  // U⁻¹ payload at peak, while the full index is still alive). The
  // per-process U⁻¹ memory win applies to serving a saved sharded
  // directory, where each process opens only its shard files.
  [[nodiscard]] static Result<ShardedEngine> Build(const graph::Graph& graph,
                                     const ShardedEngineOptions& options = {});

  // Open a sharded index directory written by Save(): a MANIFEST naming the
  // per-shard files, validated end to end (missing manifest/shard file =
  // kNotFound, malformed manifest = kDataLoss, version mismatch =
  // kFailedPrecondition, shards not partitioning [0, n) = kDataLoss). Only
  // the served shards' files are read, in parallel on the thread pool.
  //
  // `shards` lists the MANIFEST ids to serve (empty = all) — what one
  // process of a multi-process topology serves. A duplicate or
  // out-of-range id is kInvalidArgument. Answers are the exact top-k over
  // the listed shards' nodes; per-shard metric and fault-site names keep
  // the MANIFEST id. `policy` is the failure policy for every later
  // Search/SearchBatch, fixed for the engine's lifetime like Build's; an
  // invalid one is kInvalidArgument.
  [[nodiscard]] static Result<ShardedEngine> Open(
      const std::string& dir, const std::vector<int>& shards = {},
      const ShardFailurePolicy& policy = {});

  // Persist as a directory: one index file per shard, named for this save
  // (shard-<id>.g<generation>.kdash, a generation above any already in
  // `dir`), then the MANIFEST naming them, then a best-effort removal of
  // the files the previous MANIFEST named. Each file is written atomically
  // (common/atomic_file.h), so a save that fails midway leaves the previous
  // MANIFEST and every file it names intact. kFailedPrecondition on an
  // engine opened with a strict subset of its directory's shards.
  [[nodiscard]] Status Save(const std::string& dir) const;

  // Fan one query out to every shard (in parallel) and merge the per-shard
  // top-k heaps into the exact global top-k. Same validation and Status
  // contract as Engine::Search; stats are summed across shards
  // (terminated_early = any shard pruned). Under a kDegrade policy a result
  // may cover only the surviving shards — check SearchResult::degraded();
  // the merge over survivors is still exact (bit-identical to an engine
  // restricted to their node ranges).
  [[nodiscard]] Result<SearchResult> Search(const Query& query) const;

  // Batch variant: queries × shards fan out as one flat parallel loop, so a
  // large batch keeps every worker busy even when P is small. results[i]
  // answers queries[i] with exactly what Search(queries[i]) would return.
  [[nodiscard]] std::vector<Result<SearchResult>> SearchBatch(
      std::span<const Query> queries) const;

  NodeId num_nodes() const { return num_nodes_; }
  // Shards this engine serves (all of them unless opened with a subset);
  // s below indexes them in ascending MANIFEST-id order.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // The shard engine owning node range [shard_begin(s), shard_end(s)).
  const Engine& shard(int s) const { return shards_[static_cast<std::size_t>(s)]; }
  NodeId shard_begin(int s) const { return bounds_[shard_id(s)]; }
  NodeId shard_end(int s) const { return bounds_[shard_id(s) + 1]; }

  // ---- shard-skip acceleration --------------------------------------------
  //
  // Each shard carries a precomputed upper bound on the proximity any query
  // can assign to a NON-SOURCE node it owns (core::OwnedScoreBound over its
  // index's ownership window, derived from the Lemma-1 estimator:
  // p(u) ≤ c′(u)·Amax; SetShards computes it), which FanOut (fan_out.h)
  // uses to skip shards exactly. With c = 0.95 the bound is
  // ≈ 0.05, so skips fire mostly on k=1 single-source workloads where the
  // source shard alone yields θ ≈ c. Nothing is skipped while the
  // source-owning shards hold fewer than k candidates (θ stays 0).

  // Cumulative (query, shard) fan-out slots pruned by the bound, across
  // every Search/SearchBatch on this engine. Also counted into the
  // process-wide "serving.shards_skipped" counter, next to the fan-out's
  // serving.{shard_failures, shard_retries, degraded_queries}.
  std::uint64_t shards_skipped() const;

  // Shard s's precomputed score bound (diagnostics/tests).
  Scalar shard_score_bound(int s) const {
    return shard_score_bounds_[static_cast<std::size_t>(s)];
  }

  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

 private:
  // The shard-skip counter plus registry handles (see .cc).
  // Behind a unique_ptr: atomics are neither movable nor copyable, but a
  // ShardedEngine is movable.
  struct ControlBlock;

  // The served shards as the fan-out's member set, for one call (.cc).
  class Members;

  ShardedEngine();

  // Installs the served shards with their MANIFEST ids, and derives their
  // score bounds and metric handles (Build/Open tail).
  void SetShards(std::vector<int> ids, std::vector<Engine> shards);

  std::size_t shard_id(int s) const {
    return static_cast<std::size_t>(shard_ids_[static_cast<std::size_t>(s)]);
  }

  NodeId num_nodes_ = 0;
  // P + 1 fenceposts over every shard of the index: shard id g owns
  // [b[g], b[g+1]), whether or not this engine serves it.
  std::vector<NodeId> bounds_;
  std::vector<int> shard_ids_;  // MANIFEST id of each served shard, ascending
  std::vector<Engine> shards_;
  std::vector<Scalar> shard_score_bounds_;  // parallel to shards_
  // Fixed at Build/Open; read without a lock by every fan-out.
  ShardFailurePolicy policy_;
  std::unique_ptr<ControlBlock> control_;
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_SHARDED_ENGINE_H_
