// kdash::serving::Router — distributed fan-out over worker processes.
//
// ShardedEngine scales a too-big index across P in-process shard engines;
// the Router is the same idea across *processes*: each slot of a worker
// topology serves a disjoint subset of a sharded index's shards (a
// `kdash_server <dir> --shards=...` per slot, optionally replicated), a
// query fans out to every slot, and the per-slot exact top-k answers merge
// under the library-wide (score desc, id asc) total order into the exact
// global top-k — bit-identical, ids and scores, to the in-process
// ShardedEngine over the same shards (scores cross the wire as hexfloats;
// see wire.h).
//
// Every worker is assumed failable. Retries, degradation and the merge are
// the very FanOut the in-process engine runs (fan_out.h), under the same
// ShardFailurePolicy, so operators reason about one policy, not two. Slots
// carry no score bounds, so the router never skips one. On top of that:
//
//   - replica failover: each attempt sends one request to one replica,
//     healthy-first and rotating per retry; an answer from any replica is
//     the slot's answer (replicas serve identical shards, so answers are
//     interchangeable bit-for-bit);
//   - shard-unit accounting: under kDegrade a dead slot counts as the
//     shards its workers' pongs advertise, so shards_ok/shards_failed
//     match what an in-process ShardedEngine would report;
//   - a background prober pings every worker each probe_period, marking
//     crashed workers down (calls then fail fast to their replicas) and
//     restarted workers back up.
#ifndef KDASH_SERVING_ROUTER_H_
#define KDASH_SERVING_ROUTER_H_

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/engine.h"
#include "serving/fan_out.h"
#include "serving/remote_shard.h"

namespace kdash::serving {

struct RouterOptions {
  // Same semantics as the in-process fan-out: kFailFast fails the query on
  // the first slot failure, kRetry retries a failing slot (across its
  // replicas), kDegrade additionally drops a slot that stays dead and
  // serves the exact merge of the survivors. Fixed for the router's
  // lifetime; Connect rejects an invalid one with kInvalidArgument.
  ShardFailurePolicy failure_policy;

  // Transport knobs applied to every worker connection.
  RemoteOptions remote;

  // Background health-probe cadence; 0 disables the prober (tests that
  // want full control of mark-down/mark-up timing).
  std::chrono::milliseconds probe_period{250};
};

class Router {
 public:
  // Topology spec: comma-separated slots, '+'-separated replicas within a
  // slot — "10.0.0.1:7611,10.0.0.1:7612" is two single-replica slots,
  // "10.0.0.1:7611+10.0.0.2:7611" one slot with a failover replica. Hosts
  // are numeric IPv4 or "localhost"; any other host, like a bad port,
  // fails Connect with kInvalidArgument. Connect validates the spec, spins
  // up the IO pool and prober, and sends one best-effort probe round so
  // replica weights and initial health reflect reality (unreachable
  // workers are tolerated — they are exactly what the failure policy is
  // for).
  [[nodiscard]] static Result<std::unique_ptr<Router>> Connect(
      const std::string& spec, RouterOptions options = {});

  ~Router();  // stops the prober, drains nothing (calls hold no state here)

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Same contracts as ShardedEngine::Search/SearchBatch, with slots in
  // place of shards: results[i] answers queries[i] on its own; a
  // worker-reported kInvalidArgument fails its query outright under every
  // policy; under kDegrade a result may cover only surviving slots (check
  // degraded()), and a worker that degraded itself passes its own tags
  // through.
  [[nodiscard]] Result<SearchResult> Search(const Query& query) const;
  [[nodiscard]] std::vector<Result<SearchResult>> SearchBatch(
      std::span<const Query> queries) const;

  int num_slots() const { return static_cast<int>(slots_.size()); }
  int num_replicas(int slot) const {
    return static_cast<int>(slots_[static_cast<std::size_t>(slot)].size());
  }

  // Shards served across all slots (sum of advertised weights) — the
  // denominator of the shards_ok/shards_failed accounting.
  int shards_total() const;

  // True iff any replica of the slot is currently marked healthy.
  bool slot_healthy(int slot) const;

 private:
  explicit Router(RouterOptions options);

  // The slots as the fan-out's member set: one attempt picks one replica,
  // healthy-first and rotating per retry (.cc).
  class Slots;

  // One request/response against `worker`, parsed into `out`.
  [[nodiscard]] Status Attempt(RemoteWorker* worker, const std::string& line,
                               const Query& query, std::size_t slot,
                               SearchResult* out) const;

  int SlotWeight(std::size_t slot) const;

  RouterOptions options_;
  std::vector<std::vector<std::unique_ptr<RemoteWorker>>> slots_;
  std::unique_ptr<ThreadPool> io_pool_;

  // Registry handles resolved once at Connect (lookups lock).
  struct RouterMetrics;
  std::unique_ptr<RouterMetrics> metrics_;

  // Prober shutdown handshake.
  mutable Mutex prober_mutex_;
  CondVar prober_stop_changed_;
  bool prober_stop_ KDASH_GUARDED_BY(prober_mutex_) = false;
  std::thread prober_;
};

}  // namespace kdash::serving

#endif  // KDASH_SERVING_ROUTER_H_
