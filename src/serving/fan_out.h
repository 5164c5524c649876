// kdash::serving::FanOut — the one scatter/gather behind every exact
// multi-member serving path.
//
// An in-process ShardedEngine fans a query out to its shard engines; a
// Router fans it out to worker slots over TCP. Both then owe the caller the
// same guarantee: the k best of the members' exact partial top-k lists,
// merged under the library-wide (score desc, id asc) total order, are
// bit-identical to a single Engine restricted to the surviving members'
// nodes. This module holds that guarantee once — the retry loop, the
// two-phase shard skip, the per-query failure scan and the merge — over a
// small ShardSet seam that each caller implements.
#ifndef KDASH_SERVING_FAN_OUT_H_
#define KDASH_SERVING_FAN_OUT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/engine.h"

namespace kdash::serving {

// What the fan-out does when one member's search fails (an injected fault,
// a failed IO-backed shard, a dead worker) while the others succeed. A
// kInvalidArgument is never subject to this policy: every member validates
// the query identically, so an invalid query fails outright under every
// mode — degradation must never mask caller bugs.
enum class ShardFailureMode {
  // The default: the first member failure fails the query.
  kFailFast,
  // Retry the failing member with bounded exponential backoff; if it still
  // fails after max_retries extra attempts, fail the query.
  kRetry,
  // Retry like kRetry, then drop the member: merge the survivors exactly
  // and tag the result (shards_ok/shards_failed). Fails only when fewer
  // than min_shards_ok shards survive.
  kDegrade,
};

struct ShardFailurePolicy {
  ShardFailureMode mode = ShardFailureMode::kFailFast;

  // Extra attempts per member per query (kRetry/kDegrade). 0 = no retries.
  int max_retries = 2;

  // Backoff before retry r is initial_backoff · 2^r, capped at max_backoff
  // and at the time left to the query's deadline.
  std::chrono::microseconds initial_backoff{100};
  std::chrono::microseconds max_backoff{10'000};

  // kDegrade: a query needs at least this many surviving shards, else it
  // fails with the first member's error.
  int min_shards_ok = 1;
};

// kInvalidArgument for a negative max_retries or a min_shards_ok below 1.
[[nodiscard]] Status ValidateFailurePolicy(const ShardFailurePolicy& policy);

// The members one fan-out runs over.
class ShardSet {
 public:
  virtual ~ShardSet() = default;

  virtual std::size_t size() const = 0;

  // One attempt of `query` on member s (attempt 0 first, then one call per
  // retry). On Ok, *out holds the member's exact top-k over its own nodes.
  [[nodiscard]] virtual Status SearchOnce(const Query& query, std::size_t s,
                                          int attempt,
                                          SearchResult* out) const = 0;

  // Shards member s stands for in the shards_ok/shards_failed accounting.
  virtual int weight(std::size_t s) const = 0;

  // Upper bound on the proximity any query assigns to a non-source node of
  // member s.
  virtual Scalar score_bound(std::size_t s) const = 0;

  // The member owning node u, if any. A member set that knows no owners
  // gets no mandatory phase, so θ stays 0 and nothing is skipped.
  virtual std::optional<std::size_t> owner(NodeId u) const = 0;
};

// What one FanOut call did, for the caller's counters.
struct FanOutTally {
  std::uint64_t failures = 0;  // member attempts that failed
  std::uint64_t retries = 0;   // retry attempts issued
  std::uint64_t skipped = 0;   // (query, member) pairs pruned by the bound
  std::uint64_t degraded = 0;  // queries answered from a strict subset
};

// Runs every (query, member) pair on `pool` in two phases and merges each
// query's partials exactly. Phase A searches the members that own a query
// source: a source escapes the score bound (its own proximity can reach
// c), and their exact partials seed the query's threshold θ. Phase B
// searches every other member whose score_bound is not strictly below θ;
// no node of a skipped member can displace k found candidates, so answers
// stay bit-identical. results[q] answers queries[q] on its own: failures
// are scanned per query in member order, so the reported error never
// depends on timing or on batchmates. `policy` is the caller's, fixed when
// it was built, opened or connected, so no lock guards it; `merge_span`
// names the trace span of each query's merge.
[[nodiscard]] std::vector<Result<SearchResult>> FanOut(
    const ShardSet& members, std::span<const Query> queries,
    const ShardFailurePolicy& policy, ThreadPool& pool, const char* merge_span,
    FanOutTally* tally);

}  // namespace kdash::serving

#endif  // KDASH_SERVING_FAN_OUT_H_
