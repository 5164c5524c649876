#include "serving/fan_out.h"

#include <algorithm>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/top_k.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kdash::serving {

Status ValidateFailurePolicy(const ShardFailurePolicy& policy) {
  if (policy.max_retries < 0) {
    return Status::InvalidArgument("failure_policy.max_retries must be >= 0");
  }
  if (policy.min_shards_ok < 1) {
    return Status::InvalidArgument("failure_policy.min_shards_ok must be >= 1");
  }
  return Status::Ok();
}

namespace {

// Member s's attempt(s) at one query: retries with exponential backoff when
// the policy says so, and returns the last failure otherwise. Counts every
// attempt made into *attempts.
Status SearchWithRetries(const ShardSet& members, const Query& query,
                         std::size_t s, const ShardFailurePolicy& policy,
                         SearchResult* out, int* attempts) {
  const bool retryable_mode = policy.mode != ShardFailureMode::kFailFast;
  auto backoff = policy.initial_backoff;
  for (int attempt = 0;; ++attempt) {
    *attempts = attempt + 1;
    const Status status = members.SearchOnce(query, s, attempt, out);
    if (status.ok()) return status;
    // An invalid query fails identically on every member and on every
    // attempt — retrying or degrading would only mask the caller's bug.
    if (!retryable_mode || status.code() == StatusCode::kInvalidArgument ||
        attempt >= policy.max_retries) {
      return status;
    }
    // Backoff is deadline-aware: an uncapped sleep could overshoot the
    // query's remaining budget, burning wall-clock on a retry whose answer
    // the caller will discard as DEADLINE_EXCEEDED anyway. Fail fast once
    // the budget is gone, and never sleep past it.
    auto sleep = backoff;
    if (query.deadline != std::chrono::steady_clock::time_point::max()) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::microseconds>(query.deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded(
            "deadline expired before retrying member " + std::to_string(s) +
            ": " + status.message());
      }
      sleep = std::min(sleep, remaining);
    }
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

}  // namespace

std::vector<Result<SearchResult>> FanOut(const ShardSet& members,
                                         std::span<const Query> queries,
                                         const ShardFailurePolicy& policy,
                                         ThreadPool& pool,
                                         const char* merge_span,
                                         FanOutTally* tally) {
  static obs::Histogram& merge_us =
      obs::MetricRegistry::Global().GetHistogram("serving.merge_us");
  *tally = FanOutTally{};
  const std::size_t num_queries = queries.size();
  const std::size_t count = members.size();

  // Flat (query × member) slots: partial answers land in fixed positions,
  // so the merge below is deterministic regardless of which worker ran
  // what. A skipped slot keeps its default Ok status and empty partial.
  std::vector<SearchResult> partials(num_queries * count);
  std::vector<Status> statuses(num_queries * count);
  std::vector<int> attempts(num_queries * count, 0);
  const auto run_slots = [&](const std::vector<std::size_t>& slots) {
    pool.ParallelFor(0, static_cast<Index>(slots.size()), /*grain=*/1,
                     [&](Index begin, Index end, int) {
                       for (Index t = begin; t < end; ++t) {
                         const std::size_t i =
                             slots[static_cast<std::size_t>(t)];
                         statuses[i] = SearchWithRetries(
                             members, queries[i / count], i % count, policy,
                             &partials[i], &attempts[i]);
                       }
                     });
  };

  // The exact merge: the k best, under the (score desc, id asc) total
  // order, of query q's successful partials from the members `admit`
  // accepts, with their work summed. Each partial is the exact top-k among
  // its member's nodes, so the result is exactly what a single engine
  // restricted to those members' nodes would return.
  const auto merge = [&](std::size_t q, const auto& admit) {
    TopKHeap heap(queries[q].k);
    SearchResult merged;
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t i = q * count + s;
      if (!statuses[i].ok() || !admit(s)) continue;
      for (const ScoredNode& entry : partials[i].top) {
        heap.Push(entry.node, entry.score);
      }
      merged.stats.nodes_visited += partials[i].stats.nodes_visited;
      merged.stats.proximity_computations +=
          partials[i].stats.proximity_computations;
      merged.stats.terminated_early |= partials[i].stats.terminated_early;
      merged.stats.tree_size += partials[i].stats.tree_size;
    }
    merged.top = heap.Sorted();
    return merged;
  };

  // Phase A: the source-owning members.
  std::vector<char> mandatory(num_queries * count, 0);
  std::vector<std::size_t> phase_a;
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (const NodeId source : queries[q].sources) {
      // An out-of-range source is a caller bug every member rejects
      // identically; owner() finds none and phase B reports it.
      const std::optional<std::size_t> s = members.owner(source);
      if (!s.has_value() || mandatory[q * count + *s]) continue;
      mandatory[q * count + *s] = 1;
      phase_a.push_back(q * count + *s);
    }
  }
  run_slots(phase_a);

  // Phase B: every remaining member whose bound could still beat θ.
  std::vector<std::size_t> phase_b;
  for (std::size_t q = 0; q < num_queries; ++q) {
    Scalar theta = 0.0;
    // k == 0 is invalid; let phase B report it. θ stays 0 until k
    // candidates exist — a partial list can never justify a skip. Under
    // kDegrade a failed mandatory member only lowers θ, which is
    // conservative.
    if (queries[q].k > 0) {
      const SearchResult seed =
          merge(q, [&](std::size_t s) { return mandatory[q * count + s]; });
      if (seed.top.size() == queries[q].k) theta = seed.top.back().score;
    }
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t i = q * count + s;
      if (mandatory[i]) continue;
      // Strict <: a tied score with a smaller node id could still enter
      // under the (score desc, id asc) total order.
      if (theta > 0.0 && members.score_bound(s) < theta) {
        ++tally->skipped;
        obs::ScopedSpan span(queries[q].trace.get(), "sharded.shard_skip",
                             static_cast<int>(s));
      } else {
        phase_b.push_back(i);
      }
    }
  }
  run_slots(phase_b);

  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (attempts[i] == 0) continue;
    tally->retries += static_cast<std::uint64_t>(attempts[i] - 1);
    tally->failures +=
        static_cast<std::uint64_t>(attempts[i] - (statuses[i].ok() ? 1 : 0));
  }

  // Per-query failure domains: a member failure poisons only its own
  // query, and only as far as the policy allows.
  const bool degrade = policy.mode == ShardFailureMode::kDegrade;
  std::vector<Result<SearchResult>> results;
  results.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    int ok_shards = 0;
    int failed_shards = 0;
    const Status* first_failure = nullptr;
    bool invalid = false;
    for (std::size_t s = 0; s < count; ++s) {
      const Status& status = statuses[q * count + s];
      if (status.ok()) {
        // A member can itself degrade (a worker serving several shards
        // under its own policy); fold its accounting through instead of
        // assuming all-or-nothing.
        const SearchResult& partial = partials[q * count + s];
        if (partial.shards_failed > 0) {
          ok_shards += partial.shards_ok;
          failed_shards += partial.shards_failed;
        } else {
          ok_shards += members.weight(s);
        }
      } else {
        failed_shards += members.weight(s);
        if (first_failure == nullptr) first_failure = &status;
        invalid |= status.code() == StatusCode::kInvalidArgument;
      }
    }
    if (failed_shards > 0) {
      // first_failure is null when every member answered but one degraded
      // itself; its own policy already sanctioned the partial answer, so
      // only the tag and the count remain.
      if (first_failure != nullptr) {
        if (invalid || !degrade) {
          results.emplace_back(*first_failure);
          continue;
        }
        if (ok_shards < policy.min_shards_ok) {
          results.emplace_back(
              Status(first_failure->code(),
                     "degraded below min_shards_ok (" +
                         std::to_string(ok_shards) + "/" +
                         std::to_string(ok_shards + failed_shards) +
                         " shards ok): " + first_failure->message()));
          continue;
        }
      }
      ++tally->degraded;
    }

    obs::ScopedSpan span(queries[q].trace.get(), merge_span);
    WallTimer timer;
    SearchResult merged = merge(q, [](std::size_t) { return true; });
    merged.shards_ok = ok_shards;
    merged.shards_failed = failed_shards;
    merge_us.Record(static_cast<std::uint64_t>(timer.Micros()));
    results.emplace_back(std::move(merged));
  }
  return results;
}

}  // namespace kdash::serving
