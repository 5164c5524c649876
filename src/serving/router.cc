#include "serving/router.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <utility>

#include "common/parse_number.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/wire.h"

namespace kdash::serving {

struct Router::RouterMetrics {
  obs::Counter* degraded_queries =
      &obs::MetricRegistry::Global().GetCounter("router.degraded_queries");
  obs::Counter* failovers =
      &obs::MetricRegistry::Global().GetCounter("router.failovers");
  obs::Counter* health_probes =
      &obs::MetricRegistry::Global().GetCounter("router.health_probes");
  obs::Counter* hedge_wins =
      &obs::MetricRegistry::Global().GetCounter("router.hedge_wins");
  obs::Counter* hedges =
      &obs::MetricRegistry::Global().GetCounter("router.hedges");
  // The live round-trip distribution that also drives the adaptive hedge
  // delay (its p99).
  obs::Histogram* remote_us =
      &obs::MetricRegistry::Global().GetHistogram("router.remote_us");
};

namespace {

// Bounds on the p99-derived hedge delay.
constexpr std::chrono::microseconds kHedgeMinDelay{1'000};
constexpr std::chrono::microseconds kHedgeMaxDelay{50'000};

Result<RemoteEndpoint> ParseEndpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return Status::InvalidArgument("worker endpoint \"" + text +
                                   "\" is not host:port");
  }
  RemoteEndpoint endpoint;
  if (!ParseNumber(std::string_view(text).substr(colon + 1), &endpoint.port,
                   1, 65535)) {
    return Status::InvalidArgument("worker endpoint \"" + text +
                                   "\" has a bad port");
  }
  endpoint.host = text.substr(0, colon);
  return endpoint;
}

std::vector<std::string> SplitOn(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t at = text.find(separator, begin);
    parts.push_back(text.substr(begin, at - begin));
    if (at == std::string::npos) return parts;
    begin = at + 1;
  }
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      metrics_(std::make_unique<RouterMetrics>()) {}

Result<std::unique_ptr<Router>> Router::Connect(const std::string& spec,
                                                RouterOptions options) {
  KDASH_RETURN_IF_ERROR(ValidateFailurePolicy(options.failure_policy));
  if (spec.empty()) {
    return Status::InvalidArgument("empty worker spec");
  }

  // kdash-lint: allow(naked-new) private constructor; ownership lands in
  // the unique_ptr on the same line.
  std::unique_ptr<Router> router(new Router(std::move(options)));
  for (const std::string& slot_spec : SplitOn(spec, ',')) {
    std::vector<std::unique_ptr<RemoteWorker>> replicas;
    for (const std::string& replica_spec : SplitOn(slot_spec, '+')) {
      KDASH_ASSIGN_OR_RETURN(RemoteEndpoint endpoint,
                             ParseEndpoint(replica_spec));
      replicas.push_back(std::make_unique<RemoteWorker>(
          std::move(endpoint), router->options_.remote));
    }
    router->slots_.push_back(std::move(replicas));
  }

  // Two fan-out IO threads per slot, clamped to [2, 32]. The router never
  // borrows the process-wide shared pool: its tasks block on recv(), and
  // parking shared-pool workers on a socket would starve (or, with
  // in-process test workers on the same pool, deadlock) the compute the
  // answers depend on.
  router->io_pool_ = std::make_unique<ThreadPool>(
      std::clamp(2 * router->num_slots(), 2, 32));

  // One best-effort probe round: learn replica shard weights (the pong
  // handshake) and initial health before the first query, so a topology
  // with a dead worker degrades on query one instead of discovering the
  // corpse mid-merge. Failures are expected and tolerated.
  std::vector<RemoteWorker*> all;
  for (auto& slot : router->slots_) {
    for (auto& replica : slot) all.push_back(replica.get());
  }
  router->io_pool_->ParallelFor(
      0, static_cast<Index>(all.size()), /*grain=*/1,
      [&](Index begin, Index end, int) {
        for (Index i = begin; i < end; ++i) {
          all[static_cast<std::size_t>(i)]->Probe().IgnoreError();
        }
      });

  if (router->options_.probe_period.count() > 0) {
    Router* self = router.get();
    router->prober_ = std::thread([self] {
      MutexLock lock(self->prober_mutex_);
      for (;;) {
        const auto wake =
            std::chrono::steady_clock::now() + self->options_.probe_period;
        while (!self->prober_stop_ &&
               self->prober_stop_changed_.WaitUntil(self->prober_mutex_,
                                                    wake) !=
                   std::cv_status::timeout) {
        }
        if (self->prober_stop_) return;
        lock.Unlock();
        for (auto& slot : self->slots_) {
          for (auto& replica : slot) {
            self->metrics_->health_probes->Add();
            replica->Probe().IgnoreError();
          }
        }
        lock.Lock();
      }
    });
  }
  return router;
}

Router::~Router() {
  if (prober_.joinable()) {
    {
      MutexLock lock(prober_mutex_);
      prober_stop_ = true;
    }
    prober_stop_changed_.NotifyAll();
    prober_.join();
  }
}

int Router::SlotWeight(std::size_t slot) const {
  // Replicas serve identical shards; trust the largest advertisement (a
  // replica that never answered a pong still defaults to 1).
  int weight = 1;
  for (const auto& replica : slots_[slot]) {
    weight = std::max(weight, replica->shard_weight());
  }
  return weight;
}

int Router::shards_total() const {
  int total = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) total += SlotWeight(s);
  return total;
}

bool Router::slot_healthy(int slot) const {
  for (const auto& replica : slots_[static_cast<std::size_t>(slot)]) {
    if (replica->healthy()) return true;
  }
  return false;
}

std::chrono::microseconds Router::HedgeDelay() const {
  if (options_.hedge_delay.count() > 0) return options_.hedge_delay;
  const auto p99 =
      std::chrono::microseconds(metrics_->remote_us->Quantile(0.99));
  return std::clamp(p99, kHedgeMinDelay, kHedgeMaxDelay);
}

Status Router::Attempt(RemoteWorker* primary, RemoteWorker* hedge,
                       const std::string& line, const Query& query,
                       std::size_t slot, SearchResult* out) const {
  obs::ScopedSpan span(query.trace.get(), "router.remote_call",
                       static_cast<int>(slot));
  WallTimer timer;
  // One wait budget for the whole attempt: the query's deadline, or the
  // transport io_timeout when that is earlier (or the query has none).
  const auto deadline =
      std::min(query.deadline,
               std::chrono::steady_clock::now() + options_.remote.io_timeout);

  KDASH_ASSIGN_OR_RETURN(RemoteWorker::Call call, primary->Begin(line));

  RemoteWorker* winner = primary;
  Result<std::string> response = Status::Internal("unreachable");
  bool resolved = false;
  if (options_.hedging && hedge != nullptr) {
    // Give the primary the full hedge delay; re-issue to the replica only
    // when it misses it, then take whichever answers first. poll() counts
    // whole milliseconds, so the wait rounds up and re-polls until the
    // hedge instant has really passed — a hedge never fires early.
    const auto wait_until =
        std::min(std::chrono::steady_clock::now() + HedgeDelay(), deadline);
    int ready = 0;
    for (;;) {
      pollfd pfd{call.fd(), POLLIN, 0};
      ready = ::poll(&pfd, 1, PollTimeoutMs(wait_until));
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0 && std::chrono::steady_clock::now() < wait_until) {
        continue;
      }
      break;
    }
    if (ready == 0 && std::chrono::steady_clock::now() < deadline) {
      metrics_->hedges->Add();
      obs::ScopedSpan hedge_span(query.trace.get(), "router.hedge",
                                 static_cast<int>(slot));
      Result<RemoteWorker::Call> hedged = hedge->Begin(line);
      if (hedged.ok()) {
        for (;;) {
          pollfd fds[2] = {{call.fd(), POLLIN, 0}, {hedged->fd(), POLLIN, 0}};
          const int both = ::poll(fds, 2, PollTimeoutMs(deadline));
          if (both < 0 && errno == EINTR) continue;
          if (both == 0 && std::chrono::steady_clock::now() < deadline) {
            continue;
          }
          if (both <= 0) {
            // Neither made the deadline (or poll failed); Finish on the
            // primary surfaces the status and handles health accounting.
            hedge->Abandon(std::move(*hedged));
            break;
          }
          if (fds[0].revents != 0) {
            hedge->Abandon(std::move(*hedged));
            response = primary->Finish(std::move(call), deadline);
            resolved = true;
            break;
          }
          metrics_->hedge_wins->Add();
          winner = hedge;
          primary->Abandon(std::move(call));
          response = hedge->Finish(std::move(*hedged), deadline);
          resolved = true;
          break;
        }
      }
    }
  }
  if (!resolved) response = primary->Finish(std::move(call), deadline);
  if (!response.ok()) return response.status();

  metrics_->remote_us->Record(static_cast<std::uint64_t>(timer.Micros()));
  KDASH_ASSIGN_OR_RETURN(wire::ParsedRecord record,
                         wire::ParseRecordLine(*response));
  switch (record.kind) {
    case wire::ParsedRecord::Kind::kError:
      // The worker answered — transport is fine, the *query* failed there
      // (validation, overload, its own deadline). Hand the canonical
      // status to the failure policy.
      return record.error;
    case wire::ParsedRecord::Kind::kPong:
      return Status::Internal(winner->endpoint().ToString() +
                              " answered a query with a pong");
    case wire::ParsedRecord::Kind::kResult:
      *out = std::move(record.result);
      return Status::Ok();
  }
  return Status::Internal("unhandled record kind");
}

class Router::Slots final : public ShardSet {
 public:
  explicit Slots(const Router& router) : router_(router) {}

  std::size_t size() const override { return router_.slots_.size(); }

  Status SearchOnce(const Query& query, std::size_t slot, int attempt,
                    SearchResult* out) const override {
    // Healthy-first, config-order-stable replica ordering, recomputed per
    // attempt — a mark-down between attempts reroutes the retry.
    const auto& replicas = router_.slots_[slot];
    std::vector<RemoteWorker*> ordered;
    ordered.reserve(replicas.size());
    for (const auto& replica : replicas) {
      if (replica->healthy()) ordered.push_back(replica.get());
    }
    for (const auto& replica : replicas) {
      if (!replica->healthy()) ordered.push_back(replica.get());
    }
    RemoteWorker* target =
        ordered[static_cast<std::size_t>(attempt) % ordered.size()];
    if (target != replicas.front().get()) router_.metrics_->failovers->Add();
    RemoteWorker* hedge = nullptr;
    for (RemoteWorker* candidate : ordered) {
      if (candidate != target && candidate->healthy()) {
        hedge = candidate;
        break;
      }
    }
    // Formatted per attempt, so a retry carries the budget left now.
    return router_.Attempt(target, hedge, wire::FormatRequestLine(query),
                           query, slot, out);
  }

  int weight(std::size_t slot) const override {
    return router_.SlotWeight(slot);
  }

  // Slots carry no bounds and own no nodes: phase A stays empty, θ stays
  // 0, and every slot is searched.
  Scalar score_bound(std::size_t /*slot*/) const override {
    return std::numeric_limits<Scalar>::infinity();
  }
  std::optional<std::size_t> owner(NodeId /*u*/) const override {
    return std::nullopt;
  }

 private:
  const Router& router_;
};

Result<SearchResult> Router::Search(const Query& query) const {
  return std::move(SearchBatch({&query, 1}).front());
}

std::vector<Result<SearchResult>> Router::SearchBatch(
    std::span<const Query> queries) const {
  // The IO pool, never the shared one: slot attempts block on recv().
  FanOutTally tally;
  auto results = FanOut(Slots(*this), queries, options_.failure_policy,
                        *io_pool_, "router.merge", &tally);
  metrics_->degraded_queries->Add(tally.degraded);
  return results;
}

}  // namespace kdash::serving
