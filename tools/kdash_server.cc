// kdash_server — JSON-lines serving front end over the micro-batching
// scheduler. Speaks the protocol documented in src/serving/wire.h and
// routes every request through serving::BatchScheduler, so concurrent
// request streams coalesce into SearchBatch micro-batches on the shared
// thread pool.
//
//   kdash_server <index.kdash | sharded-index-dir/> [--k=5] [--batch=64]
//                [--deadline-ms=0] [--max-queue=4096]
//                [--degrade=fail|retry|degrade]
//                [--cache-entries=1024] [--shards=a,b,...]
//                [--port=7607] [--stats-period=0]
//   kdash_server --workers=host:port[+replica...][,slot2...] [common flags]
//                [--no-hedge] [--hedge-delay-us=0] [--probe-period-ms=250]
//
// The index argument is a single-index file, or a directory written by
// serving::ShardedEngine::Save (detected automatically; queries then fan
// out across the shards and merge exactly). --shards=a,b serves only those
// shards of the directory (MANIFEST ids): the per-process memory win of a
// multi-process topology, where each such server is one worker — one
// failure domain — behind a router. Its answers are the exact top-k over
// its own shards, and its pongs advertise how many shards it serves.
//
// Router mode (--workers= in place of an index path) serves no index
// itself: every query fans out over TCP to the listed worker servers —
// comma-separated slots, '+'-separated failover replicas within a slot —
// and the per-worker exact top-k answers merge into the exact global
// top-k, bit-identical to the in-process sharded engine over the same
// shards. --degrade selects the same failure policy across the process
// boundary (a dead worker under --degrade=degrade yields partial answers
// tagged "shards_failed"); hedging re-issues slow requests to a replica
// (--no-hedge disables, --hedge-delay-us pins the delay, 0 derives it from
// the live p99); --probe-period-ms paces the background health prober that
// marks crashed workers down and restarted ones back up.
//
// Without --port the server pumps stdin→stdout: requests are submitted
// asynchronously with up to 256 in flight, responses print in input
// order, and EOF drains the scheduler cleanly. With --port it accepts TCP
// connections on 127.0.0.1 (one thread per connection, same line protocol
// per connection; --port=0 picks an ephemeral port, printed on the
// "listening" stderr line) — requests from *different* clients batch
// together, which is where micro-batching pays off.
//
//   --batch=N        at most N requests per micro-batch. There is no
//                    batching timer: an idle scheduler dispatches a request
//                    at once, and a batch forms from whatever queued while
//                    the previous one ran
//   --deadline-ms=N  per-request deadline; expired requests come back as
//                    {"code":"DEADLINE_EXCEEDED",...} records (0 = none;
//                    an N past what steady_clock can hold is a usage error).
//                    The remaining budget also propagates to workers in
//                    router mode, so a worker never computes an answer the
//                    front end has already given up on
//   --max-queue=N    admission control: shed requests past N pending with
//                    {"code":"RESOURCE_EXHAUSTED",...} (0 = unbounded)
//   --degrade=MODE   shard/worker failure policy: fail (default), retry,
//                    or degrade (serve partial top-k from live shards,
//                    tagged with "shards_failed"), fixed when the index is
//                    opened or the workers connected. The only retry
//                    policy: the scheduler never retries a failed batch
//
//   --cache-entries=N  cross-batch result cache capacity (distinct query
//                    identities); repeats of a cached query are answered
//                    without touching the backend (0 = caching off)
//   --shards=a,b,... serve only these shards of a sharded directory
//
//   --stats-period=N per-process metric snapshot (obs::MetricRegistry) to
//                    stderr every N seconds (0 = off). On exit the server
//                    prints one last snapshot, prefixed "metrics at exit: "
//
// Pings and {"stats":1} requests are answered in order and never queued or
// shed, so a health probe works even while queries are being shed; the
// stats record is the live metric registry snapshot (scheduler, per-shard,
// router, IO, and fault-site metrics in one deterministic JSON object).
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/parse_number.h"
#include "common/status.h"
#include "core/engine.h"
#include "json_lines.h"
#include "net_util.h"
#include "obs/metrics.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"

namespace kdash {
namespace {

struct ServerConfig {
  tools::StreamConfig stream;
  int port = -1;                         // -1 = stdin/stdout mode
  std::chrono::seconds stats_period{0};  // 0 = no periodic stats dump
  std::vector<int> shards;               // sharded indexes only; empty = all
  serving::BatchSchedulerOptions scheduler;
  serving::ShardFailurePolicy failure_policy;  // sharded/router backends

  // Router mode (--workers= instead of an index path).
  std::string workers;
  serving::RouterOptions router;

  ServerConfig() { scheduler.cache_entries = 1024; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: kdash_server <index.kdash|sharded-dir> [--k=5]\n"
               "                    [--batch=64] [--deadline-ms=0]\n"
               "                    [--max-queue=4096]\n"
               "                    [--degrade=fail|retry|degrade]\n"
               "                    [--cache-entries=1024] [--shards=a,b,...]\n"
               "                    [--port=7607] [--stats-period=0]\n"
               "       kdash_server --workers=h:p[+h:p...][,h:p...]\n"
               "                    [--no-hedge] [--hedge-delay-us=0]\n"
               "                    [--probe-period-ms=250] [common flags]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// The largest --deadline-ms whose conversion to steady_clock's tick does
// not overflow.
constexpr long long kMaxDeadlineMs =
    std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::duration::max())
        .count();

// `--name=<n>` with n in [lo, hi]; false for any other argument.
bool NumericFlag(const std::string& arg, const char* name, long long* value,
                 long long lo = 0,
                 long long hi = std::numeric_limits<long long>::max()) {
  std::string text;
  return tools::FlagValue(arg, name, &text) &&
         ParseNumber(text, value, lo, hi);
}

// "a,b,..." → non-negative shard ids; false on an empty or malformed list.
bool ParseShardList(const std::string& text, std::vector<int>* shards) {
  std::istringstream list(text);
  for (std::string token; std::getline(list, token, ',');) {
    int id = 0;
    if (!ParseNumber(token, &id, 0)) return false;
    shards->push_back(id);
  }
  return !shards->empty();
}

// ---- TCP mode --------------------------------------------------------------

// The signal handler needs a stable target; LineServer::Stop is
// async-signal-safe (atomic exchange + shutdown + close).
std::atomic<tools::LineServer*> g_server{nullptr};

void StopListening(int) {
  tools::LineServer* server = g_server.load();
  if (server != nullptr) server->Stop();
}

int ServeTcp(serving::BatchScheduler& scheduler, const ServerConfig& config) {
  tools::LineServer server(scheduler, config.stream);
  const Status listening = server.Listen(config.port);
  if (!listening.ok()) return Fail(listening);
  g_server.store(&server);
  std::signal(SIGINT, StopListening);
  std::signal(SIGTERM, StopListening);
  std::fprintf(stderr, "kdash_server listening on 127.0.0.1:%d\n",
               server.port());
  server.Serve();
  g_server.store(nullptr);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // A dead client (or dead worker, in router mode) must never kill the
  // server: writes to a closed peer report EPIPE instead of raising
  // SIGPIPE.
  tools::IgnoreSigpipe();

  ServerConfig config;
  std::string index_path;
  int first_flag = 2;
  if (tools::FlagValue(argv[1], "--workers", &config.workers)) {
    first_flag = 2;  // router mode has no index argument
  } else if (argv[1][0] == '-') {
    return Usage();
  } else {
    index_path = argv[1];
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (NumericFlag(arg, "--k", &value, 1)) {
      config.stream.default_k = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--batch", &value, 1)) {
      config.scheduler.max_batch_size = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--deadline-ms", &value, 0, kMaxDeadlineMs)) {
      config.stream.deadline = std::chrono::milliseconds(value);
    } else if (NumericFlag(arg, "--max-queue", &value)) {
      config.scheduler.max_queue_depth = static_cast<std::size_t>(value);
    } else if (NumericFlag(arg, "--cache-entries", &value)) {
      config.scheduler.cache_entries = static_cast<std::size_t>(value);
    } else if (arg == "--no-hedge") {
      config.router.hedging = false;
    } else if (NumericFlag(arg, "--hedge-delay-us", &value)) {
      config.router.hedge_delay = std::chrono::microseconds(value);
    } else if (NumericFlag(arg, "--probe-period-ms", &value)) {
      config.router.probe_period = std::chrono::milliseconds(value);
    } else if (std::string mode; tools::FlagValue(arg, "--degrade", &mode)) {
      if (mode == "fail") {
        config.failure_policy.mode = serving::ShardFailureMode::kFailFast;
      } else if (mode == "retry") {
        config.failure_policy.mode = serving::ShardFailureMode::kRetry;
      } else if (mode == "degrade") {
        config.failure_policy.mode = serving::ShardFailureMode::kDegrade;
      } else {
        return Usage();
      }
    } else if (std::string list; tools::FlagValue(arg, "--shards", &list)) {
      if (!ParseShardList(list, &config.shards)) return Usage();
    } else if (NumericFlag(arg, "--port", &value, 0, 65535)) {
      config.port = static_cast<int>(value);
    } else if (NumericFlag(arg, "--stats-period", &value)) {
      config.stats_period = std::chrono::seconds(value);
    } else {
      return Usage();
    }
  }

  // The backend: a router over worker processes, a sharded directory, or a
  // single index file — all behind one Backend signature.
  std::unique_ptr<Engine> engine;
  std::unique_ptr<serving::ShardedEngine> sharded;
  std::unique_ptr<serving::Router> router;
  serving::BatchScheduler::Backend backend;
  const bool sharded_dir = config.workers.empty() &&
                           std::filesystem::is_directory(index_path);
  if (!config.shards.empty() && !sharded_dir) {
    return Fail(Status::InvalidArgument(
        "--shards applies to sharded index directories only"));
  }
  if (!config.workers.empty()) {
    config.router.failure_policy = config.failure_policy;
    auto connected = serving::Router::Connect(config.workers, config.router);
    if (!connected.ok()) return Fail(connected.status());
    router = std::move(*connected);
    backend = [&r = *router](std::span<const Query> queries) {
      return r.SearchBatch(queries);
    };
    std::fprintf(stderr, "routing to %d worker slot(s), %d shard(s) total\n",
                 router->num_slots(), router->shards_total());
  } else if (sharded_dir) {
    auto opened = serving::ShardedEngine::Open(index_path, config.shards,
                                               config.failure_policy);
    if (!opened.ok()) return Fail(opened.status());
    sharded = std::make_unique<serving::ShardedEngine>(std::move(*opened));
    backend = [&s = *sharded](std::span<const Query> queries) {
      return s.SearchBatch(queries);
    };
    // A router weighs this process's failures in the shards it serves.
    config.stream.pong_shards = sharded->num_shards();
    std::fprintf(stderr, "opened sharded index: %d nodes, %d shards\n",
                 sharded->num_nodes(), sharded->num_shards());
  } else {
    auto opened = Engine::Open(index_path);
    if (!opened.ok()) return Fail(opened.status());
    engine = std::make_unique<Engine>(std::move(*opened));
    backend = [&e = *engine](std::span<const Query> queries) {
      return e.SearchBatch(queries);
    };
    std::fprintf(stderr, "opened index: %d nodes\n", engine->num_nodes());
  }

  serving::BatchScheduler scheduler(std::move(backend), config.scheduler);

  // --stats-period: a background thread dumps the full registry snapshot to
  // stderr every period (one JSON object per line, same shape as the
  // {"stats":1} record), so a long-running server can be watched without a
  // client slot. CondVar-stopped so shutdown never waits out a period.
  struct StatsDumper {
    Mutex mutex;
    CondVar stop_changed;
    bool stop KDASH_GUARDED_BY(mutex) = false;
  };
  StatsDumper dumper;
  std::thread stats_thread;
  if (config.stats_period.count() > 0) {
    stats_thread = std::thread([&dumper, period = config.stats_period] {
      MutexLock lock(dumper.mutex);
      for (;;) {
        const auto deadline = std::chrono::steady_clock::now() + period;
        while (!dumper.stop &&
               dumper.stop_changed.WaitUntil(dumper.mutex, deadline) !=
                   std::cv_status::timeout) {
        }
        if (dumper.stop) return;
        const std::string snapshot =
            obs::MetricRegistry::Global().SnapshotToJson();
        std::fprintf(stderr, "%s\n", snapshot.c_str());
      }
    });
  }

  int exit_code = 0;
  if (config.port >= 0) {
    exit_code = ServeTcp(scheduler, config);
  } else {
    // Flush per record: an interactive client must see each response as it
    // resolves, not when the stdio buffer happens to fill.
    tools::PumpStream(std::cin, [](const std::string& record) {
      return std::fwrite(record.data(), 1, record.size(), stdout) ==
                 record.size() &&
             std::fputc('\n', stdout) != EOF && std::fflush(stdout) == 0;
    }, scheduler, config.stream);
  }

  scheduler.Shutdown();
  if (stats_thread.joinable()) {
    {
      MutexLock lock(dumper.mutex);
      dumper.stop = true;
    }
    dumper.stop_changed.NotifyAll();
    stats_thread.join();
  }
  // Exit summary: the registry snapshot after the drain, the same object a
  // {"stats":1} record or a --stats-period line carries.
  std::fprintf(stderr, "metrics at exit: %s\n",
               obs::MetricRegistry::Global().SnapshotToJson().c_str());
  return exit_code;
}

}  // namespace
}  // namespace kdash

int main(int argc, char** argv) { return kdash::Main(argc, argv); }
