// Distributed serving: a serving::Router fanning out over real loopback
// TCP workers must be indistinguishable — ids AND scores, bit-for-bit —
// from the in-process ShardedEngine on the same shards. Covers the parity
// invariant for P ∈ {1, 2, 3} worker slots, exact degraded merges with a
// worker killed mid-run (identical to the in-process engine degraded by an
// injected fault on the same shard), replica failover, one request per
// attempt on a replicated slot with a deliberately slow primary, the
// worker health state machine across a kill + restart, one injected
// failure at each transport fault site (remote.connect / remote.send /
// remote.recv), a worker host rejected at Connect, and the deadline-aware
// retry backoff the wire deadline propagation depends on.
//
// Workers here are the real thing minus the process boundary: each one is
// a tools::LineServer over a BatchScheduler over shard engines — the exact
// stack `kdash_server <dir> --shards=...` runs — listening on an ephemeral
// loopback port. Killing one (Stop + drain) looks like a worker crash to the
// router: connects refused, pooled connections EOF.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/top_k.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"
#include "serving/wire.h"
#include "test_util.h"
#include "tools/net_util.h"

namespace kdash::serving {
namespace {

fault::FaultSpec AlwaysFail(StatusCode code = StatusCode::kUnavailable) {
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.code = code;
  return spec;
}

// One in-process worker: LineServer + BatchScheduler over a backend, on an
// ephemeral (or pinned, for restarts) loopback port.
class TestWorker {
 public:
  TestWorker(BatchScheduler::Backend backend, tools::StreamConfig config,
             int port = 0)
      : scheduler_(std::move(backend)),
        server_(scheduler_, config) {
    const Status listening = server_.Listen(port);
    KDASH_CHECK(listening.ok()) << listening;
    thread_ = std::thread([this] { server_.Serve(); });
  }

  ~TestWorker() { Kill(); }

  int port() const { return server_.port(); }

  // Simulates a crash as the router sees one: the listener closes (new
  // connects refused) and live connections drain away (pooled connections
  // see EOF on their next use).
  void Kill() {
    if (!thread_.joinable()) return;
    server_.Stop();
    thread_.join();
    scheduler_.Shutdown();
  }

 private:
  BatchScheduler scheduler_;
  tools::LineServer server_;
  std::thread thread_;
};

// A worker backend serving exactly one shard engine of a ShardedEngine —
// what `kdash_server dir/ --shards=s` answers. The engine must outlive the
// worker.
BatchScheduler::Backend ShardBackend(const Engine& shard) {
  return [&shard](std::span<const Query> queries) {
    return shard.SearchBatch(queries);
  };
}

tools::StreamConfig WorkerStream(int shards, long long nodes) {
  tools::StreamConfig config;
  config.pong_shards = shards;
  config.pong_nodes = nodes;
  return config;
}

class RemoteServingTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }

  ShardedEngine BuildSharded(const graph::Graph& graph, int num_shards,
                             ShardFailurePolicy policy = {}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.failure_policy = policy;
    auto sharded = ShardedEngine::Build(graph, options);
    KDASH_CHECK(sharded.ok()) << sharded.status();
    return std::move(*sharded);
  }

  // One single-shard TestWorker per shard of `sharded`, plus the router
  // spec string addressing them.
  std::vector<std::unique_ptr<TestWorker>> SpawnWorkers(
      const ShardedEngine& sharded, std::string* spec) {
    std::vector<std::unique_ptr<TestWorker>> workers;
    spec->clear();
    for (int s = 0; s < sharded.num_shards(); ++s) {
      workers.push_back(std::make_unique<TestWorker>(
          ShardBackend(sharded.shard(s)),
          WorkerStream(1, sharded.shard_end(s) - sharded.shard_begin(s))));
      if (s > 0) spec->append(",");
      spec->append("127.0.0.1:" + std::to_string(workers.back()->port()));
    }
    return workers;
  }

  // Fast-failing transport so dead-worker tests stay quick.
  static RouterOptions FastOptions(ShardFailureMode mode) {
    RouterOptions options;
    options.failure_policy.mode = mode;
    options.failure_policy.initial_backoff = std::chrono::microseconds(100);
    options.remote.connect_timeout = std::chrono::milliseconds(200);
    options.remote.io_timeout = std::chrono::milliseconds(2000);
    options.remote.reconnect_backoff = std::chrono::milliseconds(1);
    options.probe_period = std::chrono::milliseconds(0);  // no prober
    return options;
  }

  static std::vector<Query> MixedQueries(NodeId n) {
    std::vector<Query> queries;
    for (NodeId q = 0; q < n; q += std::max<NodeId>(1, n / 11)) {
      queries.push_back(Query::Single(q, 10));
    }
    queries.push_back(Query::Single(0, static_cast<std::size_t>(n) + 5));
    Query excluded = Query::Single(n / 2, 8);
    excluded.exclude = {n / 2, 0, n - 1};
    queries.push_back(excluded);
    queries.push_back(Query::Personalized({0, n / 2, n - 1}, 12));
    Query unpruned = Query::Single(1, 10);
    unpruned.use_pruning = false;
    queries.push_back(unpruned);
    return queries;
  }

  static void ExpectBitIdentical(const SearchResult& got,
                                 const SearchResult& expected,
                                 const std::string& what) {
    ASSERT_EQ(got.top.size(), expected.top.size()) << what;
    for (std::size_t r = 0; r < expected.top.size(); ++r) {
      EXPECT_EQ(got.top[r].node, expected.top[r].node)
          << what << " rank " << r;
      // Bit-identical, not approximately equal: scores cross the wire as
      // hexfloats, so lossy decimal formatting cannot creep in.
      EXPECT_EQ(got.top[r].score, expected.top[r].score)
          << what << " rank " << r;
    }
  }

  // A kFailFast router over one in-process worker per shard of a P=3
  // engine, with transport fault `site` armed by `fault_spec` (before
  // Connect when `arm_before_connect`). The first query must fail with the
  // injected code and raise `counter_name` by exactly 1; the next must be
  // bit-identical to the in-process ShardedEngine.
  void ExpectOneInjectedTransportFailure(const char* site,
                                         const fault::FaultSpec& fault_spec,
                                         bool arm_before_connect,
                                         const char* counter_name) {
    const auto graph = test::RandomDirectedGraph(90, 500, 53);
    const auto sharded = BuildSharded(graph, 3);
    std::string spec;
    auto workers = SpawnWorkers(sharded, &spec);
    std::optional<fault::ScopedFault> guard;
    if (arm_before_connect) guard.emplace(site, fault_spec);
    auto router =
        Router::Connect(spec, FastOptions(ShardFailureMode::kFailFast));
    ASSERT_TRUE(router.ok()) << router.status();
    if (!arm_before_connect) guard.emplace(site, fault_spec);
    // Past any reconnect backoff a failed Connect probe left behind.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const obs::Counter& counter =
        obs::MetricRegistry::Global().GetCounter(counter_name);
    const std::uint64_t before = counter.Value();
    const Query query = Query::Single(7, 10);
    const auto failed = (*router)->Search(query);
    ASSERT_FALSE(failed.ok()) << site;
    EXPECT_EQ(failed.status().code(), fault_spec.code) << failed.status();
    EXPECT_EQ(counter.Value(), before + 1) << site;

    // Past the failed slot's reconnect backoff, if it was a dial.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto expected = sharded.Search(query);
    const auto got = (*router)->Search(query);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(got.ok()) << site << ": " << got.status();
    ExpectBitIdentical(*got, *expected, site);
    EXPECT_EQ(counter.Value(), before + 1) << site;
  }
};

TEST_F(RemoteServingTest, BitIdenticalToInProcessShardedEngine) {
  const auto graph = test::RandomDirectedGraph(120, 700, 17);
  for (const int num_shards : {1, 2, 3}) {
    const auto sharded = BuildSharded(graph, num_shards);
    std::string spec;
    auto workers = SpawnWorkers(sharded, &spec);
    auto router = Router::Connect(spec, FastOptions(ShardFailureMode::kFailFast));
    ASSERT_TRUE(router.ok()) << router.status();
    ASSERT_EQ((*router)->num_slots(), num_shards);
    ASSERT_EQ((*router)->shards_total(), num_shards);

    const auto queries = MixedQueries(graph.num_nodes());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto expected = sharded.Search(queries[i]);
      const auto got = (*router)->Search(queries[i]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(got.ok()) << got.status();
      const std::string what =
          "P=" + std::to_string(num_shards) + " query " + std::to_string(i);
      ExpectBitIdentical(*got, *expected, what);
      // Work accounting crosses the wire too (tree_size deliberately does
      // not — it is a per-process memory figure, not per-query work).
      EXPECT_EQ(got->stats.nodes_visited, expected->stats.nodes_visited)
          << what;
      EXPECT_EQ(got->stats.proximity_computations,
                expected->stats.proximity_computations)
          << what;
      EXPECT_EQ(got->stats.terminated_early, expected->stats.terminated_early)
          << what;
      EXPECT_EQ(got->shards_ok, num_shards) << what;
      EXPECT_EQ(got->shards_failed, 0) << what;
    }

    // Batch path: one flat fan-out, same answers.
    const auto expected_batch = sharded.SearchBatch(queries);
    const auto got_batch = (*router)->SearchBatch(queries);
    ASSERT_TRUE(test::AllOk(expected_batch));
    ASSERT_TRUE(test::AllOk(got_batch));
    ASSERT_EQ(got_batch.size(), expected_batch.size());
    for (std::size_t i = 0; i < expected_batch.size(); ++i) {
      ExpectBitIdentical(*got_batch[i], *expected_batch[i],
                         "batch query " + std::to_string(i));
    }
  }
}

TEST_F(RemoteServingTest, KilledWorkerDegradesExactlyLikeInProcessFault) {
  const auto graph = test::RandomDirectedGraph(100, 600, 23);
  constexpr int kShards = 3;
  constexpr int kDead = 1;
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kDegrade;
  policy.max_retries = 1;
  policy.initial_backoff = std::chrono::microseconds(100);
  const auto sharded = BuildSharded(graph, kShards, policy);

  std::string spec;
  auto workers = SpawnWorkers(sharded, &spec);
  auto options = FastOptions(ShardFailureMode::kDegrade);
  options.failure_policy.max_retries = 1;
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();

  // A query before the kill is complete.
  const Query probe_query = Query::Single(3, 10);
  auto complete = (*router)->Search(probe_query);
  ASSERT_TRUE(complete.ok()) << complete.status();
  EXPECT_EQ(complete->shards_failed, 0);

  workers[kDead]->Kill();

  const auto queries = MixedQueries(graph.num_nodes());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // The in-process expectation: the same engine with the same shard
    // killed by an injected fault, under the same degrade policy.
    SearchResult expected;
    {
      fault::ScopedFault guard("sharded.shard_search.s" + std::to_string(kDead),
                               AlwaysFail());
      auto result = sharded.Search(queries[i]);
      ASSERT_TRUE(result.ok()) << result.status();
      expected = std::move(*result);
    }
    const auto got = (*router)->Search(queries[i]);
    ASSERT_TRUE(got.ok()) << got.status();
    const std::string what = "degraded query " + std::to_string(i);
    ExpectBitIdentical(*got, expected, what);
    EXPECT_TRUE(got->degraded()) << what;
    EXPECT_EQ(got->shards_ok, expected.shards_ok) << what;
    EXPECT_EQ(got->shards_failed, expected.shards_failed) << what;
  }

  // Under kFailFast the same dead worker fails the whole query instead.
  auto fail_fast =
      Router::Connect(spec, FastOptions(ShardFailureMode::kFailFast));
  ASSERT_TRUE(fail_fast.ok()) << fail_fast.status();
  const auto failed = (*fail_fast)->Search(probe_query);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

TEST_F(RemoteServingTest, MultiShardWorkersMatchInProcessAndPassDegradationOn) {
  // Two workers over one P=5 directory, {0,1,2} and {3,4}, each serving
  // ShardedEngine::Open(dir, subset) with shard skipping on — what
  // `kdash_server dir --shards=...` runs. Degradation inside a worker must
  // reach the router's tags in shard units.
  const auto graph = test::RandomDirectedGraph(120, 700, 53);
  const std::string dir = ::testing::TempDir() + "/kdash_remote_subsets";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(BuildSharded(graph, 5).Save(dir).ok());

  ShardFailurePolicy degrade;
  degrade.mode = ShardFailureMode::kDegrade;
  degrade.max_retries = 0;
  auto in_process = ShardedEngine::Open(dir, {}, degrade);
  ASSERT_TRUE(in_process.ok()) << in_process.status();

  std::vector<ShardedEngine> subsets;
  std::vector<std::unique_ptr<TestWorker>> workers;
  std::string spec;
  for (const std::vector<int>& ids : {std::vector<int>{0, 1, 2}, {3, 4}}) {
    auto opened = ShardedEngine::Open(dir, ids, degrade);
    ASSERT_TRUE(opened.ok()) << opened.status();
    subsets.push_back(std::move(*opened));
  }
  for (const ShardedEngine& subset : subsets) {
    workers.push_back(std::make_unique<TestWorker>(
        [&subset](std::span<const Query> queries) {
          return subset.SearchBatch(queries);
        },
        WorkerStream(subset.num_shards(), graph.num_nodes())));
    if (!spec.empty()) spec.append(",");
    spec.append("127.0.0.1:" + std::to_string(workers.back()->port()));
  }
  auto router = Router::Connect(spec, FastOptions(ShardFailureMode::kFailFast));
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ((*router)->shards_total(), 5);

  std::vector<Query> queries;
  for (NodeId q = 0; q < graph.num_nodes(); q += 5) {
    for (const std::size_t k : {1, 10}) queries.push_back(Query::Single(q, k));
  }
  queries.push_back(Query::Personalized({2, 50, 110}, 10));

  // Shard 1 fails whenever it is searched, and it is always searched for a
  // source it owns. Elsewhere a bound-based skip may spare it — in the
  // in-process engine and in worker {0,1,2} alike, but that worker knows
  // no θ for a source outside its shards, so it may lose shard 1 where the
  // in-process engine skips it: the top-k agree, the tags need not.
  const auto owned_by_s1 = [&](const Query& query) {
    for (const NodeId source : query.sources) {
      if (source >= in_process->shard_begin(1) &&
          source < in_process->shard_end(1)) {
        return true;
      }
    }
    return false;
  };
  int degraded = 0;
  for (const bool faulted : {false, true}) {
    std::optional<fault::ScopedFault> guard;
    if (faulted) guard.emplace("sharded.shard_search.s1", AlwaysFail());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto expected = in_process->Search(queries[i]);
      const auto got = (*router)->Search(queries[i]);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(got.ok()) << got.status();
      const std::string what = std::string(faulted ? "degraded" : "healthy") +
                               " query " + std::to_string(i);
      ExpectBitIdentical(*got, *expected, what);
      // The router folds each worker's own tags through, in shard units.
      int ok = 0;
      int failed = 0;
      for (const ShardedEngine& subset : subsets) {
        const auto partial = subset.Search(queries[i]);
        ASSERT_TRUE(partial.ok()) << partial.status();
        ok += partial->shards_ok;
        failed += partial->shards_failed;
      }
      EXPECT_EQ(got->shards_ok, ok) << what;
      EXPECT_EQ(got->shards_failed, failed) << what;
      const bool lost_s1 = faulted && (got->degraded() ||
                                       expected->degraded() ||
                                       owned_by_s1(queries[i]));
      EXPECT_EQ(got->shards_ok, lost_s1 ? 4 : 5) << what;
      EXPECT_EQ(got->shards_failed, lost_s1 ? 1 : 0) << what;
      degraded += got->degraded() ? 1 : 0;
    }
  }
  EXPECT_GT(degraded, 0);
  workers.clear();
  std::filesystem::remove_all(dir);
}

TEST_F(RemoteServingTest, FailoverServesFromReplicaWhenPrimaryDies) {
  const auto graph = test::RandomDirectedGraph(80, 450, 31);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  // One slot, two replicas of the same shard.
  TestWorker primary(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  TestWorker replica(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  const std::string spec = "127.0.0.1:" + std::to_string(primary.port()) +
                           "+127.0.0.1:" + std::to_string(replica.port());
  auto options = FastOptions(ShardFailureMode::kRetry);
  options.remote.down_after_failures = 1;
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ((*router)->num_slots(), 1);
  ASSERT_EQ((*router)->num_replicas(0), 2);

  const Query query = Query::Single(7, 10);
  const auto expected = sharded.Search(query);
  ASSERT_TRUE(expected.ok());

  primary.Kill();

  obs::Counter& failovers =
      obs::MetricRegistry::Global().GetCounter("router.failovers");
  const std::uint64_t failovers_before = failovers.Value();
  const auto got = (*router)->Search(query);
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "failover");
  EXPECT_EQ(got->shards_failed, 0);  // the replica made the slot whole
  EXPECT_GT(failovers.Value(), failovers_before);

  // Once the primary is marked down, later queries go straight to the
  // replica and stay complete.
  const auto again = (*router)->Search(query);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->shards_failed, 0);
}

TEST_F(RemoteServingTest, OneRequestPerAttemptOnReplicatedSlot) {
  const auto graph = test::RandomDirectedGraph(80, 450, 37);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  // The primary answers correctly but slowly; the replica is prompt. With
  // default options the router still sends the one request to the primary
  // and waits for it: no duplicate goes to the replica.
  constexpr auto kSlow = std::chrono::milliseconds(250);
  BatchScheduler::Backend slow_backend =
      [&engine = sharded.shard(0), kSlow](std::span<const Query> queries) {
        std::this_thread::sleep_for(kSlow);
        return engine.SearchBatch(queries);
      };
  TestWorker slow(std::move(slow_backend), WorkerStream(1, nodes));
  TestWorker prompt(ShardBackend(sharded.shard(0)), WorkerStream(1, nodes));
  const std::string spec = "127.0.0.1:" + std::to_string(slow.port()) +
                           "+127.0.0.1:" + std::to_string(prompt.port());
  RouterOptions options;
  options.probe_period = std::chrono::milliseconds(0);  // no prober
  auto router = Router::Connect(spec, options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_EQ((*router)->num_replicas(0), 2);

  const Query query = Query::Single(5, 10);
  const auto expected = sharded.Search(query);
  ASSERT_TRUE(expected.ok());

  const obs::Counter& requests =
      obs::MetricRegistry::Global().GetCounter("serving.remote.requests");
  const obs::Counter& failovers =
      obs::MetricRegistry::Global().GetCounter("router.failovers");
  const std::uint64_t requests_before = requests.Value();
  const std::uint64_t failovers_before = failovers.Value();

  const auto start = std::chrono::steady_clock::now();
  const auto got = (*router)->Search(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "slow primary");
  EXPECT_EQ(got->shards_failed, 0);
  EXPECT_EQ(requests.Value(), requests_before + 1);
  EXPECT_EQ(failovers.Value(), failovers_before);
  // The answer is the primary's: it came no sooner than its delay.
  EXPECT_GE(elapsed, kSlow);
}

TEST_F(RemoteServingTest, ConnectRejectsUnresolvableHost) {
  // A host that is neither numeric IPv4 nor localhost is an operator's
  // config error: Connect refuses the spec instead of failing every query.
  for (const std::string spec : {"nohost:7611", "127.0.0.1:1+nohost:2"}) {
    const auto router =
        Router::Connect(spec, FastOptions(ShardFailureMode::kDegrade));
    ASSERT_FALSE(router.ok()) << spec;
    EXPECT_EQ(router.status().code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(router.status().message().find("nohost"), std::string::npos)
        << router.status();
  }
  // localhost is accepted; an unreachable worker is the failure policy's
  // business, not Connect's.
  EXPECT_TRUE(
      Router::Connect("localhost:1", FastOptions(ShardFailureMode::kDegrade))
          .ok());
}

TEST_F(RemoteServingTest, ProberMarksWorkerDownAndBackUpAcrossRestart) {
  const auto graph = test::RandomDirectedGraph(60, 300, 41);
  const auto sharded = BuildSharded(graph, 1);
  const long long nodes = graph.num_nodes();

  auto worker = std::make_unique<TestWorker>(ShardBackend(sharded.shard(0)),
                                             WorkerStream(1, nodes));
  const int port = worker->port();
  auto options = FastOptions(ShardFailureMode::kRetry);
  options.probe_period = std::chrono::milliseconds(20);
  options.remote.down_after_failures = 1;
  options.remote.connect_timeout = std::chrono::milliseconds(100);
  auto router = Router::Connect("127.0.0.1:" + std::to_string(port), options);
  ASSERT_TRUE(router.ok()) << router.status();
  EXPECT_TRUE((*router)->slot_healthy(0));

  const auto wait_for_health = [&](bool want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*router)->slot_healthy(0) != want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return (*router)->slot_healthy(0) == want;
  };

  worker->Kill();
  EXPECT_TRUE(wait_for_health(false)) << "prober never marked the slot down";

  // Restart on the same port; the prober (which bypasses the reconnect
  // backoff gate) must mark it back up.
  worker = std::make_unique<TestWorker>(ShardBackend(sharded.shard(0)),
                                        WorkerStream(1, nodes), port);
  EXPECT_TRUE(wait_for_health(true)) << "prober never marked the slot back up";

  const Query query = Query::Single(2, 10);
  const auto expected = sharded.Search(query);
  const auto got = (*router)->Search(query);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok()) << got.status();
  ExpectBitIdentical(*got, *expected, "after restart");
}

TEST_F(RemoteServingTest, InjectedConnectFailureFailsOneQuery) {
  // Connect's probe round dials each of the 3 workers once (evaluations
  // 0-2, all fired, so no connection is pooled); the query's first dial is
  // evaluation 3.
  fault::FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.fire_on_hits = {0, 1, 2, 3};
  ExpectOneInjectedTransportFailure("remote.connect", spec,
                                    /*arm_before_connect=*/true,
                                    "serving.remote.connect_errors");
}

TEST_F(RemoteServingTest, InjectedSendFailureFailsOneQuery) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.max_fires = 1;
  ExpectOneInjectedTransportFailure("remote.send", spec,
                                    /*arm_before_connect=*/false,
                                    "serving.remote.io_errors");
}

TEST_F(RemoteServingTest, InjectedRecvFailureFailsOneQuery) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kDataLoss;
  spec.max_fires = 1;
  ExpectOneInjectedTransportFailure("remote.recv", spec,
                                    /*arm_before_connect=*/false,
                                    "serving.remote.io_errors");
}

TEST_F(RemoteServingTest, WireDeadlinePropagatesToWorker) {
  const auto graph = test::RandomDirectedGraph(60, 300, 43);
  const auto sharded = BuildSharded(graph, 1);

  TestWorker worker(ShardBackend(sharded.shard(0)),
                    WorkerStream(1, graph.num_nodes()));
  auto options = FastOptions(ShardFailureMode::kFailFast);
  auto router =
      Router::Connect("127.0.0.1:" + std::to_string(worker.port()), options);
  ASSERT_TRUE(router.ok()) << router.status();

  // An already-expired deadline crosses the wire as deadline_us=0; the
  // worker's scheduler expires the request instead of computing a dead
  // answer, and the canonical code comes back across the error record.
  Query expired = Query::Single(1, 10);
  expired.deadline = std::chrono::steady_clock::now();
  const auto result = (*router)->Search(expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(RemoteServingTest, ShardedRetryBackoffIsDeadlineAware) {
  // Satellite regression: a kRetry engine whose backoff (100ms, 200ms)
  // dwarfs the query's 10ms budget must fail fast with DEADLINE_EXCEEDED
  // once the budget expires — not sleep out 300ms of useless backoff.
  const auto graph = test::RandomDirectedGraph(60, 300, 47);
  ShardFailurePolicy policy;
  policy.mode = ShardFailureMode::kRetry;
  policy.max_retries = 2;
  policy.initial_backoff = std::chrono::milliseconds(100);
  policy.max_backoff = std::chrono::milliseconds(200);
  const auto sharded = BuildSharded(graph, 2, policy);

  fault::ScopedFault guard("sharded.shard_search.s0", AlwaysFail());
  Query query = Query::Single(1, 10);
  query.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  const auto start = std::chrono::steady_clock::now();
  const auto result = sharded.Search(query);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Far below the 300ms an unclamped backoff schedule would sleep.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
}

TEST_F(RemoteServingTest, WireRecordsRoundTripExactly) {
  // The hexfloat side channel is what makes distributed parity possible:
  // %.12g alone would drop bits.
  Query query = Query::Personalized({3, 9}, 4);
  query.exclude = {1};
  query.use_pruning = false;
  const std::string line = wire::FormatRequestLine(query);
  EXPECT_NE(line.find("hex=1"), std::string::npos);
  EXPECT_NE(line.find("pruning=0"), std::string::npos);

  SearchResult result;
  result.top = {{7, static_cast<Scalar>(0.12345678901234567)},
                {2, static_cast<Scalar>(1.0) / 3}};
  result.stats.nodes_visited = 42;
  result.stats.proximity_computations = 17;
  const std::string record = wire::FormatResultRecord(
      9, query, result, /*t_us=*/5, /*hex_scores=*/true);
  auto parsed = wire::ParseRecordLine(record);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->kind, wire::ParsedRecord::Kind::kResult);
  EXPECT_EQ(parsed->id, 9);
  ASSERT_EQ(parsed->result.top.size(), result.top.size());
  for (std::size_t r = 0; r < result.top.size(); ++r) {
    EXPECT_EQ(parsed->result.top[r].node, result.top[r].node);
    EXPECT_EQ(parsed->result.top[r].score, result.top[r].score);  // exact
  }
  EXPECT_EQ(parsed->result.stats.nodes_visited, 42);
  EXPECT_EQ(parsed->result.stats.proximity_computations, 17);

  // Error records carry the canonical code across the boundary.
  const std::string error_record = wire::FormatErrorRecord(
      3, Status::DeadlineExceeded("too slow"), /*t_us=*/1);
  auto parsed_error = wire::ParseRecordLine(error_record);
  ASSERT_TRUE(parsed_error.ok()) << parsed_error.status();
  ASSERT_EQ(parsed_error->kind, wire::ParsedRecord::Kind::kError);
  EXPECT_EQ(parsed_error->error.code(), StatusCode::kDeadlineExceeded);

  // Pongs advertise the worker footprint.
  auto parsed_pong =
      wire::ParseRecordLine(wire::FormatPongRecord(0, 2, /*shards=*/3,
                                                   /*nodes=*/120));
  ASSERT_TRUE(parsed_pong.ok()) << parsed_pong.status();
  ASSERT_EQ(parsed_pong->kind, wire::ParsedRecord::Kind::kPong);
  EXPECT_EQ(parsed_pong->pong_shards, 3);
  EXPECT_EQ(parsed_pong->pong_nodes, 120);

  // A record cut off inside a string is malformed, not a shorter message.
  auto truncated = wire::ParseRecordLine(
      R"({"id":4,"code":"UNAVAILABLE","error":"worker cra)");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RemoteServingTest, WireRoundTripsRandomQueriesAndScoresExactly) {
  // A seeded oracle over inputs no fixed case reaches: every query field
  // the request line carries, and scores across the whole [0, 1] range —
  // subnormals included — through the hexfloat side channel.
  using Clock = std::chrono::steady_clock;
  Rng rng(25);
  const auto node = [&rng] {
    return static_cast<NodeId>(
        rng.NextBounded(std::numeric_limits<NodeId>::max()));
  };
  const Scalar special_scores[] = {
      0.0, std::numeric_limits<Scalar>::denorm_min(), 1.0 / 3, 1.0 + 0x1p-52};
  for (int trial = 0; trial < 500; ++trial) {
    Query query;
    query.sources.resize(1 + rng.NextBounded(4));
    for (NodeId& source : query.sources) source = node();
    query.exclude.resize(rng.NextBounded(4));
    for (NodeId& excluded : query.exclude) excluded = node();
    query.k = 1 + rng.NextBounded(std::uint64_t{1} << 40);
    query.use_pruning = rng.NextBounded(2) == 0;
    const int deadline_kind = static_cast<int>(rng.NextBounded(3));
    if (deadline_kind == 1) {
      query.deadline = Clock::now() + std::chrono::seconds(1) +
                       std::chrono::microseconds(
                           rng.NextBounded(3'600'000'000));
    } else if (deadline_kind == 2) {
      query.deadline = Clock::now() - std::chrono::microseconds(
                                          1 + rng.NextBounded(1'000'000));
    }

    const Clock::time_point formatted_at = Clock::now();
    const std::string line = wire::FormatRequestLine(query);
    Query parsed;
    std::string error;
    bool hex = false;
    ASSERT_TRUE(wire::ParseQueryLine(line, 5, &parsed, &error, &hex))
        << line << ": " << error;
    const Clock::time_point parsed_at = Clock::now();
    EXPECT_TRUE(hex) << line;
    EXPECT_EQ(parsed.sources, query.sources) << line;
    EXPECT_EQ(parsed.exclude, query.exclude) << line;
    EXPECT_EQ(parsed.k, query.k) << line;
    EXPECT_EQ(parsed.use_pruning, query.use_pruning) << line;
    if (deadline_kind == 0) {
      EXPECT_EQ(parsed.deadline, Clock::time_point::max()) << line;
    } else if (deadline_kind == 1) {
      // The remaining budget is truncated to whole µs on the way out and
      // re-anchored at receipt, so the deadline can only move by the
      // truncation (down) or by the time the round trip took (up).
      EXPECT_GE(parsed.deadline,
                query.deadline - std::chrono::microseconds(1))
          << line;
      EXPECT_LE(parsed.deadline, query.deadline + (parsed_at - formatted_at))
          << line;
    } else {
      EXPECT_LE(parsed.deadline, parsed_at) << line;  // arrives expired
    }

    SearchResult result;
    result.top.resize(rng.NextBounded(6));
    for (ScoredNode& entry : result.top) {
      entry.node = node();
      const std::uint64_t pick = rng.NextBounded(8);
      entry.score =
          pick < 4 ? special_scores[pick]
                   : std::ldexp(rng.NextDouble(),
                                -static_cast<int>(rng.NextBounded(1100)));
    }
    result.stats.nodes_visited = node();
    result.stats.proximity_computations = node();
    result.stats.terminated_early = rng.NextBounded(2) == 0;
    if (rng.NextBounded(2) == 0) {
      result.shards_ok = static_cast<int>(rng.NextBounded(8));
      result.shards_failed = 1 + static_cast<int>(rng.NextBounded(8));
    }
    const long long id = static_cast<long long>(rng.NextBounded(1'000'000));
    const std::string record = wire::FormatResultRecord(
        id, parsed, result, /*t_us=*/trial, /*hex_scores=*/true);
    auto round_tripped = wire::ParseRecordLine(record);
    ASSERT_TRUE(round_tripped.ok()) << round_tripped.status();
    ASSERT_EQ(round_tripped->kind, wire::ParsedRecord::Kind::kResult);
    EXPECT_EQ(round_tripped->id, id);
    const SearchResult& got = round_tripped->result;
    ASSERT_EQ(got.top.size(), result.top.size()) << record;
    for (std::size_t r = 0; r < result.top.size(); ++r) {
      EXPECT_EQ(got.top[r].node, result.top[r].node) << record;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.top[r].score),
                std::bit_cast<std::uint64_t>(result.top[r].score))
          << record;
    }
    EXPECT_EQ(got.stats.nodes_visited, result.stats.nodes_visited);
    EXPECT_EQ(got.stats.proximity_computations,
              result.stats.proximity_computations);
    EXPECT_EQ(got.stats.terminated_early, result.stats.terminated_early);
    EXPECT_EQ(got.shards_ok, result.shards_ok);
    EXPECT_EQ(got.shards_failed, result.shards_failed);
  }
}

TEST_F(RemoteServingTest, WireRejectsOutOfRangeRecordFields) {
  // Each record is well-formed JSON-lines except for one field a worker of
  // this repo can never emit. Accepting any of them would hand the merge a
  // wrapped node id, a bogus counter, or a NaN that breaks its ordering.
  const auto record = [](const std::string& entry, const std::string& tail) {
    return R"({"id":1,"top":[)" + entry + "]," + tail + "}";
  };
  const std::string entry = R"({"node":4,"score":0.5})";
  const std::string stats = R"("visited":1,"computed":1,"pruned":false)";
  for (const std::string& line : std::vector<std::string>{
           record(R"({"node":4294967296,"score":0.5})", stats),
           record(R"({"node":-7,"score":0.5})", stats),
           record(R"({"node":4,"score":0.5,"score_hex":"nan"})", stats),
           record(R"({"node":4,"score":abc})", stats),
           record(R"({"node":4,"score":1.5})", stats),
           record(entry,
                  R"("visited":1,"computed":99999999999,"pruned":false)"),
           record(entry, R"("visited":7x,"computed":1,"pruned":false)"),
           record(entry, stats + R"(,"shards_ok":-3,"shards_failed":1)"),
           R"({"id":1,"pong":1,"shards":-2})"}) {
    const auto parsed = wire::ParseRecordLine(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }

  // The same shapes with in-range values still parse — including a score
  // a rounding ulp above 1, which a self-loop-only node really produces.
  const auto parsed = wire::ParseRecordLine(record(
      R"({"node":8,"score":1,"score_hex":"0x1.0000000000001p+0"},)" + entry,
      R"("visited":3,"computed":2,"pruned":true,"shards_ok":1,)"
      R"("shards_failed":1)"));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->result.top.size(), 2u);
  EXPECT_EQ(parsed->result.top[0].node, 8);
  EXPECT_EQ(parsed->result.top[0].score, 1.0 + 0x1p-52);
  EXPECT_EQ(parsed->result.top[1].node, 4);
  EXPECT_EQ(parsed->result.top[1].score, 0.5);
  EXPECT_EQ(parsed->result.stats.nodes_visited, 3);
  EXPECT_EQ(parsed->result.stats.proximity_computations, 2);
  EXPECT_EQ(parsed->result.shards_ok, 1);
  EXPECT_EQ(parsed->result.shards_failed, 1);
}

TEST(QueryLineGrammarTest, RejectsMalformedNumbersAndAcceptsEveryFlag) {
  const std::string past_max =
      std::to_string(static_cast<long long>(std::numeric_limits<NodeId>::max()) +
                     1);
  for (const std::string& line : std::vector<std::string>{
           "3 k=5abc", "3 k=2.9", "3 k=0", "3 k=-3", "3 k=",
           "3 deadline_us=", "3 deadline_us=5ms", "3x", "3 -- 4y", past_max,
           "3 -- " + past_max, "3 k=99999999999999999999", "3 k=+5", "+3",
           "3 -- +4", "3 deadline_us=99999999999999999999",
           "3 deadline_us=-99999999999999999999"}) {
    Query query;
    std::string error;
    EXPECT_FALSE(wire::ParseQueryLine(line, 5, &query, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }

  // root= is no request token: Figure 9's BFS-root diagnostic is a
  // searcher argument, never a serving field.
  {
    Query query;
    std::string error;
    EXPECT_FALSE(wire::ParseQueryLine("3 root=2", 5, &query, &error));
    EXPECT_EQ(error, "bad token 'root=2'");
  }

  struct Accepted {
    std::string line;
    std::vector<NodeId> sources;
    std::vector<NodeId> exclude;
    std::size_t k;
    bool use_pruning;
    bool hex;
    bool traced;
  };
  for (const Accepted& want : std::vector<Accepted>{
           {"3", {3}, {}, 5, true, false, false},
           {"3 k=7", {3}, {}, 7, true, false, false},
           {"3 9 -- 1 2 k=4", {3, 9}, {1, 2}, 4, true, false, false},
           {"3 hex=1", {3}, {}, 5, true, true, false},
           {"3 pruning=0", {3}, {}, 5, false, false, false},
           {"3 trace=1", {3}, {}, 5, true, false, true},
           {"3 deadline_us=1000 hex=1 trace=1 pruning=0 k=2",
            {3}, {}, 2, false, true, true},
       }) {
    Query query;
    std::string error;
    bool hex = false;
    ASSERT_TRUE(wire::ParseQueryLine(want.line, 5, &query, &error, &hex))
        << want.line << ": " << error;
    EXPECT_EQ(query.sources, want.sources) << want.line;
    EXPECT_EQ(query.exclude, want.exclude) << want.line;
    EXPECT_EQ(query.k, want.k) << want.line;
    EXPECT_EQ(query.use_pruning, want.use_pruning) << want.line;
    EXPECT_EQ(hex, want.hex) << want.line;
    EXPECT_EQ(query.trace != nullptr, want.traced) << want.line;
  }

  // deadline_us= is a remaining budget. Extreme budgets must not wrap
  // around steady_clock: a non-positive one arrives expired, and one past
  // what the clock can hold means no deadline at all.
  struct Budget {
    std::string line;
    bool expired;
    bool unbounded;
  };
  const std::string llong_max =
      std::to_string(std::numeric_limits<long long>::max());
  for (const Budget& want : std::vector<Budget>{
           {"3 deadline_us=1000000000", false, false},
           {"3 deadline_us=0", true, false},
           {"3 deadline_us=-5", true, false},
           {"3 deadline_us=10000000000000000", false, true},
           {"3 deadline_us=-9223372036854775807", true, false},
           {"3 deadline_us=" + llong_max, false, true},
       }) {
    Query query;
    std::string error;
    ASSERT_TRUE(wire::ParseQueryLine(want.line, 5, &query, &error))
        << want.line << ": " << error;
    EXPECT_EQ(query.deadline <= std::chrono::steady_clock::now(), want.expired)
        << want.line;
    EXPECT_EQ(query.deadline == std::chrono::steady_clock::time_point::max(),
              want.unbounded)
        << want.line;
  }
}

}  // namespace
}  // namespace kdash::serving
