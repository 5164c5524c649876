// Per-layer probes of the traced run. Each layer is called directly, through
// its public API, on the workload's own graph and a sample of its reads, and
// timed on its own; the counts are exact and repeat for a given seed.
#include <algorithm>
#include <filesystem>
#include <future>

#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "reorder/reorder.h"
#include "serving/wire.h"
#include "sparse/permute.h"
#include "stacks.h"
#include "tools/json_lines.h"
#include "workloads.h"

namespace kbench {
namespace {

using kdash::Engine;

std::vector<Query> SampleReads(const Stream& stream, std::size_t want) {
  std::vector<Query> reads;
  const std::size_t stride = std::max<std::size_t>(1, stream.ops.size() / (want * 2));
  for (std::size_t i = 0; i < stream.ops.size() && reads.size() < want; i += stride) {
    if (!stream.ops[i].is_write()) reads.push_back(stream.ops[i].query);
  }
  return reads;
}

// reorder -> LU -> inverses, each stage called on its own.
void ProbePrecompute(const kdash::graph::Graph& graph, MetricMap* m) {
  const kdash::core::KDashOptions defaults;
  const auto a = graph.NormalizedAdjacency();
  auto start = Clock::now();
  const auto reordering = kdash::reorder::ComputeReordering(
      graph, defaults.reorder_method, kdash::reorder::ReorderOptions{defaults.seed, 0});
  (*m)["reorder.s"] = {SecondsSince(start), "s"};
  const auto w = kdash::lu::BuildRwrSystemMatrix(
      kdash::sparse::PermuteSymmetric(a, reordering.new_of_old), defaults.restart_prob);
  start = Clock::now();
  const auto factors = kdash::lu::FactorizeLu(w);
  (*m)["lu.factor_s"] = {SecondsSince(start), "s"};
  start = Clock::now();
  const auto lower_inverse = kdash::lu::InvertLowerTriangular(factors.lower);
  const auto upper_inverse = kdash::lu::InvertUpperTriangular(factors.upper);
  (*m)["lu.inverse_s"] = {SecondsSince(start), "s"};
  (*m)["core.nnz_inverse"] = {
      static_cast<double>(lower_inverse.nnz() + upper_inverse.nnz()), "count"};
}

// Engine::Search per query, with and without pruning (Fig. 7's ratio).
std::vector<SearchResult> ProbeEngine(const Engine& engine,
                                      const std::vector<Query>& reads, MetricMap* m) {
  std::vector<double> search_us;
  std::vector<SearchResult> results;
  double visited = 0, prox = 0, tree = 0, early = 0, y_nnz = 0, unpruned_prox = 0;
  const auto& index = engine.index();
  const auto& col_ptr = index.lower_inverse().col_ptr();
  for (const Query& query : reads) {
    const auto start = Clock::now();
    auto result = engine.Search(query);
    search_us.push_back(MicrosBetween(start, Clock::now()));
    KDASH_CHECK(result.ok()) << result.status();
    visited += result->stats.nodes_visited;
    prox += result->stats.proximity_computations;
    tree += result->stats.tree_size;
    early += result->stats.terminated_early ? 1 : 0;
    for (const NodeId s : query.sources) {
      const auto col = static_cast<std::size_t>(index.new_of_old()[static_cast<std::size_t>(s)]);
      y_nnz += static_cast<double>(col_ptr[col + 1] - col_ptr[col]);
    }
    Query unpruned = query;
    unpruned.use_pruning = false;
    auto full = engine.Search(unpruned);
    KDASH_CHECK(full.ok()) << full.status();
    unpruned_prox += full->stats.proximity_computations;
    results.push_back(std::move(*result));
  }
  const double n = static_cast<double>(reads.size());
  (*m)["engine.search_us.p50"] = {Percentile(search_us, 0.50), "us"};
  (*m)["engine.search_us.p99"] = {Percentile(search_us, 0.99), "us"};
  (*m)["searcher.visited"] = {visited / n, "count"};
  (*m)["searcher.prox"] = {prox / n, "count"};
  (*m)["searcher.tree"] = {tree / n, "count"};
  (*m)["searcher.early_term_frac"] = {early / n, "frac"};
  (*m)["searcher.y_nnz"] = {y_nnz / n, "count"};
  (*m)["searcher.prune_ratio"] = {unpruned_prox > 0 ? prox / unpruned_prox : 0.0, "ratio"};
  return results;
}

// Restrict, save and open of the P-shard index; per-shard search; the
// sharded fan-out with shard skip; and the work blow-up against one engine.
void ProbeSharded(const Engine& engine, const kdash::serving::ShardedEngine& sharded,
                  const std::vector<Query>& reads, const std::string& dir,
                  MetricMap* m) {
  const int shards = sharded.num_shards();
  auto start = Clock::now();
  for (int s = 0; s < shards; ++s) {
    const auto restricted =
        engine.index().Restrict(sharded.shard_begin(s), sharded.shard_end(s));
    KDASH_CHECK(restricted.num_nodes() == engine.num_nodes());
  }
  (*m)["core.restrict_s"] = {SecondsSince(start), "s"};
  start = Clock::now();
  KDASH_CHECK(sharded.Save(dir).ok());
  (*m)["core.save_s"] = {SecondsSince(start), "s"};
  start = Clock::now();
  KDASH_CHECK(kdash::serving::ShardedEngine::Open(dir).ok());
  (*m)["core.open_s"] = {SecondsSince(start), "s"};
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  double shard_us = 0, shard_prox = 0;
  for (const Query& query : reads) {
    for (int s = 0; s < shards; ++s) {
      const auto t0 = Clock::now();
      auto result = sharded.shard(s).Search(query);
      shard_us += MicrosBetween(t0, Clock::now());
      KDASH_CHECK(result.ok()) << result.status();
      shard_prox += result->stats.proximity_computations;
    }
  }
  const double calls = static_cast<double>(reads.size() * static_cast<std::size_t>(shards));
  (*m)["shard.search_us"] = {shard_us / calls, "us"};
  (*m)["shard.prox"] = {shard_prox / calls, "count"};

  // Work blow-up on the k=10 reads (all reads at k=10 when none has it).
  std::vector<Query> k10;
  for (const Query& query : reads) {
    if (query.k == 10) k10.push_back(query);
  }
  if (k10.empty()) {
    k10 = reads;
    for (Query& query : k10) query.k = 10;
  }
  double summed = 0, single = 0;
  for (const Query& query : k10) {
    for (int s = 0; s < shards; ++s) {
      summed += sharded.shard(s).Search(query)->stats.proximity_computations;
    }
    single += engine.Search(query)->stats.proximity_computations;
  }
  (*m)["sharded.work_x"] = {single > 0 ? summed / single : 0.0, "ratio"};

  const RegistryDelta delta;
  const std::uint64_t skipped_before = sharded.shards_skipped();
  for (const Query& query : reads) KDASH_CHECK(sharded.Search(query).ok());
  (*m)["sharded.skip_frac"] = {
      static_cast<double>(sharded.shards_skipped() - skipped_before) / calls, "frac"};
  (*m)["serving.merge_us"] = {delta.HistogramMean("serving.merge_us"), "us"};
}

void ProbeWire(const std::vector<Query>& reads, const std::vector<SearchResult>& results,
               MetricMap* m) {
  std::vector<std::string> lines;
  for (const Query& query : reads) lines.push_back(kdash::serving::wire::FormatRequestLine(query));
  auto start = Clock::now();
  for (const std::string& line : lines) {
    Query parsed;
    std::string error;
    bool hex = false;
    KDASH_CHECK(kdash::tools::ParseQueryLine(line, 5, &parsed, &error, &hex)) << error;
  }
  const double n = static_cast<double>(lines.size());
  (*m)["wire.parse_us"] = {MicrosBetween(start, Clock::now()) / n, "us"};
  double bytes = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    bytes += static_cast<double>(
        kdash::tools::FormatResultRecord(static_cast<long long>(i), reads[i], results[i], -1,
                                         true)
            .size() + 1);
  }
  (*m)["wire.format_us"] = {MicrosBetween(start, Clock::now()) / n, "us"};
  (*m)["wire.bytes_per_record"] = {bytes / n, "bytes"};
}

// kdash_server's scheduler (cache on) over the engine, fed the sample in
// windows of 16 outstanding requests.
void ProbeScheduler(const Engine& engine, const std::vector<Query>& reads, MetricMap* m) {
  TimedBackend backend(
      [&engine](std::span<const Query> batch) { return engine.SearchBatch(batch); });
  const RegistryDelta delta;
  {
    kdash::serving::BatchScheduler scheduler(backend.Wrap(), ServerSchedulerOptions());
    std::vector<std::future<kdash::Result<SearchResult>>> window;
    for (const Query& query : reads) {
      window.push_back(scheduler.Submit(query));
      if (window.size() == 16) {
        for (auto& f : window) KDASH_CHECK(f.get().ok());
        window.clear();
      }
    }
    for (auto& f : window) KDASH_CHECK(f.get().ok());
  }
  AddSchedulerMetrics(delta, backend, m);
}

void ProbeRouter(const kdash::serving::ShardedEngine& sharded,
                 const std::vector<Query>& reads, MetricMap* m) {
  RouterTier tier(sharded);
  KDASH_CHECK(tier.Start().ok());
  const RegistryDelta delta;
  double us = 0;
  for (const Query& query : reads) {
    const auto start = Clock::now();
    auto result = tier.router().Search(query);
    us += MicrosBetween(start, Clock::now());
    KDASH_CHECK(result.ok()) << result.status();
  }
  const double n = static_cast<double>(reads.size());
  (*m)["router.search_us"] = {us / n, "us"};
  (*m)["router.remote_us"] = {delta.HistogramMean("router.remote_us"), "us"};
  (*m)["router.hedges"] = {static_cast<double>(delta.Counter("router.hedges")), "count"};
  (*m)["remote.requests_per_query"] = {
      static_cast<double>(delta.Counter("serving.remote.requests")) / n, "ratio"};
}

// The updatable engine on this graph: writes and reads of an update stream.
void ProbeDynamic(const kdash::graph::Graph& graph, std::uint64_t seed, std::size_t ops,
                  MetricMap* m) {
  kdash::EngineOptions options;
  options.updatable = true;
  auto engine = Engine::Build(graph, options);
  KDASH_CHECK(engine.ok()) << engine.status();
  const Stream stream = UpdateStream(graph, seed, ops);
  std::vector<double> write_us;
  std::vector<double> read_us;
  for (const Op& op : stream.ops) {
    const auto start = Clock::now();
    if (op.is_write()) {
      const kdash::Status status = op.kind == Op::Kind::kAddEdge
                                       ? engine->AddEdge(op.src, op.dst, 1.0)
                                       : engine->RemoveEdge(op.src, op.dst);
      write_us.push_back(MicrosBetween(start, Clock::now()));
      KDASH_CHECK(status.ok()) << status;
    } else {
      auto result = engine->Search(op.query);
      read_us.push_back(MicrosBetween(start, Clock::now()));
      KDASH_CHECK(result.ok()) << result.status();
    }
  }
  (*m)["dynamic.write_us"] = {Mean(write_us), "us"};
  (*m)["dynamic.read_us"] = {Mean(read_us), "us"};
  (*m)["write_p50_us"] = {Percentile(write_us, 0.50), "us"};
  (*m)["write_p99_us"] = {Percentile(write_us, 0.99), "us"};
}

}  // namespace

MetricMap ProbeLayers(Workload& workload, const Settings& settings,
                      std::map<std::string, std::string>* notes) {
  MetricMap m;
  const kdash::graph::Graph& graph = workload.graph();
  const std::vector<Query> reads =
      SampleReads(workload.stream(), settings.tiny ? 32 : 256);
  KDASH_CHECK(!reads.empty());
  (*notes)["probe_reads"] = std::to_string(reads.size());

  ProbePrecompute(graph, &m);

  std::optional<Engine> own_engine;
  const Engine* engine = workload.static_engine();
  if (engine == nullptr) {
    auto built = Engine::Build(graph);
    KDASH_CHECK(built.ok()) << built.status();
    own_engine.emplace(std::move(*built));
    engine = &*own_engine;
  }
  kdash::serving::ShardedEngineOptions options;
  options.num_shards = 4;
  auto sharded = kdash::serving::ShardedEngine::Build(graph, options);
  KDASH_CHECK(sharded.ok()) << sharded.status();

  const std::vector<SearchResult> results = ProbeEngine(*engine, reads, &m);
  ProbeSharded(*engine, *sharded, reads, settings.work_dir + "/probe-index", &m);
  ProbeWire(reads, results, &m);
  ProbeScheduler(*engine, reads, &m);
  ProbeRouter(*sharded, reads, &m);
  ProbeDynamic(graph, settings.seed, settings.tiny ? 60 : 200, &m);
  return m;
}

}  // namespace kbench
