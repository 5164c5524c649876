#include "serving/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/parse_number.h"
#include "common/timer.h"
#include "core/estimator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kdash::serving {

struct ShardedEngine::ControlBlock {
  // Per-engine skip count (shards_skipped()); concurrent SearchBatch calls
  // bump it, and a relaxed add is all the accounting needs.
  std::atomic<std::uint64_t> shards_skipped{0};

  // Registry counters (process-cumulative, across every ShardedEngine) plus
  // the per-shard latency histograms, resolved once so the fan-out hot
  // path never takes the registry lock. The histogram vector is filled by
  // SetShards once the served shards are known (Build/Open).
  obs::Counter* m_shard_failures =
      &obs::MetricRegistry::Global().GetCounter("serving.shard_failures");
  obs::Counter* m_shard_retries =
      &obs::MetricRegistry::Global().GetCounter("serving.shard_retries");
  obs::Counter* m_degraded_queries =
      &obs::MetricRegistry::Global().GetCounter("serving.degraded_queries");
  obs::Counter* m_shards_skipped =
      &obs::MetricRegistry::Global().GetCounter("serving.shards_skipped");
  std::vector<obs::Histogram*> m_shard_latency_us;  // parallel to shards_
};

ShardedEngine::ShardedEngine() : control_(std::make_unique<ControlBlock>()) {}
ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;
ShardedEngine::~ShardedEngine() = default;

std::uint64_t ShardedEngine::shards_skipped() const {
  return control_->shards_skipped.load(std::memory_order_relaxed);
}

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "kdash-sharded-index v1";

std::string ShardFileName(int s, std::uint64_t generation) {
  char name[48];
  std::snprintf(name, sizeof(name), "shard-%04d.g%llu.kdash", s,
                static_cast<unsigned long long>(generation));
  return name;
}

// One above the highest save generation of any shard file in `dir`, so a
// save never writes over a file some MANIFEST may name.
std::uint64_t NextGeneration(const std::string& dir) {
  std::uint64_t generation = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const std::size_t g = name.find(".g");
    if (!name.starts_with("shard-") || g == std::string::npos) continue;
    // The <N> of shard-<s>.g<N>.kdash (or of a leftover <...>.kdash.tmp).
    const std::string_view digits =
        std::string_view(name).substr(g + 2, name.find('.', g + 2) - (g + 2));
    std::uint64_t parsed = 0;
    if (ParseNumber(digits, &parsed)) {
      generation = std::max(generation, parsed);
    }
  }
  return generation + 1;
}

// Contiguous fenceposts splitting [0, n) into P near-equal ranges.
std::vector<NodeId> MakeBounds(NodeId n, int num_shards) {
  std::vector<NodeId> bounds(static_cast<std::size_t>(num_shards) + 1, 0);
  for (int s = 0; s <= num_shards; ++s) {
    bounds[static_cast<std::size_t>(s)] = static_cast<NodeId>(
        (static_cast<std::int64_t>(n) * s) / num_shards);
  }
  return bounds;
}

Status ManifestError(const std::string& detail) {
  return Status::DataLoss("corrupt sharded-index manifest: " + detail);
}

// A parsed MANIFEST: shard g owns [bounds[g], bounds[g + 1]) and is stored
// in `files[g]`, a name relative to the directory.
struct Manifest {
  NodeId num_nodes = 0;
  std::vector<NodeId> bounds;
  std::vector<std::string> files;
};

// Reads and validates dir/MANIFEST (missing = kNotFound, malformed =
// kDataLoss, version mismatch = kFailedPrecondition).
Result<Manifest> ReadManifest(const std::string& dir) {
  const std::string manifest_path = dir + "/" + kManifestName;
  std::ifstream manifest(manifest_path);
  if (!manifest.good()) {
    return Status::NotFound("no sharded-index manifest at " + manifest_path);
  }

  std::string header;
  if (!std::getline(manifest, header)) {
    return ManifestError("empty manifest");
  }
  if (header != kManifestHeader) {
    if (header.rfind("kdash-sharded-index", 0) == 0) {
      return Status::FailedPrecondition(
          "sharded-index version mismatch: manifest says \"" + header +
          "\", this build reads \"" + kManifestHeader + "\"");
    }
    return ManifestError("unrecognized header \"" + header + "\"");
  }

  // Every line after the header is single-space separated with an exact
  // field count, and every number goes through ParseNumber, so "3junk",
  // "+2" or a trailing extra field makes the manifest corrupt.
  std::string line;
  std::vector<std::string_view> fields;
  const auto next_line = [&](std::string_view keyword, std::size_t count) {
    if (!std::getline(manifest, line)) return false;
    fields = SplitOn(line, ' ');
    return fields.size() == count && fields[0] == keyword;
  };
  NodeId num_nodes = 0;
  if (!next_line("num_nodes", 2) || !ParseNumber(fields[1], &num_nodes, 1)) {
    return ManifestError("bad num_nodes line");
  }
  NodeId num_shards = 0;
  if (!next_line("num_shards", 2) ||
      !ParseNumber(fields[1], &num_shards, 1, num_nodes)) {
    return ManifestError("bad num_shards line");
  }

  const auto shard_count = static_cast<std::size_t>(num_shards);
  std::vector<NodeId> bounds(shard_count + 1, 0);
  std::vector<std::string> files(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::size_t id = 0;
    NodeId begin = 0, end = 0;
    if (!next_line("shard", 5) || !ParseNumber(fields[1], &id) || id != s ||
        !ParseNumber(fields[2], &begin) || !ParseNumber(fields[3], &end) ||
        fields[4].empty()) {
      return ManifestError("bad shard line " + std::to_string(s));
    }
    // Shards must partition [0, num_nodes) contiguously and in order.
    if (begin != bounds[s] || end < begin || end > num_nodes ||
        (s + 1 == shard_count && end != num_nodes)) {
      return ManifestError("shard ranges do not partition [0, " +
                           std::to_string(num_nodes) + ")");
    }
    bounds[s + 1] = end;
    files[s] = std::string(fields[4]);
  }

  return Manifest{num_nodes, std::move(bounds), std::move(files)};
}

}  // namespace

Result<ShardedEngine> ShardedEngine::Build(const graph::Graph& graph,
                                           const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (graph.num_nodes() > 0 && options.num_shards > graph.num_nodes()) {
    return Status::InvalidArgument(
        "num_shards " + std::to_string(options.num_shards) +
        " exceeds the graph's " + std::to_string(graph.num_nodes()) +
        " nodes");
  }
  KDASH_RETURN_IF_ERROR(ValidateFailurePolicy(options.failure_policy));

  // One full precompute (Engine::Build validates graph and index options),
  // then P restrictions of it.
  EngineOptions full_options;
  full_options.index = options.index;
  KDASH_ASSIGN_OR_RETURN(auto full, Engine::Build(graph, full_options));

  ShardedEngine sharded;
  sharded.num_nodes_ = graph.num_nodes();
  sharded.policy_ = options.failure_policy;
  sharded.bounds_ = MakeBounds(graph.num_nodes(), options.num_shards);

  const auto num_shards = static_cast<std::size_t>(options.num_shards);
  std::vector<std::optional<Engine>> restricted(num_shards);
  ThreadPool::Shared().ParallelFor(
      0, options.num_shards, /*grain=*/1, [&](Index begin, Index end, int) {
        for (Index s = begin; s < end; ++s) {
          const auto i = static_cast<std::size_t>(s);
          restricted[i] = Engine::FromIndex(full.index().Restrict(
              sharded.bounds_[i], sharded.bounds_[i + 1]));
        }
      });
  std::vector<int> ids(num_shards);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<Engine> shards;
  shards.reserve(num_shards);
  for (auto& shard : restricted) shards.push_back(std::move(*shard));
  sharded.SetShards(std::move(ids), std::move(shards));
  return sharded;
}

void ShardedEngine::SetShards(std::vector<int> ids,
                              std::vector<Engine> shards) {
  shard_ids_ = std::move(ids);
  shards_ = std::move(shards);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const core::KDashIndex& index = shards_[s].index();
    shard_score_bounds_.push_back(
        core::OwnedScoreBound(index.owned_begin(), index.owned_end(),
                              index.amax(), index.c_prime_of_node()));
    control_->m_shard_latency_us.push_back(
        &obs::MetricRegistry::Global().GetHistogram(
            "serving.shard_latency_us.s" + std::to_string(shard_ids_[s])));
  }
}

Status ShardedEngine::Save(const std::string& dir) const {
  if (shards_.size() + 1 != bounds_.size()) {
    return Status::FailedPrecondition(
        "cannot save an engine serving " + std::to_string(shards_.size()) +
        " of its index's " + std::to_string(bounds_.size() - 1) + " shards");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::FailedPrecondition("cannot create directory " + dir + ": " +
                                      ec.message());
  }
  // Shard files first, under names no earlier save used, and the MANIFEST
  // last: a save that fails midway leaves the previous MANIFEST and every
  // file it names untouched.
  const Result<Manifest> previous = ReadManifest(dir);
  const std::uint64_t generation = NextGeneration(dir);
  std::vector<std::string> files;
  for (int s = 0; s < num_shards(); ++s) {
    files.push_back(ShardFileName(s, generation));
    KDASH_RETURN_IF_ERROR(
        shards_[static_cast<std::size_t>(s)].Save(dir + "/" + files.back()));
  }
  KDASH_RETURN_IF_ERROR(WriteFileAtomically(
      dir + "/" + kManifestName, [&](std::ostream& manifest) {
        manifest << kManifestHeader << "\n";
        manifest << "num_nodes " << num_nodes_ << "\n";
        manifest << "num_shards " << num_shards() << "\n";
        for (int s = 0; s < num_shards(); ++s) {
          manifest << "shard " << s << " " << shard_begin(s) << " "
                   << shard_end(s) << " "
                   << files[static_cast<std::size_t>(s)] << "\n";
        }
        return Status::Ok();
      }));
  // Best effort: the previous generation's files, now unreferenced. Only
  // plain names inside `dir` are removed, whatever the old MANIFEST says.
  if (previous.ok()) {
    for (const std::string& file : previous->files) {
      if (std::filesystem::path(file).filename() != file ||
          std::find(files.begin(), files.end(), file) != files.end()) {
        continue;
      }
      std::filesystem::remove(dir + "/" + file, ec);
    }
  }
  return Status::Ok();
}

Result<ShardedEngine> ShardedEngine::Open(const std::string& dir,
                                          const std::vector<int>& shards,
                                          const ShardFailurePolicy& policy) {
  KDASH_RETURN_IF_ERROR(ValidateFailurePolicy(policy));
  KDASH_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(dir));
  const int num_shards = static_cast<int>(manifest.files.size());

  // The served ids: every MANIFEST shard, or the requested ones, each once.
  std::vector<int> ids = shards;
  if (ids.empty()) {
    ids.resize(manifest.files.size());
    std::iota(ids.begin(), ids.end(), 0);
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || ids[i] >= num_shards) {
      return Status::InvalidArgument(
          "shard " + std::to_string(ids[i]) + " is not in the manifest's [0, " +
          std::to_string(num_shards) + ")");
    }
    if (i > 0 && ids[i] == ids[i - 1]) {
      return Status::InvalidArgument("shard " + std::to_string(ids[i]) +
                                     " listed twice");
    }
  }

  // Load the served shard files in parallel on the shared pool.
  std::vector<std::optional<Engine>> loaded(ids.size());
  std::vector<Status> statuses(ids.size());
  ThreadPool::Shared().ParallelFor(
      0, static_cast<Index>(ids.size()), /*grain=*/1,
      [&](Index begin, Index end, int) {
        for (Index t = begin; t < end; ++t) {
          const auto i = static_cast<std::size_t>(t);
          auto engine = Engine::Open(
              dir + "/" + manifest.files[static_cast<std::size_t>(ids[i])]);
          if (engine.ok()) {
            loaded[i].emplace(std::move(*engine));
          } else {
            statuses[i] = engine.status();
          }
        }
      });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string shard = "shard " + std::to_string(ids[i]);
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(),
                    shard + ": " + statuses[i].message());
    }
    const Engine& engine = *loaded[i];
    const auto g = static_cast<std::size_t>(ids[i]);
    if (engine.num_nodes() != manifest.num_nodes ||
        engine.index().owned_begin() != manifest.bounds[g] ||
        engine.index().owned_end() != manifest.bounds[g + 1] ||
        engine.restart_prob() != loaded[0]->restart_prob()) {
      return ManifestError(shard + " file disagrees with the manifest");
    }
  }
  std::vector<Engine> engines;
  engines.reserve(ids.size());
  for (auto& engine : loaded) engines.push_back(std::move(*engine));

  ShardedEngine sharded;
  sharded.num_nodes_ = manifest.num_nodes;
  sharded.policy_ = policy;
  sharded.bounds_ = std::move(manifest.bounds);
  sharded.SetShards(std::move(ids), std::move(engines));
  return sharded;
}

class ShardedEngine::Members final : public ShardSet {
 public:
  explicit Members(const ShardedEngine& engine) : engine_(engine) {}

  std::size_t size() const override { return engine_.shards_.size(); }

  Status SearchOnce(const Query& query, std::size_t s, int /*attempt*/,
                    SearchResult* out) const override {
    if (fault::AnyArmed()) {
      // Two sites: a generic one for probabilistic chaos over the whole
      // fan-out, and a per-shard one (MANIFEST id) so tests can kill one
      // shard exactly.
      KDASH_RETURN_IF_ERROR(fault::Check("sharded.shard_search"));
      const std::string id = std::to_string(engine_.shard_ids_[s]);
      KDASH_RETURN_IF_ERROR(fault::Check("sharded.shard_search.s" + id));
    }
    // Span indexes are member indexes, like FanOut's skip spans.
    obs::ScopedSpan span(query.trace.get(), "sharded.shard_search",
                         static_cast<int>(s));
    WallTimer timer;
    // Shard queries run with the trace detached: the shard engine is a
    // plain Engine whose "engine.search" span would duplicate the
    // per-shard span stamped here (with the shard id attached). The copy
    // happens only for traced queries — the untraced hot path passes the
    // caller's query through untouched.
    auto result = [&] {
      if (query.trace == nullptr) return engine_.shards_[s].Search(query);
      Query shard_query = query;
      shard_query.trace = nullptr;
      return engine_.shards_[s].Search(shard_query);
    }();
    engine_.control_->m_shard_latency_us[s]->Record(
        static_cast<std::uint64_t>(timer.Micros()));
    if (!result.ok()) return result.status();
    *out = std::move(*result);
    return Status::Ok();
  }

  int weight(std::size_t /*s*/) const override { return 1; }

  Scalar score_bound(std::size_t s) const override {
    return engine_.shard_score_bounds_[s];
  }

  std::optional<std::size_t> owner(NodeId u) const override {
    if (u < 0 || u >= engine_.num_nodes_) return std::nullopt;
    const auto& bounds = engine_.bounds_;
    const int id = static_cast<int>(
        std::upper_bound(bounds.begin(), bounds.end(), u) - bounds.begin() -
        1);
    const auto& ids = engine_.shard_ids_;
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) return std::nullopt;
    return static_cast<std::size_t>(it - ids.begin());
  }

 private:
  const ShardedEngine& engine_;
};

Result<SearchResult> ShardedEngine::Search(const Query& query) const {
  return std::move(SearchBatch({&query, 1}).front());
}

std::vector<Result<SearchResult>> ShardedEngine::SearchBatch(
    std::span<const Query> queries) const {
  const Members members(*this);
  FanOutTally tally;
  auto results = FanOut(members, queries, policy_, ThreadPool::Shared(),
                        "sharded.merge", &tally);
  ControlBlock& control = *control_;
  control.m_shard_failures->Add(tally.failures);
  control.m_shard_retries->Add(tally.retries);
  control.shards_skipped.fetch_add(tally.skipped, std::memory_order_relaxed);
  control.m_shards_skipped->Add(tally.skipped);
  control.m_degraded_queries->Add(tally.degraded);
  return results;
}

}  // namespace kdash::serving
