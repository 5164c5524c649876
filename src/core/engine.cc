#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/dynamic.h"
#include "core/kdash_searcher.h"
#include "obs/metrics.h"

namespace kdash {

// The facade's moving parts. Static engines own the immutable KDashIndex
// plus a checkout list of reusable searcher workspaces: every concurrent
// caller — one rank of a SearchBatch (a Search is a batch of one) —
// borrows a private searcher, so N threads search truly in parallel.
// Updatable engines own a DynamicKDash whose correction state is shared,
// so every operation on it takes the exclusive lock.
struct Engine::Impl {
  NodeId num_nodes = 0;
  Scalar restart_prob = 0.0;

  // Static backend. The index itself is immutable once built; the searcher
  // checkout list is the only mutable state.
  std::unique_ptr<core::KDashIndex> index;
  mutable Mutex searcher_mutex;
  mutable std::vector<std::unique_ptr<core::KDashSearcher>> idle_searchers
      KDASH_GUARDED_BY(searcher_mutex);

  // Updatable backend: the DynamicKDash's correction state is shared, so
  // every solve and every edge update holds dynamic_mutex. The pointer is
  // set once at construction (reading it is how callers tell the two
  // backend kinds apart); only the pointee needs the lock.
  std::unique_ptr<core::DynamicKDash> dynamic
      KDASH_PT_GUARDED_BY(dynamic_mutex);
  mutable Mutex dynamic_mutex;

  // Bumped on every successful edge mutation (see Engine::update_epoch).
  // Atomic so lock-free cache-invalidation polls never touch dynamic_mutex.
  std::atomic<std::uint64_t> update_epoch{0};

  // Registry handles resolved once per engine — metric lookup takes a lock
  // and Search must not. The counters make searcher-checkout contention
  // visible: a steady created:reused ratio near zero means the idle list is
  // absorbing concurrency; climbing `created` under load means more threads
  // than ever-built searchers are searching at once.
  obs::Histogram* search_us =
      &obs::MetricRegistry::Global().GetHistogram("engine.search_us");
  // Personalized (multi-source) queries alone, so their share of the
  // latency tail shows beside the all-query histogram.
  obs::Histogram* personalized_search_us =
      &obs::MetricRegistry::Global().GetHistogram(
          "engine.personalized_search_us");
  obs::Histogram* nodes_visited =
      &obs::MetricRegistry::Global().GetHistogram("engine.nodes_visited");
  obs::Histogram* proximity_computations =
      &obs::MetricRegistry::Global().GetHistogram(
          "engine.proximity_computations");
  obs::Counter* searcher_created =
      &obs::MetricRegistry::Global().GetCounter("engine.searcher_created");
  obs::Counter* searcher_reused =
      &obs::MetricRegistry::Global().GetCounter("engine.searcher_reused");

  std::unique_ptr<core::KDashSearcher> AcquireSearcher() const {
    {
      MutexLock lock(searcher_mutex);
      if (!idle_searchers.empty()) {
        auto searcher = std::move(idle_searchers.back());
        idle_searchers.pop_back();
        searcher_reused->Add();
        return searcher;
      }
    }
    searcher_created->Add();
    return std::make_unique<core::KDashSearcher>(index.get());
  }

  void ReleaseSearcher(std::unique_ptr<core::KDashSearcher> searcher) const {
    MutexLock lock(searcher_mutex);
    idle_searchers.push_back(std::move(searcher));
  }

  // One sample per search in each search histogram, and in
  // personalized_search_us when the query has more than one source.
  void RecordSearch(const WallTimer& timer, const Query& query,
                    const core::SearchStats& stats) const {
    const auto micros = static_cast<std::uint64_t>(timer.Micros());
    search_us->Record(micros);
    if (query.sources.size() > 1) personalized_search_us->Record(micros);
    nodes_visited->Record(static_cast<std::uint64_t>(stats.nodes_visited));
    proximity_computations->Record(
        static_cast<std::uint64_t>(stats.proximity_computations));
  }
};

namespace {

Status ValidateNode(const char* what, NodeId node, NodeId num_nodes) {
  if (node < 0 || node >= num_nodes) {
    return Status::InvalidArgument(
        std::string(what) + " node " + std::to_string(node) +
        " out of range [0, " + std::to_string(num_nodes) + ")");
  }
  return Status::Ok();
}

Status ValidateQuery(const Query& query, NodeId num_nodes, bool updatable) {
  if (query.k == 0) {
    return Status::InvalidArgument("query k must be >= 1");
  }
  if (query.sources.empty()) {
    return Status::InvalidArgument("query has an empty source set");
  }
  for (const NodeId source : query.sources) {
    KDASH_RETURN_IF_ERROR(ValidateNode("source", source, num_nodes));
  }
  for (const NodeId node : query.exclude) {
    KDASH_RETURN_IF_ERROR(ValidateNode("excluded", node, num_nodes));
  }
  if (query.exclude.size() > 1) {
    std::vector<NodeId> sorted_exclude = query.exclude;
    std::sort(sorted_exclude.begin(), sorted_exclude.end());
    const auto dup =
        std::adjacent_find(sorted_exclude.begin(), sorted_exclude.end());
    if (dup != sorted_exclude.end()) {
      return Status::InvalidArgument("duplicate excluded node " +
                                     std::to_string(*dup));
    }
  }
  if (query.root_override != kInvalidNode) {
    if (updatable) {
      return Status::Unimplemented(
          "root_override is a static-engine BFS diagnostic; updatable "
          "engines have no BFS tree");
    }
    if (query.sources.size() > 1) {
      return Status::InvalidArgument(
          "root_override requires a single-source query");
    }
    KDASH_RETURN_IF_ERROR(
        ValidateNode("root_override", query.root_override, num_nodes));
  }
  return Status::Ok();
}

Status ValidateOptions(const EngineOptions& options) {
  const Scalar c = options.index.restart_prob;
  if (!(c > 0.0 && c < 1.0)) {
    return Status::InvalidArgument("restart_prob must be in (0, 1), got " +
                                   std::to_string(c));
  }
  if (options.index.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::Ok();
}

}  // namespace

Engine::Engine(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

Result<Engine> Engine::Build(const graph::Graph& graph,
                             const EngineOptions& options) {
  KDASH_RETURN_IF_ERROR(ValidateOptions(options));
  if (graph.num_nodes() <= 0) {
    return Status::InvalidArgument("cannot build an engine over an empty "
                                   "graph");
  }
  auto impl = std::make_unique<Impl>();
  impl->num_nodes = graph.num_nodes();
  impl->restart_prob = options.index.restart_prob;
  if (options.updatable) {
    impl->dynamic = std::make_unique<core::DynamicKDash>(
        graph, options.index.restart_prob);
  } else {
    impl->index = std::make_unique<core::KDashIndex>(
        core::KDashIndex::Build(graph, options.index));
  }
  return Engine(std::move(impl));
}

Result<Engine> Engine::WrapLoadedIndex(Result<core::KDashIndex> loaded) {
  KDASH_ASSIGN_OR_RETURN(auto index, std::move(loaded));
  return FromIndex(std::move(index));
}

Engine Engine::FromIndex(core::KDashIndex index) {
  auto impl = std::make_unique<Impl>();
  impl->num_nodes = index.num_nodes();
  impl->restart_prob = index.restart_prob();
  impl->index = std::make_unique<core::KDashIndex>(std::move(index));
  return Engine(std::move(impl));
}

namespace {

Status RequireStaticIndex(const core::KDashIndex* index) {
  if (index == nullptr) {
    return Status::FailedPrecondition(
        "updatable engines cannot be saved (their factorization tracks a "
        "mutating graph); build a static engine to persist");
  }
  return Status::Ok();
}

}  // namespace

Result<Engine> Engine::Open(std::istream& in) {
  return WrapLoadedIndex(core::KDashIndex::Load(in));
}

Result<Engine> Engine::Open(const std::string& path) {
  return WrapLoadedIndex(core::KDashIndex::LoadFile(path));
}

Status Engine::Save(std::ostream& out) const {
  KDASH_RETURN_IF_ERROR(RequireStaticIndex(impl_->index.get()));
  return impl_->index->Save(out);
}

Status Engine::Save(const std::string& path) const {
  KDASH_RETURN_IF_ERROR(RequireStaticIndex(impl_->index.get()));
  return impl_->index->SaveFile(path);
}

Result<SearchResult> Engine::Search(const Query& query) const {
  return std::move(SearchBatch({&query, 1}).front());
}

std::vector<Result<SearchResult>> Engine::SearchBatch(
    std::span<const Query> queries) const {
  // Each query is validated on its own: an invalid one keeps its status, a
  // valid one's placeholder is overwritten below.
  std::vector<Result<SearchResult>> results;
  results.reserve(queries.size());
  std::vector<std::size_t> valid;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Status status = ValidateQuery(queries[i], impl_->num_nodes,
                                  impl_->dynamic != nullptr);
    if (status.ok()) {
      results.emplace_back(SearchResult{});
      valid.push_back(i);
    } else {
      results.emplace_back(std::move(status));
    }
  }
  if (impl_->dynamic != nullptr) {
    MutexLock lock(impl_->dynamic_mutex);
    for (const std::size_t i : valid) {
      obs::ScopedSpan span(queries[i].trace.get(), "engine.search");
      WallTimer timer;
      results[i] = impl_->dynamic->Search(queries[i]);
      impl_->RecordSearch(timer, queries[i], results[i]->stats);
    }
    return results;
  }
  if (valid.empty()) return results;
  // Each rank pulls valid query indexes off a shared cursor with one
  // searcher checked out of the engine's list; a rank that finds no work
  // takes none.
  std::atomic<std::size_t> cursor{0};
  const auto run_rank = [&](int /*rank*/) {
    std::size_t v = cursor.fetch_add(1, std::memory_order_relaxed);
    if (v >= valid.size()) return;
    auto searcher = impl_->AcquireSearcher();
    for (; v < valid.size();
         v = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const Query& query = queries[valid[v]];
      obs::ScopedSpan span(query.trace.get(), "engine.search");
      WallTimer timer;
      results[valid[v]] = searcher->Search(query);
      impl_->RecordSearch(timer, query, results[valid[v]]->stats);
    }
    impl_->ReleaseSearcher(std::move(searcher));
  };
  // One valid query must run on the caller: FanOut runs shard searches on
  // ThreadPool::Shared() workers and RunOnAllThreads is not reentrant, and
  // waking the pool would add its latency to every single search.
  if (valid.size() == 1) {
    run_rank(0);
  } else {
    ThreadPool::Shared().RunOnAllThreads(run_rank);
  }
  return results;
}

Status Engine::AddEdge(NodeId src, NodeId dst, Scalar weight) {
  if (impl_->dynamic == nullptr) {
    return Status::FailedPrecondition(
        "engine is not updatable; build with EngineOptions::updatable to "
        "accept edge updates");
  }
  MutexLock lock(impl_->dynamic_mutex);
  const Status status = impl_->dynamic->AddEdge(src, dst, weight);
  if (status.ok()) {
    impl_->update_epoch.fetch_add(1, std::memory_order_release);
  }
  return status;
}

Status Engine::RemoveEdge(NodeId src, NodeId dst) {
  if (impl_->dynamic == nullptr) {
    return Status::FailedPrecondition(
        "engine is not updatable; build with EngineOptions::updatable to "
        "accept edge updates");
  }
  MutexLock lock(impl_->dynamic_mutex);
  const Status status = impl_->dynamic->RemoveEdge(src, dst);
  if (status.ok()) {
    impl_->update_epoch.fetch_add(1, std::memory_order_release);
  }
  return status;
}

NodeId Engine::num_nodes() const { return impl_->num_nodes; }
Scalar Engine::restart_prob() const { return impl_->restart_prob; }
bool Engine::updatable() const { return impl_->dynamic != nullptr; }

std::uint64_t Engine::update_epoch() const {
  return impl_->update_epoch.load(std::memory_order_acquire);
}

const core::KDashIndex& Engine::index() const {
  KDASH_CHECK(impl_->index != nullptr)
      << "Engine::index() on an updatable engine";
  return *impl_->index;
}

}  // namespace kdash
