#include "stacks.h"

namespace kbench {

// ---- TimedBackend ----------------------------------------------------------

kdash::serving::BatchScheduler::Backend TimedBackend::Wrap() {
  return [this](std::span<const Query> batch) {
    SpanRecorder* recorder = recorder_.load();
    const auto start = Clock::now();
    auto result = inner_(batch);
    const auto end = Clock::now();
    calls_.fetch_add(1);
    queries_.fetch_add(batch.size());
    busy_ns_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
    if (recorder != nullptr) {
      // Batches get ids with the top bit set, apart from client requests.
      SpanRecord span;
      span.request = (std::uint64_t{1} << 63) | batch_ids_.fetch_add(1);
      span.name = "scheduler.backend";
      span.start_us = recorder->ToUs(start);
      span.end_us = recorder->ToUs(end);
      recorder->AddRequest({span});
    }
    return result;
  };
}

void TimedBackend::Reset() {
  calls_.store(0);
  queries_.store(0);
  busy_ns_.store(0);
}

// ---- FrontEnd ------------------------------------------------------------------

kdash::serving::BatchSchedulerOptions ServerSchedulerOptions() {
  kdash::serving::BatchSchedulerOptions options;
  options.cache_entries = 1024;
  return options;
}

FrontEnd::FrontEnd(kdash::serving::BatchScheduler::Backend backend,
                   const kdash::serving::BatchSchedulerOptions& options,
                   const kdash::tools::StreamConfig& config)
    : backend_(std::move(backend)),
      scheduler_(backend_.Wrap(), options),
      server_(scheduler_, config) {}

FrontEnd::~FrontEnd() {
  server_.Stop();
  if (thread_.joinable()) thread_.join();
  scheduler_.Shutdown();
}

kdash::Status FrontEnd::Start() {
  KDASH_RETURN_IF_ERROR(server_.Listen(0));
  thread_ = std::thread([this] { server_.Serve(); });
  return kdash::Status::Ok();
}

// ---- RouterTier -------------------------------------------------------------

RouterTier::RouterTier(const kdash::serving::ShardedEngine& sharded)
    : sharded_(sharded) {}

kdash::Status RouterTier::Start() {
  std::string spec;
  for (int s = 0; s < sharded_.num_shards(); ++s) {
    const kdash::Engine& shard = sharded_.shard(s);
    kdash::tools::StreamConfig config;  // kdash_worker's pong advertisement
    config.pong_shards = 1;
    config.pong_nodes = shard.num_nodes();
    workers_.push_back(std::make_unique<FrontEnd>(
        [&shard](std::span<const Query> batch) { return shard.SearchBatch(batch); },
        ServerSchedulerOptions(), config));
    KDASH_RETURN_IF_ERROR(workers_.back()->Start());
    if (!spec.empty()) spec += ',';
    spec += "127.0.0.1:" + std::to_string(workers_.back()->port());
  }
  KDASH_ASSIGN_OR_RETURN(router_, kdash::serving::Router::Connect(spec));
  return kdash::Status::Ok();
}

}  // namespace kbench
