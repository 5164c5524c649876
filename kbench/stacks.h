// The serving stacks the workloads drive, assembled in-process from the
// library's public pieces exactly as the tool binaries assemble them:
// kdash_server's scheduler (BatchScheduler -> backend) and kdash_worker
// (LineServer -> BatchScheduler over one shard).
#ifndef KBENCH_STACKS_H_
#define KBENCH_STACKS_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serving/batch_scheduler.h"
#include "serving/router.h"
#include "serving/sharded_engine.h"
#include "tools/net_util.h"

namespace kbench {

// Times every backend call the scheduler makes: the benchmark's view of the
// scheduler -> backend boundary. Batches are recorded as their own span
// trees when a recorder is attached.
class TimedBackend {
 public:
  explicit TimedBackend(kdash::serving::BatchScheduler::Backend inner)
      : inner_(std::move(inner)) {}
  kdash::serving::BatchScheduler::Backend Wrap();
  void set_recorder(SpanRecorder* recorder) { recorder_.store(recorder); }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t queries() const { return queries_.load(); }
  double busy_us() const { return static_cast<double>(busy_ns_.load()) * 1e-3; }
  void Reset();

 private:
  kdash::serving::BatchScheduler::Backend inner_;
  std::atomic<SpanRecorder*> recorder_{nullptr};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> batch_ids_{0};
};

// The kdash_server / kdash_worker front end: BatchScheduler over a backend,
// served by a LineServer on an ephemeral loopback port.
class FrontEnd {
 public:
  FrontEnd(kdash::serving::BatchScheduler::Backend backend,
           const kdash::serving::BatchSchedulerOptions& options,
           const kdash::tools::StreamConfig& config);
  ~FrontEnd();
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  [[nodiscard]] kdash::Status Start();
  int port() const { return server_.port(); }
  TimedBackend& backend() { return backend_; }

 private:
  TimedBackend backend_;
  kdash::serving::BatchScheduler scheduler_;
  kdash::tools::LineServer server_;
  std::thread thread_;
};

// kdash_server's scheduler defaults (result cache on, 1024 entries).
kdash::serving::BatchSchedulerOptions ServerSchedulerOptions();

// Four loopback workers, one shard each, behind a serving::Router — the
// distributed tier of kdash_server --workers=... in one process.
class RouterTier {
 public:
  explicit RouterTier(const kdash::serving::ShardedEngine& sharded);
  [[nodiscard]] kdash::Status Start();
  const kdash::serving::Router& router() const { return *router_; }

 private:
  const kdash::serving::ShardedEngine& sharded_;
  std::vector<std::unique_ptr<FrontEnd>> workers_;
  std::unique_ptr<kdash::serving::Router> router_;
};

}  // namespace kbench

#endif  // KBENCH_STACKS_H_
