// The four benchmark workloads and the per-layer probes of the traced run.
#ifndef KBENCH_WORKLOADS_H_
#define KBENCH_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace kbench {

class TimedBackend;

// In a traced pass, every 16th request also carries the program's own
// trace=1 spans.
inline constexpr std::uint64_t kProgramTraceEvery = 16;

struct Settings {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;     // self-test size: small graphs, short passes
  bool corrupt = false;  // corrupt the first checked answer (self-test)
  std::string work_dir;  // scratch space inside the checkout
};

// A pass is measured in windows (update_mixed: kWindows consecutive timed
// windows) or rounds (point_query: replays of the whole stream), and qps, p50_us and p99_us are medians of the per-window
// figures: a slow stretch of the shared host (CPU steal reached 14% of a
// run) moves one window, not the figure. Each window holds at least 1024
// samples, so >= 10 lie beyond its p99.
inline constexpr int kWindows = 5;
// Rounds: the share of a pass spent warming up, and the fewest rounds
// measured after it.
inline constexpr double kWarmUpShare = 0.2;
inline constexpr int kMinRounds = 3;

// What one measured pass of a workload saw.
struct PassResult {
  std::vector<double> qps;                   // per window
  std::vector<std::vector<double>> read_us;  // per window
  std::vector<double> write_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // errors, refusals and degraded answers
  std::uint64_t issued = 0;      // ops taken from the stream
  double cpu_us_per_op = 0.0;
  MetricMap layers;              // per-layer metrics this pass measured
  std::map<std::string, std::string> notes;  // extra info-line fields

  double Qps() const;                     // median over windows
  double ReadPercentile(double q) const;  // median of per-window percentiles
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  // Everything from a cold start until the first query can be answered.
  // Called several times; each call replaces the previous stack.
  [[nodiscard]] virtual kdash::Status Setup() = 0;
  // Untimed preparation after the last Setup (streams, reference engine).
  [[nodiscard]] virtual kdash::Status Prepare() = 0;
  // One measured pass of `seconds`. With a recorder, the benchmark's own
  // spans are recorded around every layer call.
  virtual PassResult Run(double seconds, SpanRecorder* recorder) = 0;
  // Checks the answers sampled by every pass so far.
  virtual void Verify(CheckTally* tally) = 0;
  virtual double IndexMb() = 0;
  virtual const kdash::graph::Graph& graph() const = 0;
  virtual const Stream& stream() const = 0;

  // Layer probes for the traced run, on this workload's graph and stream.
  // The static engine the workload already built, if any, is handed over
  // so it is not built twice.
  virtual const kdash::Engine* static_engine() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Settings& settings);

// Probes every layer of the library directly on `workload`'s graph and a
// sample of its reads: precompute stages, index restrict/save/open, the
// searcher, the sharded fan-out, the wire grammar, the scheduler and cache,
// the router tier and the updatable engine.
MetricMap ProbeLayers(Workload& workload, const Settings& settings,
                      std::map<std::string, std::string>* notes);

// scheduler.* and cache.* metrics of one pass through a BatchScheduler whose
// backend is `backend`, from registry counters taken since `delta`.
void AddSchedulerMetrics(const RegistryDelta& delta, const TimedBackend& backend,
                         MetricMap* m);

}  // namespace kbench

#endif  // KBENCH_WORKLOADS_H_
