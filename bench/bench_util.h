// Shared helpers for the figure/table benchmark binaries.
//
// Every bench binary prints the rows/series of one figure or table from the
// paper's evaluation (Section 6). Dataset sizes are controlled by the
// KDASH_BENCH_SCALE environment variable (default 1.0 ≈ a quarter of the
// paper's node counts; 4.0 reproduces the paper's sizes but makes the
// quadratic baselines very slow — their ranks and hub counts grow with n,
// so their dense factors and hub vectors grow with n²).
#ifndef KDASH_BENCH_BENCH_UTIL_H_
#define KDASH_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/top_k.h"
#include "common/types.h"
#include "datasets/datasets.h"
#include "graph/graph.h"

namespace kdash::bench {

// Scale factor from KDASH_BENCH_SCALE (default 1.0, clamped to [0.01, 16]).
double BenchScale();

// All five dataset stand-ins at BenchScale() * multiplier.
std::vector<datasets::Dataset> LoadAllDatasets(double multiplier = 1.0);

// Samples query nodes, preferring nodes that can actually walk somewhere
// (out-degree > 0), mirroring the paper's random-query evaluation.
std::vector<NodeId> SampleQueries(const graph::Graph& graph, int count,
                                  std::uint64_t seed = 7);

// Median wall-clock seconds of `fn` over `repetitions` runs.
double MedianSeconds(const std::function<void()>& fn, int repetitions);

// Fraction of the exact top-k found in the first k entries of `approx`
// (the paper's precision metric of Figure 3).
double PrecisionAtK(const std::vector<ScoredNode>& approx,
                    const std::vector<ScoredNode>& truth, std::size_t k);

// ---- JSON emission --------------------------------------------------------

// Flat JSON object built field by field; numbers are printed with enough
// digits to round-trip a double. Used by benches that emit machine-readable
// records (so future PRs can diff perf trajectories).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, Index value);
  JsonObject& Add(const std::string& key, int value);
  JsonObject& Add(const std::string& key, const std::string& value);

  // The serialized object, e.g. {"threads":4,"qps":123.5}.
  std::string str() const;

 private:
  std::string body_;
};

// Prints {"bench":<name>,"scale":<BenchScale()>,"git_sha":...,
// "num_threads":...,"records":[...],"metrics":[...]} on one line, making
// bench output grep-able between human-readable tables. git_sha is the
// configure-time HEAD (so cross-PR trajectories are attributable to a
// revision) and num_threads is the process-default pool size
// (KDASH_NUM_THREADS or hardware concurrency) the run executed under.
// "metrics" is the process metric registry's array snapshot
// (obs::MetricRegistry::MetricsArrayJson) at print time — every latency
// histogram the instrumented serving path recorded during the run, which
// is what tools/perf_gate.py's latency mode gates on (p99 of
// engine.search_us and friends).
void PrintJsonRecords(const std::string& bench_name,
                      const std::vector<JsonObject>& records);

// ---- table printing -------------------------------------------------------

// Prints "== title ==" plus a context line (scale, machine note).
void PrintBenchHeader(const std::string& title, const std::string& what);

// Left-aligned first column, right-aligned numeric columns.
void PrintTableHeader(const std::vector<std::string>& columns);
void PrintTableRow(const std::string& label, const std::vector<double>& values,
                   const char* format = "%14.6g");
void PrintTableRowText(const std::vector<std::string>& cells);

}  // namespace kdash::bench

#endif  // KDASH_BENCH_BENCH_UTIL_H_
