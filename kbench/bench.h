// Shared declarations of the K-dash benchmark harness (kbench/).
//
// The harness drives the library from outside, through the public calls of
// each module, and adds no instrumentation to the program: every timing it
// reports is taken around a library call in these files, or read from the
// metric registry the program already keeps.
#ifndef KBENCH_BENCH_H_
#define KBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "graph/graph.h"
#include "obs/trace.h"
#include "sparse/csc_matrix.h"

namespace kbench {

using kdash::NodeId;
using kdash::Query;
using kdash::SearchResult;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MicrosBetween(Clock::time_point from, Clock::time_point to);

// ---- operations and streams -------------------------------------------------

// One operation of a workload: a top-k read, or an edge write against an
// updatable engine.
struct Op {
  enum class Kind { kRead, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kRead;
  Query query;      // kRead
  NodeId src = 0;   // writes
  NodeId dst = 0;
  bool is_write() const { return kind != Kind::kRead; }
};

// A generated op stream, consumed cyclically. Write streams leave the graph
// as they found it at the end of each cycle, so cycling is always valid.
struct Stream {
  std::vector<Op> ops;
  std::vector<std::uint64_t> write_ordinal;  // per op: writes before it
  std::uint64_t writes_per_cycle = 0;
};

// Uniform sources over non-dangling nodes, 80% single / 20% personalized
// (2-8 sources), k 5/25/50 (the paper's Fig. 2 settings). The single-source
// reads take every non-dangling node once, in an order drawn from the seed,
// and the stream ends there; group members are drawn the same way. A rare
// node where pruning fails costs 40x a typical one, and a random sample of
// the nodes moved the stream's cost by 10-15% from seed to seed.
Stream UniformStream(const kdash::graph::Graph& graph, std::uint64_t seed);
// Head-heavy reads (out-degree-weighted sources plus a rotating trending
// set; a quarter at k=1, the rest at k=10) with about one write in 20 ops:
// AddEdge of an absent edge, and a later RemoveEdge of the same edge.
Stream UpdateStream(const kdash::graph::Graph& graph, std::uint64_t seed,
                    std::size_t length);

// The base graph plus every edge added and not yet removed by the first
// `writes_done` writes of the stream (cyclic), as a fresh graph.
kdash::graph::Graph MutatedGraph(const kdash::graph::Graph& base,
                                 const Stream& stream,
                                 std::uint64_t writes_done);

// Measured properties of the ops a run actually issued.
struct StreamProperties {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t repeats = 0;       // reads whose identity appeared earlier
  std::uint64_t personalized = 0;  // reads with >= 2 sources
  std::map<std::size_t, std::uint64_t> k_counts;
};
StreamProperties MeasureStream(const Stream& stream, std::uint64_t issued);

// ---- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Median and rank-nearest percentile of a sample (sorted in place).
double Percentile(std::vector<double>& values, double q);
double Mean(const std::vector<double>& values);

std::string JsonNumber(double value);
std::string JsonString(const std::string& text);
std::string MetricsJson(const MetricMap& metrics);

double PeakRssMb();
double CpuSeconds();

// ---- registry deltas ----------------------------------------------------------

// Counter and histogram readings of the global metric registry between two
// points, so a layer's counts over one pass can be taken without touching
// the program.
class RegistryDelta {
 public:
  RegistryDelta();
  std::uint64_t Counter(const std::string& name) const;
  // Mean of the samples a histogram recorded since construction (0 if none).
  double HistogramMean(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> histograms_;
};

// ---- spans ------------------------------------------------------------------

// The benchmark's own spans: name, start, end and parent, grouped by a
// request id. A request's spans are collected by the thread that serves
// it, handed over once when it finishes, kept in memory, and written out
// once, at exit.
struct SpanRecord {
  std::uint64_t request = 0;
  std::string name;
  double start_us = 0.0;  // since the recorder's epoch
  double end_us = 0.0;
  int parent = -1;        // index of the parent within the same request
};

class SpanRecorder {
 public:
  SpanRecorder();
  // Appends a finished request's spans (index 0 is the root).
  void AddRequest(std::vector<SpanRecord> spans) KDASH_EXCLUDES(mutex_);
  double NowUs() const;
  double ToUs(Clock::time_point t) const;
  // Self time of every span name: its duration minus the union of its
  // children's intervals, summed over all requests.
  std::map<std::string, double> SelfTimeUs() const KDASH_EXCLUDES(mutex_);
  std::uint64_t requests() const KDASH_EXCLUDES(mutex_);
  kdash::Status WriteJsonLines(const std::string& path) const
      KDASH_EXCLUDES(mutex_);

 private:
  const Clock::time_point epoch_;
  mutable kdash::Mutex mutex_;
  std::vector<std::vector<SpanRecord>> requests_ KDASH_GUARDED_BY(mutex_);
};

// Appends the program's own trace=1 spans (obs::Span, microseconds since
// `ctx_start_us` on the recorder's clock) as children of span `parent`.
void AttachProgramSpans(const kdash::obs::TraceContext& ctx,
                        double ctx_start_us, int parent, std::uint64_t request,
                        std::vector<SpanRecord>* spans);

// ---- correctness --------------------------------------------------------------

// Tally of the answers the harness checked.
struct CheckTally {
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> wrong{0};
  kdash::Mutex mutex;
  std::string first_error KDASH_GUARDED_BY(mutex);
  void Fail(const std::string& what);
};

// `answer` matches power-iteration ground truth on the normalized adjacency
// `a` (Graph::NormalizedAdjacency) within `tol`:
// its scores equal the true top-k scores rank by rank, and each returned
// node's true proximity equals its returned score.
bool MatchesGroundTruth(const kdash::sparse::CscMatrix& a, double restart_prob,
                        const Query& query, const SearchResult& answer,
                        double tol, std::string* why);
// Same nodes and bit-identical scores.
bool BitIdentical(const SearchResult& a, const SearchResult& b,
                  std::string* why);
// Same score list within `tol`; nodes may differ only among tied scores.
bool SameWithin(const SearchResult& a, const SearchResult& b, double tol,
                std::string* why);

}  // namespace kbench

#endif  // KBENCH_BENCH_H_
