#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/parallel.h"
#include "common/parse_number.h"
#include "common/random.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serving/wire.h"

// Stamped by CMake at configure time (git rev-parse --short HEAD); builds
// outside a git checkout fall back to "unknown".
#ifndef KDASH_GIT_SHA
#define KDASH_GIT_SHA "unknown"
#endif

namespace kdash::bench {

double BenchScale() {
  const char* env = std::getenv("KDASH_BENCH_SCALE");
  double value = 0;
  if (env == nullptr || !ParseNumber(env, &value)) return 1.0;
  return std::clamp(value, 0.01, 16.0);
}

std::vector<datasets::Dataset> LoadAllDatasets(double multiplier) {
  std::vector<datasets::Dataset> result;
  for (const auto id : datasets::AllDatasets()) {
    result.push_back(datasets::MakeDataset(id, BenchScale() * multiplier));
  }
  return result;
}

std::vector<NodeId> SampleQueries(const graph::Graph& graph, int count,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> queries;
  int attempts = 0;
  while (static_cast<int>(queries.size()) < count && attempts < count * 100) {
    ++attempts;
    const NodeId q = rng.NextNode(graph.num_nodes());
    if (graph.OutDegree(q) > 0) queries.push_back(q);
  }
  while (static_cast<int>(queries.size()) < count) queries.push_back(0);
  return queries;
}

double MedianSeconds(const std::function<void()>& fn, int repetitions) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    const WallTimer timer;
    fn();
    times.push_back(timer.Seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double PrecisionAtK(const std::vector<ScoredNode>& approx,
                    const std::vector<ScoredNode>& truth, std::size_t k) {
  std::size_t hits = 0;
  const std::size_t truth_count = std::min(k, truth.size());
  for (std::size_t i = 0; i < std::min(k, approx.size()); ++i) {
    for (std::size_t j = 0; j < truth_count; ++j) {
      if (approx[i].node == truth[j].node) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

using serving::wire::JsonEscape;

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buffer[64];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "null");  // inf/nan: invalid JSON
  }
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":" + buffer;
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, Index value) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":" + std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int value) {
  return Add(key, static_cast<Index>(value));
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

void PrintJsonRecords(const std::string& bench_name,
                      const std::vector<JsonObject>& records) {
  std::string out = "{\"bench\":\"" + JsonEscape(bench_name) + "\",\"scale\":";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", BenchScale());
  out += buffer;
  out += ",\"git_sha\":\"" + JsonEscape(KDASH_GIT_SHA) + "\"";
  out += ",\"num_threads\":" + std::to_string(DefaultNumThreads());
  out += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ",";
    out += records[i].str();
  }
  out += "],\"metrics\":" + obs::MetricRegistry::Global().MetricsArrayJson();
  out += "}";
  std::printf("%s\n", out.c_str());
}

void PrintBenchHeader(const std::string& title, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("dataset scale: %.2f (KDASH_BENCH_SCALE; 4.0 = paper-size)\n",
              BenchScale());
  std::printf("==============================================================\n");
}

void PrintTableHeader(const std::vector<std::string>& columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::printf(i == 0 ? "%-14s" : "%14s", columns[i].c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("--------------");
  std::printf("\n");
}

void PrintTableRow(const std::string& label, const std::vector<double>& values,
                   const char* format) {
  std::printf("%-14s", label.c_str());
  for (const double v : values) std::printf(format, v);
  std::printf("\n");
}

void PrintTableRowText(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-14s" : "%14s", cells[i].c_str());
  }
  std::printf("\n");
}

}  // namespace kdash::bench
