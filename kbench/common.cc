// Streams, statistics, registry deltas, spans and answer checks shared by
// every workload of the harness.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "bench.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "rwr/power_iteration.h"

namespace kbench {

using kdash::graph::Graph;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// ---- streams ------------------------------------------------------------------

namespace {

// Uniform draws in [0, 1), stratified in blocks: each block of `block`
// consecutive draws holds exactly one draw in each 1/block-wide stratum, in
// random order. A run's inputs still change with the seed, but their mix
// (hub share, k share, personalized share) barely does, so run-to-run
// spread measures the program rather than the luck of the draw.
class StratifiedUniform {
 public:
  StratifiedUniform(std::size_t block, std::uint64_t seed)
      : block_(block), rng_(seed) {}

  double Next() {
    if (at_ == values_.size()) {
      values_.clear();
      for (std::size_t j = 0; j < block_; ++j) {
        values_.push_back((static_cast<double>(j) + rng_.NextDouble()) /
                          static_cast<double>(block_));
      }
      for (std::size_t j = block_ - 1; j > 0; --j) {
        std::swap(values_[j], values_[rng_.NextBounded(j + 1)]);
      }
      at_ = 0;
    }
    return values_[at_++];
  }

 private:
  std::size_t block_;
  kdash::Rng rng_;
  std::vector<double> values_;
  std::size_t at_ = 0;
};

// Out-degree-weighted node sampler (entity popularity): maps a uniform
// draw in [0, 1) through the degree CDF.
class WeightedNodes {
 public:
  explicit WeightedNodes(const Graph& graph) {
    cumulative_.reserve(static_cast<std::size_t>(graph.num_nodes()));
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      total_ += static_cast<double>(graph.OutDegree(u));
      cumulative_.push_back(total_);
    }
  }
  NodeId At(double u) const {
    const auto at =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u * total_);
    return static_cast<NodeId>(
        std::min<std::ptrdiff_t>(at - cumulative_.begin(),
                                 static_cast<std::ptrdiff_t>(cumulative_.size()) - 1));
  }

 private:
  std::vector<double> cumulative_;
  double total_ = 0.0;
};

// The serving bench's head-heavy model: a quarter of requests hit a small
// trending set that turns over every 512 requests.
class HeadHeavyReads {
 public:
  static constexpr std::size_t kTrendingRotation = 512;
  static constexpr std::size_t kTrendingSetSize = 8;
  // Trending nodes are drawn stratified over 8 rotations (4096 reads), so
  // such a stretch of the stream holds about the same mix of heavy and
  // light trending sources whatever the seed.
  static constexpr std::size_t kTrendingPicks = 8 * kTrendingSetSize;

  HeadHeavyReads(const Graph& graph, std::uint64_t seed)
      : nodes_(graph),
        rng_(seed),
        popular_(kTrendingRotation, seed + 1),
        trending_draw_(kTrendingRotation, seed + 2),
        k_draw_(kTrendingRotation, seed + 3),
        trending_pick_(kTrendingPicks, seed + 4) {}

  Query Next() {
    if (issued_++ % kTrendingRotation == 0) {
      trending_.clear();
      for (std::size_t i = 0; i < kTrendingSetSize; ++i) {
        trending_.push_back(nodes_.At(trending_pick_.Next()));
      }
    }
    const NodeId source = trending_draw_.Next() < 0.25
                              ? trending_[rng_.NextBounded(kTrendingSetSize)]
                              : nodes_.At(popular_.Next());
    const std::size_t k = k_draw_.Next() < 0.25 ? 1 : 10;
    return Query::Single(source, k);
  }

 private:
  WeightedNodes nodes_;
  kdash::Rng rng_;
  StratifiedUniform popular_;
  StratifiedUniform trending_draw_;
  StratifiedUniform k_draw_;
  StratifiedUniform trending_pick_;
  std::vector<NodeId> trending_;
  std::uint64_t issued_ = 0;
};

bool HasEdge(const Graph& graph, NodeId src, NodeId dst) {
  const auto out = graph.OutNeighbors(src);
  return std::binary_search(
      out.begin(), out.end(), kdash::graph::Neighbor{dst, 0.0},
      [](const auto& a, const auto& b) { return a.node < b.node; });
}

void FinishStream(Stream* stream) {
  std::uint64_t writes = 0;
  stream->write_ordinal.clear();
  for (const Op& op : stream->ops) {
    stream->write_ordinal.push_back(writes);
    if (op.is_write()) ++writes;
  }
  stream->writes_per_cycle = writes;
}

Op ReadOp(Query query) {
  Op op;
  op.query = std::move(query);
  return op;
}

}  // namespace

Stream UniformStream(const Graph& graph, std::uint64_t seed) {
  std::vector<NodeId> sources;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    if (graph.OutDegree(u) > 0) sources.push_back(u);
  }
  KDASH_CHECK(!sources.empty());
  kdash::Rng rng(seed);
  std::vector<NodeId> singles = sources;
  rng.Shuffle(singles);
  // Group members come from shuffled passes over the sources too, so every
  // node is in about as many groups as any other.
  std::vector<NodeId> members;
  std::size_t member = 0;
  const auto next_member = [&] {
    if (member == members.size()) {
      members = sources;
      rng.Shuffle(members);
      member = 0;
    }
    return members[member++];
  };
  constexpr std::size_t kKs[] = {5, 25, 50};
  Stream stream;
  std::size_t groups = 0;
  for (std::size_t i = 0, next = 0; next < singles.size(); ++i) {
    if (i % 5 == 4) {
      // Group sizes cycle 2..8 and k cycles over the groups.
      std::vector<NodeId> group(2 + groups % 7);
      for (NodeId& s : group) s = next_member();
      stream.ops.push_back(ReadOp(Query::Personalized(std::move(group), kKs[groups++ % 3])));
    } else {
      // A node's k is fixed by its id, so the seed only orders the reads.
      const NodeId source = singles[next++];
      stream.ops.push_back(
          ReadOp(Query::Single(source, kKs[static_cast<std::size_t>(source) % 3])));
    }
  }
  FinishStream(&stream);
  return stream;
}

Stream UpdateStream(const Graph& graph, std::uint64_t seed,
                    std::size_t length) {
  constexpr std::size_t kWriteEvery = 20;
  constexpr std::size_t kLiveEdges = 8;  // an added edge lives ~8 writes
  HeadHeavyReads reads(graph, seed);
  kdash::Rng rng(seed ^ 0x5eedULL);
  std::vector<std::pair<NodeId, NodeId>> live;  // FIFO of added edges
  std::set<std::pair<NodeId, NodeId>> live_set;
  Stream stream;
  const auto add_write = [&](bool remove) {
    Op op;
    if (remove) {
      op.kind = Op::Kind::kRemoveEdge;
      std::tie(op.src, op.dst) = live.front();
      live_set.erase(live.front());
      live.erase(live.begin());
    } else {
      op.kind = Op::Kind::kAddEdge;
      do {
        op.src = static_cast<NodeId>(rng.NextBounded(
            static_cast<std::uint64_t>(graph.num_nodes())));
        op.dst = static_cast<NodeId>(rng.NextBounded(
            static_cast<std::uint64_t>(graph.num_nodes())));
      } while (op.src == op.dst || HasEdge(graph, op.src, op.dst) ||
               live_set.count({op.src, op.dst}) > 0);
      live.emplace_back(op.src, op.dst);
      live_set.insert({op.src, op.dst});
    }
    stream.ops.push_back(op);
  };
  for (std::size_t i = 0; i < length || !live.empty(); ++i) {
    if (i % kWriteEvery != kWriteEvery - 1) {
      stream.ops.push_back(ReadOp(reads.Next()));
    } else {
      // Past `length`, only removals: the cycle ends on the base graph.
      add_write(i >= length || live.size() >= kLiveEdges);
    }
  }
  FinishStream(&stream);
  return stream;
}

Graph MutatedGraph(const Graph& base, const Stream& stream,
                   std::uint64_t writes_done) {
  std::set<std::pair<NodeId, NodeId>> live;
  std::uint64_t remaining =
      stream.writes_per_cycle == 0 ? 0 : writes_done % stream.writes_per_cycle;
  for (const Op& op : stream.ops) {
    if (remaining == 0) break;
    if (!op.is_write()) continue;
    --remaining;
    if (op.kind == Op::Kind::kAddEdge) {
      live.insert({op.src, op.dst});
    } else {
      live.erase({op.src, op.dst});
    }
  }
  kdash::graph::GraphBuilder builder(base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    for (const auto& nb : base.OutNeighbors(u)) builder.AddEdge(u, nb.node, nb.weight);
  }
  for (const auto& [src, dst] : live) builder.AddEdge(src, dst, 1.0);
  return std::move(builder).Build();
}

StreamProperties MeasureStream(const Stream& stream, std::uint64_t issued) {
  StreamProperties props;
  std::set<std::pair<std::vector<NodeId>, std::size_t>> seen;
  for (std::uint64_t i = 0; i < issued; ++i) {
    const Op& op = stream.ops[i % stream.ops.size()];
    ++props.ops;
    if (op.is_write()) {
      ++props.writes;
      continue;
    }
    ++props.reads;
    ++props.k_counts[op.query.k];
    if (op.query.sources.size() > 1) ++props.personalized;
    if (!seen.insert({op.query.sources, op.query.k}).second) ++props.repeats;
  }
  return props;
}

// ---- statistics and output -------------------------------------------------------

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
      out += buffer;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ---- registry deltas ---------------------------------------------------------------

namespace {
constexpr const char* kCounters[] = {
    "cache.hit",         "cache.miss",         "cache.invalidated",
    "scheduler.submitted", "scheduler.coalesced", "scheduler.batches_dispatched",
    "router.hedges",     "serving.remote.requests", "serving.shards_skipped",
};
constexpr const char* kHistograms[] = {
    "scheduler.batch_size", "scheduler.batch_wait_us", "serving.merge_us",
    "router.remote_us",
};
}  // namespace

RegistryDelta::RegistryDelta() {
  auto& registry = kdash::obs::MetricRegistry::Global();
  for (const char* name : kCounters) counters_[name] = registry.GetCounter(name).Value();
  for (const char* name : kHistograms) {
    const auto& h = registry.GetHistogram(name);
    histograms_[name] = {h.Count(), h.Sum()};
  }
}

std::uint64_t RegistryDelta::Counter(const std::string& name) const {
  const auto it = counters_.find(name);
  KDASH_CHECK(it != counters_.end()) << name;
  return kdash::obs::MetricRegistry::Global().GetCounter(name).Value() - it->second;
}

double RegistryDelta::HistogramMean(const std::string& name) const {
  const auto it = histograms_.find(name);
  KDASH_CHECK(it != histograms_.end()) << name;
  const auto& histogram = kdash::obs::MetricRegistry::Global().GetHistogram(name);
  const std::uint64_t count = histogram.Count() - it->second.first;
  if (count == 0) return 0.0;
  return static_cast<double>(histogram.Sum() - it->second.second) /
         static_cast<double>(count);
}

// ---- spans ------------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

void SpanRecorder::AddRequest(std::vector<SpanRecord> spans) {
  kdash::MutexLock lock(mutex_);
  requests_.push_back(std::move(spans));
}

double SpanRecorder::NowUs() const { return ToUs(Clock::now()); }

double SpanRecorder::ToUs(Clock::time_point t) const {
  return MicrosBetween(epoch_, t);
}

std::uint64_t SpanRecorder::requests() const {
  kdash::MutexLock lock(mutex_);
  return requests_.size();
}

std::map<std::string, double> SpanRecorder::SelfTimeUs() const {
  kdash::MutexLock lock(mutex_);
  std::map<std::string, double> self;
  for (const auto& spans : requests_) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      std::vector<std::pair<double, double>> children;
      for (const SpanRecord& child : spans) {
        if (child.parent != static_cast<int>(i)) continue;
        const double lo = std::max(child.start_us, span.start_us);
        const double hi = std::min(child.end_us, span.end_us);
        if (hi > lo) children.emplace_back(lo, hi);
      }
      std::sort(children.begin(), children.end());
      double covered = 0.0;
      double reach = span.start_us;
      for (const auto& [lo, hi] : children) {
        const double from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      self[span.name] += std::max(0.0, span.end_us - span.start_us - covered);
    }
  }
  return self;
}

kdash::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return kdash::Status::Internal("cannot write " + path);
  kdash::MutexLock lock(mutex_);
  for (const auto& spans : requests_) {
    for (const SpanRecord& span : spans) {
      out << "{\"id\":" << span.request << ",\"name\":" << JsonString(span.name)
          << ",\"start_us\":" << JsonNumber(span.start_us)
          << ",\"end_us\":" << JsonNumber(span.end_us)
          << ",\"parent\":" << span.parent << "}\n";
    }
  }
  out.flush();
  return out.good() ? kdash::Status::Ok()
                    : kdash::Status::Internal("short write to " + path);
}

namespace {

// Program spans carry no parent; nest each inside the shortest attached
// span that contains it, else under `parent`.
void NestProgramSpans(std::vector<kdash::obs::Span> program, double ctx_start_us,
                      int parent, std::uint64_t request,
                      std::vector<SpanRecord>* spans) {
  std::sort(program.begin(), program.end(), [](const auto& a, const auto& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.duration_us > b.duration_us;
  });
  std::vector<int> open;  // attached spans that may still contain later ones
  for (const auto& span : program) {
    SpanRecord record;
    record.request = request;
    record.name = "program." + span.stage;
    record.start_us = ctx_start_us + static_cast<double>(span.start_us);
    record.end_us = record.start_us + static_cast<double>(span.duration_us);
    while (!open.empty() &&
           (*spans)[static_cast<std::size_t>(open.back())].end_us < record.end_us) {
      open.pop_back();
    }
    record.parent = open.empty() ? parent : open.back();
    spans->push_back(record);
    open.push_back(static_cast<int>(spans->size()) - 1);
  }
}

}  // namespace

void AttachProgramSpans(const kdash::obs::TraceContext& ctx,
                        double ctx_start_us, int parent, std::uint64_t request,
                        std::vector<SpanRecord>* spans) {
  NestProgramSpans(ctx.spans(), ctx_start_us, parent, request, spans);
}

// ---- correctness ------------------------------------------------------------

void CheckTally::Fail(const std::string& what) {
  wrong.fetch_add(1);
  kdash::MutexLock lock(mutex);
  if (first_error.empty()) first_error = what;
}

bool MatchesGroundTruth(const kdash::sparse::CscMatrix& a, double restart_prob,
                        const Query& query, const SearchResult& answer,
                        double tol, std::string* why) {
  const auto n = static_cast<std::size_t>(a.cols());
  std::vector<kdash::Scalar> restart(n, 0.0);
  for (const NodeId s : query.sources) {
    restart[static_cast<std::size_t>(s)] +=
        1.0 / static_cast<double>(query.sources.size());
  }
  kdash::rwr::PowerIterationOptions options;
  options.restart_prob = restart_prob;
  const auto truth = kdash::rwr::SolveRwrVector(a, restart, options);
  if (!truth.converged) {
    *why = "power iteration did not converge";
    return false;
  }
  std::vector<double> sorted(truth.proximity.begin(), truth.proximity.end());
  const std::size_t k = std::min(query.k, n);
  std::partial_sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(k),
                    sorted.end(), std::greater<>());
  std::size_t positive = 0;
  for (std::size_t i = 0; i < k; ++i) positive += sorted[i] > tol ? 1 : 0;
  if (answer.top.size() < positive || answer.top.size() > k) {
    *why = "returned " + std::to_string(answer.top.size()) + " nodes, want " +
           std::to_string(positive) + ".." + std::to_string(k);
    return false;
  }
  for (std::size_t i = 0; i < answer.top.size(); ++i) {
    const auto& entry = answer.top[i];
    const double true_score = truth.proximity[static_cast<std::size_t>(entry.node)];
    if (std::abs(entry.score - sorted[i]) > tol ||
        std::abs(entry.score - true_score) > tol) {
      std::ostringstream message;
      message << "rank " << i << " node " << entry.node << " score "
              << entry.score << " vs truth " << true_score << " (rank score "
              << sorted[i] << ")";
      *why = message.str();
      return false;
    }
  }
  return true;
}

bool BitIdentical(const SearchResult& a, const SearchResult& b,
                  std::string* why) {
  if (a.top.size() != b.top.size()) {
    *why = "size " + std::to_string(a.top.size()) + " vs " +
           std::to_string(b.top.size());
    return false;
  }
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    if (a.top[i].node != b.top[i].node || a.top[i].score != b.top[i].score) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer), "rank %zu: (%d, %a) vs (%d, %a)", i,
                    a.top[i].node, a.top[i].score, b.top[i].node, b.top[i].score);
      *why = buffer;
      return false;
    }
  }
  return true;
}

bool SameWithin(const SearchResult& a, const SearchResult& b, double tol,
                std::string* why) {
  if (a.top.size() != b.top.size()) {
    *why = "size " + std::to_string(a.top.size()) + " vs " +
           std::to_string(b.top.size());
    return false;
  }
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    if (std::abs(a.top[i].score - b.top[i].score) > tol) {
      std::ostringstream message;
      message << "rank " << i << ": score " << a.top[i].score << " vs "
              << b.top[i].score;
      *why = message.str();
      return false;
    }
    if (a.top[i].node != b.top[i].node) {
      // Different nodes are fine only inside a tie.
      const bool tied = std::any_of(b.top.begin(), b.top.end(), [&](const auto& e) {
        return e.node == a.top[i].node;
      }) || std::abs(a.top[i].score - b.top.back().score) <= tol;
      if (!tied) {
        *why = "rank " + std::to_string(i) + ": node " +
               std::to_string(a.top[i].node) + " vs " +
               std::to_string(b.top[i].node);
        return false;
      }
    }
  }
  return true;
}

}  // namespace kbench
