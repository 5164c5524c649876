// The workloads. Each stresses a different layer, and each bypasses the
// other's:
//   point_query    static Engine, closed loop of direct Engine::Search calls
//                  (core searcher and sparse kernels; bypasses serving).
//   update_mixed   updatable Engine behind a cached BatchScheduler with
//                  interleaved AddEdge/RemoveEdge (Woodbury path, purges).
// The sharded server stack (wire, LineServer, scheduler, cache, ShardedEngine
// fan-out and merge over loopback TCP) and the router tier (serving::Router
// over loopback workers) have no workload of their own: on a shared 4-vCPU
// VM their p50, p99 and throughput moved 1.5-3x between runs of the same
// code and inputs, beyond any usable bound. The traced run probes both on
// every workload (ProbeLayers).
#include "workloads.h"

#include <algorithm>
#include <optional>
#include <streambuf>
#include <thread>

#include "datasets/datasets.h"
#include "stacks.h"

namespace kbench {
namespace {

using kdash::Engine;
using kdash::datasets::DatasetId;

// Client threads. point_query runs one: with 4 closed-loop clients on the
// host's 4 vCPUs its figures measured the shared host's scheduler as much
// as the searcher.
constexpr int kPointClients = 1;
constexpr int kUpdateClients = 4;
// Every 64th answer of a pass is kept and checked after the pass.
constexpr std::uint64_t kCheckEvery = 64;
constexpr double kTolerance = 1e-9;

double Scale(const Settings& settings) { return settings.tiny ? 0.05 : 1.0; }
// update_mixed's stream is short enough that a run passes over the whole of
// it about five times: the cost of an op drifts by 30% along the stream
// (which sources are read, which nodes are written), and with a stream
// longer than a run the figures depended on where the run ended.
std::size_t StreamLength(const Settings& settings) {
  return settings.tiny ? 4096 : 8192;
}

struct Sample {
  std::uint64_t index = 0;  // op index in the (cyclic) stream
  SearchResult result;
};

class SampleStore {
 public:
  void Add(Sample sample) KDASH_EXCLUDES(mutex_) {
    kdash::MutexLock lock(mutex_);
    samples_.push_back(std::move(sample));
  }
  std::vector<Sample> Take() KDASH_EXCLUDES(mutex_) {
    kdash::MutexLock lock(mutex_);
    std::vector<Sample> out = std::move(samples_);
    samples_.clear();
    std::sort(out.begin(), out.end(),
              [](const Sample& a, const Sample& b) { return a.index < b.index; });
    return out;
  }

 private:
  kdash::Mutex mutex_;
  std::vector<Sample> samples_ KDASH_GUARDED_BY(mutex_);
};

// Spans of one request under construction; spans[0] is the root.
struct OpTrace {
  SpanRecorder* recorder = nullptr;
  std::uint64_t request = 0;
  bool program_trace = false;
  std::vector<SpanRecord> spans;

  int Child(const std::string& name, double start_us, double end_us,
            int parent = 0) {
    spans.push_back({request, name, start_us, end_us, parent});
    return static_cast<int>(spans.size()) - 1;
  }
};

// Runs one op; false when it failed or was refused.
using RunOp = std::function<bool(int client, std::uint64_t index, const Op& op,
                                 SearchResult* out, OpTrace* trace)>;

struct LoopOutcome {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  double seconds = 0.0;
};

// Every kCheckEvery-th op is sampled for checking; the sampled offsets shift
// by one with each pass over the stream, so replayed rounds check
// different queries.
bool Sampled(std::uint64_t i, std::size_t stream_size) {
  return (i % stream_size + i / stream_size) % kCheckEvery == 0;
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// Closed loop: `clients` threads each send their next op only after the
// previous one completed, taking ops from the shared stream cursor, until
// `end` or until the cursor reaches `stop`, whichever comes first.
LoopOutcome ClosedLoop(int clients, Clock::time_point end, std::uint64_t stop,
                       const Stream& stream, std::atomic<std::uint64_t>& cursor,
                       SpanRecorder* recorder, SampleStore* samples,
                       const RunOp& run_op) {
  std::vector<LoopOutcome> per_client(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopOutcome& out = per_client[static_cast<std::size_t>(c)];
      while (Clock::now() < end) {
        const std::uint64_t i = cursor.fetch_add(1);
        if (i >= stop) break;
        const Op& op = stream.ops[i % stream.ops.size()];
        SearchResult result;
        std::optional<OpTrace> trace;
        if (recorder != nullptr) {
          trace.emplace();
          trace->recorder = recorder;
          trace->request = i;
          trace->program_trace = i % kProgramTraceEvery == 0;
          trace->spans.push_back({i, op.is_write() ? "write" : "request", 0, 0, -1});
        }
        const auto t0 = Clock::now();
        const bool ok = run_op(c, i, op, &result, trace ? &*trace : nullptr);
        const auto t1 = Clock::now();
        ++out.ops;
        if (!ok) ++out.failed;
        (op.is_write() ? out.write_us : out.read_us).push_back(MicrosBetween(t0, t1));
        if (ok && !op.is_write() && samples != nullptr && Sampled(i, stream.ops.size())) {
          samples->Add({i, std::move(result)});
        }
        if (trace) {
          trace->spans[0].start_us = recorder->ToUs(t0);
          trace->spans[0].end_us = recorder->ToUs(t1);
          recorder->AddRequest(std::move(trace->spans));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (cursor.load() > stop) cursor.store(stop);
  LoopOutcome total;
  total.seconds = SecondsSince(start);
  for (LoopOutcome& out : per_client) {
    total.ops += out.ops;
    total.failed += out.failed;
    total.read_us.insert(total.read_us.end(), out.read_us.begin(), out.read_us.end());
    total.write_us.insert(total.write_us.end(), out.write_us.begin(), out.write_us.end());
  }
  return total;
}

// Byte count of whatever is written through it.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return ch == traits_type::eof() ? 0 : ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

double SavedIndexMb(const Engine& engine) {
  CountingBuf buf;
  std::ostream out(&buf);
  KDASH_CHECK(engine.Save(out).ok());
  return static_cast<double>(buf.bytes()) / (1024.0 * 1024.0);
}

void CorruptForSelfTest(SearchResult* result) {
  if (result->top.empty()) {
    result->top.push_back({0, 1.0});
  } else {
    result->top[0].score += 1e-3;
  }
}

void CheckGroundTruth(const kdash::sparse::CscMatrix& a, double restart_prob,
                      const Query& query, const SearchResult& answer,
                      CheckTally* tally) {
  tally->checked.fetch_add(1);
  std::string why;
  if (!MatchesGroundTruth(a, restart_prob, query, answer, kTolerance, &why)) {
    tally->Fail("ground truth: " + why);
  }
}

// Counts a loop's ops; its figures join the medians unless it warmed up.
void AddWindow(const LoopOutcome& loop, PassResult* pass, bool warm_up = false) {
  if (!warm_up) {
    pass->qps.push_back(static_cast<double>(loop.ops) / loop.seconds);
    pass->read_us.push_back(loop.read_us);
  }
  pass->write_us.insert(pass->write_us.end(), loop.write_us.begin(), loop.write_us.end());
  pass->attempted += loop.ops;
  pass->failed += loop.failed;
  pass->issued += loop.ops;
}

// Closed-loop rounds: every round replays the whole of `stream` (round-ops
// long) with `clients` threads, and rounds repeat until `seconds` have
// passed. Every round runs the same queries, so rounds differ only by how
// fast the host ran, and the per-round medians PassResult takes are not
// moved by which queries a stretch of time happened to draw. Rounds that
// start within the first kWarmUpShare of the time warm up and are left out
// of the medians; their answers are checked.
void Rounds(int clients, double seconds, const Stream& stream,
            std::atomic<std::uint64_t>& cursor, SpanRecorder* recorder,
            SampleStore* samples, const RunOp& run_op, PassResult* pass) {
  const std::uint64_t n = stream.ops.size();
  const auto start = Clock::now();
  int measured = 0;
  while (measured < kMinRounds || SecondsSince(start) < seconds) {
    const bool warm_up = measured == 0 && SecondsSince(start) < seconds * kWarmUpShare;
    const std::uint64_t base = (cursor.load() + n - 1) / n * n;
    cursor.store(base);
    AddWindow(ClosedLoop(clients, Clock::time_point::max(), base + n, stream, cursor,
                         recorder, samples, run_op),
              pass, warm_up);
    if (!warm_up) ++measured;
  }
}

double PerOp(double cpu_seconds, std::uint64_t ops) {
  return ops == 0 ? 0.0 : cpu_seconds * 1e6 / static_cast<double>(ops);
}

// ---- point_query --------------------------------------------------------------

class PointQuery : public Workload {
 public:
  explicit PointQuery(const Settings& settings) : settings_(settings) {}
  std::string name() const override { return "point_query"; }

  kdash::Status Setup() override {
    engine_.reset();
    data_.reset();
    data_.emplace(kdash::datasets::MakeDataset(DatasetId::kSocial, Scale(settings_)));
    KDASH_ASSIGN_OR_RETURN(Engine engine, Engine::Build(data_->graph));
    engine_.emplace(std::move(engine));
    return kdash::Status::Ok();
  }

  kdash::Status Prepare() override {
    stream_ = UniformStream(data_->graph, settings_.seed);
    return kdash::Status::Ok();
  }

  PassResult Run(double seconds, SpanRecorder* recorder) override {
    const double cpu0 = CpuSeconds();
    PassResult pass;
    Rounds(kPointClients, seconds, stream_, cursor_, recorder, &samples_, SearchOp(recorder),
           &pass);
    pass.cpu_us_per_op = PerOp(CpuSeconds() - cpu0, pass.attempted);
    return pass;
  }

  void Verify(CheckTally* tally) override {
    const auto a = data_->graph.NormalizedAdjacency();
    std::vector<Sample> samples = samples_.Take();
    // Spread the ground-truth checks over the whole pass.
    const std::size_t stride = std::max<std::size_t>(1, samples.size() / 256);
    bool corrupted = false;
    for (std::size_t i = 0; i < samples.size(); i += stride) {
      if (settings_.corrupt && !corrupted) {
        CorruptForSelfTest(&samples[i].result);
        corrupted = true;
      }
      const Query& query = stream_.ops[samples[i].index % stream_.ops.size()].query;
      CheckGroundTruth(a, engine_->restart_prob(), query, samples[i].result, tally);
    }
  }

  double IndexMb() override { return SavedIndexMb(*engine_); }
  const kdash::graph::Graph& graph() const override { return data_->graph; }
  const Stream& stream() const override { return stream_; }
  const Engine* static_engine() const override { return &*engine_; }

 private:
  RunOp SearchOp(SpanRecorder* recorder) {
    return [this, recorder](int, std::uint64_t, const Op& op, SearchResult* out,
                            OpTrace* trace) {
      if (trace == nullptr) {
        auto result = engine_->Search(op.query);
        if (!result.ok()) return false;
        *out = std::move(*result);
        return true;
      }
      Query query = op.query;
      if (trace->program_trace) {
        query.trace = std::make_shared<kdash::obs::TraceContext>();
      }
      const double start = recorder->NowUs();
      auto result = engine_->Search(query);
      const int span = trace->Child("engine.search", start, recorder->NowUs());
      if (query.trace != nullptr) {
        AttachProgramSpans(*query.trace, start, span, trace->request, &trace->spans);
      }
      if (!result.ok()) return false;
      *out = std::move(*result);
      return true;
    };
  }

  Settings settings_;
  std::optional<kdash::datasets::Dataset> data_;
  std::optional<Engine> engine_;
  Stream stream_;
  std::atomic<std::uint64_t> cursor_{0};
  SampleStore samples_;
};

// ---- update_mixed -------------------------------------------------------------

class UpdateMixed : public Workload {
 public:
  explicit UpdateMixed(const Settings& settings) : settings_(settings) {}
  ~UpdateMixed() override { Teardown(); }
  std::string name() const override { return "update_mixed"; }

  kdash::Status Setup() override {
    Teardown();
    data_.emplace(kdash::datasets::MakeDataset(DatasetId::kEmail, Scale(settings_)));
    kdash::EngineOptions options;
    options.updatable = true;
    KDASH_ASSIGN_OR_RETURN(Engine engine, Engine::Build(data_->graph, options));
    engine_.emplace(std::move(engine));
    backend_ = std::make_unique<TimedBackend>(
        [&engine = *engine_](std::span<const Query> batch) {
          return engine.SearchBatch(batch);
        });
    kdash::serving::BatchSchedulerOptions scheduler_options = ServerSchedulerOptions();
    scheduler_options.backend_epoch = [&engine = *engine_] {
      return engine.update_epoch();
    };
    scheduler_ = std::make_unique<kdash::serving::BatchScheduler>(backend_->Wrap(),
                                                                  scheduler_options);
    {
      kdash::MutexLock lock(write_mutex_);
      writes_done_ = 0;
    }
    cursor_.store(0);
    return kdash::Status::Ok();
  }

  kdash::Status Prepare() override {
    stream_ = UpdateStream(data_->graph, settings_.seed, StreamLength(settings_));
    return kdash::Status::Ok();
  }

  // A checkpoint after each window: the clients stop, and a
  // sample of reads through the scheduler is compared with a fresh build of
  // the mutated graph. Checkpoints are not timed.
  PassResult Run(double seconds, SpanRecorder* recorder) override {
    const RegistryDelta delta;
    backend_->Reset();
    backend_->set_recorder(recorder);
    write_ns_.store(0);
    PassResult pass;
    double cpu = 0.0;
    for (int window = 0; window < kWindows; ++window) {
      const double cpu0 = CpuSeconds();
      const LoopOutcome loop = ClosedLoop(
          kUpdateClients, After(seconds / kWindows), UINT64_MAX, stream_, cursor_, recorder, nullptr,
          [&](int, std::uint64_t i, const Op& op, SearchResult* out, OpTrace* trace) {
            return op.is_write() ? Write(i, op, trace) : Read(op, out, trace);
          });
      cpu += CpuSeconds() - cpu0;
      AddWindow(loop, &pass);
      Checkpoint();
    }
    pass.cpu_us_per_op = PerOp(cpu, pass.attempted);
    backend_->set_recorder(nullptr);
    MetricMap& m = pass.layers;
    AddSchedulerMetrics(delta, *backend_, &m);
    const double writes = static_cast<double>(pass.write_us.size());
    m["dynamic.write_us"] = {
        writes > 0 ? static_cast<double>(write_ns_.load()) * 1e-3 / writes : 0.0, "us"};
    m["dynamic.read_us"] = {
        backend_->queries() > 0
            ? backend_->busy_us() / static_cast<double>(backend_->queries())
            : 0.0,
        "us"};
    std::vector<double> write_us = pass.write_us;
    m["write_p50_us"] = {Percentile(write_us, 0.50), "us"};
    m["write_p99_us"] = {Percentile(write_us, 0.99), "us"};
    pass.notes["checkpoints"] = std::to_string(kWindows);
    return pass;
  }

  void Verify(CheckTally* tally) override {
    tally->checked.fetch_add(checkpoints_.checked.load());
    const std::uint64_t wrong = checkpoints_.wrong.load();
    if (wrong > 0) {
      std::string first;
      {
        kdash::MutexLock lock(checkpoints_.mutex);
        first = checkpoints_.first_error;
      }
      tally->Fail(first);
      tally->wrong.fetch_add(wrong - 1);
    }
  }

  double IndexMb() override {
    // Updatable engines cannot be saved: report the static index over the
    // same base graph, which is what a rebuild would serve.
    auto engine = Engine::Build(data_->graph);
    KDASH_CHECK(engine.ok());
    return SavedIndexMb(*engine);
  }

  const kdash::graph::Graph& graph() const override { return data_->graph; }
  const Stream& stream() const override { return stream_; }
  const Engine* static_engine() const override { return nullptr; }

 private:
  void Teardown() {
    scheduler_.reset();
    backend_.reset();
    engine_.reset();
    data_.reset();
  }

  bool Read(const Op& op, SearchResult* out, OpTrace* trace) {
    const double t0 = trace != nullptr ? trace->recorder->NowUs() : 0.0;
    auto result = scheduler_->Submit(op.query).get();
    if (trace != nullptr) trace->Child("scheduler.submit", t0, trace->recorder->NowUs());
    if (!result.ok()) return false;
    *out = std::move(*result);
    return true;
  }

  // Writes apply in stream order: each waits for the previous one.
  bool Write(std::uint64_t index, const Op& op, OpTrace* trace) {
    const std::uint64_t ordinal =
        (index / stream_.ops.size()) * stream_.writes_per_cycle +
        stream_.write_ordinal[index % stream_.ops.size()];
    const double t0 = trace != nullptr ? trace->recorder->NowUs() : 0.0;
    {
      kdash::MutexLock lock(write_mutex_);
      while (writes_done_ != ordinal) write_turn_.Wait(write_mutex_);
    }
    const auto start = Clock::now();
    const kdash::Status status = op.kind == Op::Kind::kAddEdge
                                     ? engine_->AddEdge(op.src, op.dst, 1.0)
                                     : engine_->RemoveEdge(op.src, op.dst);
    const auto end = Clock::now();
    write_ns_.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
    if (trace != nullptr) {
      trace->Child("write.order_wait", t0, trace->recorder->ToUs(start));
      trace->Child(op.kind == Op::Kind::kAddEdge ? "engine.add_edge" : "engine.remove_edge",
                   trace->recorder->ToUs(start), trace->recorder->ToUs(end));
    }
    {
      kdash::MutexLock lock(write_mutex_);
      ++writes_done_;
    }
    write_turn_.NotifyAll();
    return status.ok();
  }

  void Checkpoint() {
    constexpr std::size_t kReadsPerCheckpoint = 16;
    std::uint64_t writes_done = 0;
    {
      kdash::MutexLock lock(write_mutex_);
      writes_done = writes_done_;
    }
    const kdash::graph::Graph mutated = MutatedGraph(data_->graph, stream_, writes_done);
    auto fresh = Engine::Build(mutated);
    KDASH_CHECK(fresh.ok());
    const auto a = mutated.NormalizedAdjacency();
    std::uint64_t i = cursor_.load();
    for (std::size_t checked = 0; checked < kReadsPerCheckpoint; ++i) {
      const Op& op = stream_.ops[i % stream_.ops.size()];
      if (op.is_write()) continue;
      ++checked;
      auto served = scheduler_->Submit(op.query).get();
      auto expected = fresh->Search(op.query);
      checkpoints_.checked.fetch_add(1);
      if (!served.ok() || !expected.ok()) {
        checkpoints_.Fail("checkpoint read failed");
        continue;
      }
      if (settings_.corrupt && checkpoints_.checked.load() == 1) {
        CorruptForSelfTest(&*served);
      }
      std::string why;
      if (!SameWithin(*served, *expected, kTolerance, &why)) {
        checkpoints_.Fail("differs from a fresh build of the mutated graph: " + why);
      }
      CheckGroundTruth(a, engine_->restart_prob(), op.query, *served, &checkpoints_);
    }
  }

  Settings settings_;
  std::optional<kdash::datasets::Dataset> data_;
  std::optional<Engine> engine_;
  std::unique_ptr<TimedBackend> backend_;
  std::unique_ptr<kdash::serving::BatchScheduler> scheduler_;
  Stream stream_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> write_ns_{0};
  kdash::Mutex write_mutex_;
  kdash::CondVar write_turn_;
  std::uint64_t writes_done_ KDASH_GUARDED_BY(write_mutex_) = 0;
  CheckTally checkpoints_;
};

}  // namespace

double PassResult::Qps() const {
  std::vector<double> values = qps;
  return Percentile(values, 0.5);
}

double PassResult::ReadPercentile(double q) const {
  std::vector<double> per_window;
  for (std::vector<double> window : read_us) {
    if (!window.empty()) per_window.push_back(Percentile(window, q));
  }
  return Percentile(per_window, 0.5);
}

void AddSchedulerMetrics(const RegistryDelta& delta, const TimedBackend& backend,
                         MetricMap* m) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double calls = static_cast<double>(backend.calls());
  (*m)["scheduler.batch_size"] = {ratio(static_cast<double>(backend.queries()), calls),
                                  "count"};
  (*m)["scheduler.backend_us"] = {ratio(backend.busy_us(), calls), "us"};
  (*m)["scheduler.queue_us"] = {delta.HistogramMean("scheduler.batch_wait_us"), "us"};
  (*m)["scheduler.coalesced_frac"] = {
      ratio(static_cast<double>(delta.Counter("scheduler.coalesced")),
            static_cast<double>(delta.Counter("scheduler.submitted"))),
      "frac"};
  const double hits = static_cast<double>(delta.Counter("cache.hit"));
  const double misses = static_cast<double>(delta.Counter("cache.miss"));
  (*m)["cache.hit_frac"] = {ratio(hits, hits + misses), "frac"};
  (*m)["cache.invalidated"] = {static_cast<double>(delta.Counter("cache.invalidated")),
                               "count"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Settings& settings) {
  if (name == "point_query") return std::make_unique<PointQuery>(settings);
  if (name == "update_mixed") return std::make_unique<UpdateMixed>(settings);
  return nullptr;
}

}  // namespace kbench
