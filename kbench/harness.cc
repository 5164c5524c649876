// K-dash benchmark harness: runs one workload from a seed, checks its
// answers, and prints one JSON result line (the last line of stdout).
//
//   kbench_harness --workload W --seed N --seconds S --trace 0|1
//                  [--work-dir D] [--git-sha SHA] [--tiny] [--corrupt]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same seed
// untraced and then traced (half the time each), probes every layer, and
// prints the per-layer metrics with the tracing overhead. A line before
// the result carries the run's attribution (git SHA, nproc, seed) and the
// measured workload properties. Exit code 0 unless an answer was wrong
// (1) or the harness itself failed (2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "tools/net_util.h"
#include "workloads.h"

namespace kbench {
namespace {

// Set-up is repeated and its median reported, so a slow first touch of the
// allocator or page cache does not decide the figure: at least
// kMinSetupReps times, and a set-up of a few ms (update_mixed's) until
// kMinSetupSeconds have passed, so its median spans more than one moment of
// the shared host.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 50;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  std::string workload;
  Settings settings;
  bool trace = false;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "kbench_harness: %s\nusage: kbench_harness --workload W --seed N "
               "--seconds S --trace 0|1 [--work-dir D] [--git-sha SHA] [--tiny] "
               "[--corrupt]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.settings.work_dir = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.settings.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.settings.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--work-dir") {
      args.settings.work_dir = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--tiny") {
      args.settings.tiny = true;
    } else if (flag == "--corrupt") {
      args.settings.corrupt = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed) Usage("--seed is required");
  if (!(args.settings.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::string NotesJson(const std::map<std::string, std::string>& notes) {
  std::string out;
  for (const auto& [key, value] : notes) out += ", " + JsonString(key) + ": " + value;
  return out;
}

// Workload properties of the ops actually issued, and the per-window
// figures the medians were taken over.
void DescribeRun(const Workload& workload, const PassResult& pass, std::uint64_t issued,
                 std::map<std::string, std::string>* notes) {
  const StreamProperties props = MeasureStream(workload.stream(), issued);
  const auto frac = [](std::uint64_t num, std::uint64_t den) {
    return JsonNumber(den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den));
  };
  (*notes)["nodes"] = std::to_string(workload.graph().num_nodes());
  (*notes)["edges"] = std::to_string(workload.graph().num_edges());
  (*notes)["ops_issued"] = std::to_string(props.ops);
  (*notes)["repeat_frac"] = frac(props.repeats, props.reads);
  (*notes)["personalized_frac"] = frac(props.personalized, props.reads);
  (*notes)["write_frac"] = frac(props.writes, props.ops);
  std::string k_mix = "{";
  for (const auto& [k, count] : props.k_counts) {
    if (k_mix.size() > 1) k_mix += ", ";
    k_mix += "\"" + std::to_string(k) + "\": " + frac(count, props.reads);
  }
  (*notes)["k_mix"] = k_mix + "}";
  std::string samples = "[";
  std::string beyond = "[";
  std::string p99s = "[";
  for (std::vector<double> window : pass.read_us) {
    const double p99 = Percentile(window, 0.99);
    p99s += (p99s.size() > 1 ? ", " : "") + JsonNumber(p99);
    samples += (samples.size() > 1 ? ", " : "") + std::to_string(window.size());
    beyond += (beyond.size() > 1 ? ", " : "") +
              std::to_string(std::count_if(window.begin(), window.end(),
                                           [&](double v) { return v > p99; }));
  }
  (*notes)["latency_samples_per_window"] = samples + "]";
  std::string window_qps = "[";
  for (const double qps : pass.qps) {
    window_qps += (window_qps.size() > 1 ? ", " : "") + JsonNumber(qps);
  }
  (*notes)["qps_per_window"] = window_qps + "]";
  (*notes)["p99_us_per_window"] = p99s + "]";
  (*notes)["latency_samples_beyond_p99_per_window"] = beyond + "]";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.settings);
  if (workload == nullptr) Usage("unknown workload '" + args.workload + "'");
  std::error_code ec;
  std::filesystem::create_directories(args.settings.work_dir, ec);
  kdash::tools::IgnoreSigpipe();

  const auto fail = [](const std::string& stage, const kdash::Status& status) {
    std::fprintf(stderr, "kbench_harness: %s failed: %s\n", stage.c_str(),
                 status.ToString().c_str());
    return 2;
  };

  // A traced run sets up once: it reports no set-up time.
  const int min_reps = args.trace ? 1 : kMinSetupReps;
  const double min_seconds = args.trace ? 0.0 : kMinSetupSeconds;
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  for (int rep = 0; rep < min_reps || (rep < kMaxSetupReps &&
                                       SecondsSince(setup_start) < min_seconds);
       ++rep) {
    const auto start = Clock::now();
    const kdash::Status status = workload->Setup();
    if (!status.ok()) return fail("setup", status);
    setup_s.push_back(SecondsSince(start));
  }
  if (const kdash::Status status = workload->Prepare(); !status.ok()) {
    return fail("prepare", status);
  }

  std::map<std::string, std::string> notes;
  MetricMap metrics;
  CheckTally tally;
  PassResult main_pass;
  std::uint64_t issued = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!args.trace) {
    main_pass = workload->Run(args.settings.seconds, nullptr);
    workload->Verify(&tally);
    issued = main_pass.issued;
    attempted = main_pass.attempted;
    failed = main_pass.failed;
    std::vector<double> setups = setup_s;  // Percentile sorts its input
    metrics["setup_s"] = {Percentile(setups, 0.5), "s"};
    metrics["qps"] = {main_pass.Qps(), "1/s"};
    metrics["p50_us"] = {main_pass.ReadPercentile(0.50), "us"};
    metrics["p99_us"] = {main_pass.ReadPercentile(0.99), "us"};
    metrics["index_mb"] = {workload->IndexMb(), "MB"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    const PassResult untraced = workload->Run(args.settings.seconds / 2, nullptr);
    SpanRecorder recorder;
    main_pass = workload->Run(args.settings.seconds / 2, &recorder);
    workload->Verify(&tally);
    issued = untraced.issued + main_pass.issued;
    attempted = untraced.attempted + main_pass.attempted;
    failed = untraced.failed + main_pass.failed;

    metrics = ProbeLayers(*workload, args.settings, &notes);
    for (const auto& [name, metric] : main_pass.layers) metrics[name] = metric;
    metrics["proc.cpu_us_per_op"] = {untraced.cpu_us_per_op, "us"};
    metrics["trace.overhead_qps"] = {main_pass.Qps() - untraced.Qps(), "1/s"};
    metrics["trace.overhead_p50_us"] = {
        main_pass.ReadPercentile(0.50) - untraced.ReadPercentile(0.50), "us"};
    metrics["trace.overhead_p99_us"] = {
        main_pass.ReadPercentile(0.99) - untraced.ReadPercentile(0.99), "us"};

    // Self time of each layer per request, from the benchmark's spans.
    const double requests = static_cast<double>(std::max<std::uint64_t>(1, main_pass.issued));
    std::string self = "{";
    for (const auto& [name, us] : recorder.SelfTimeUs()) {
      if (self.size() > 1) self += ", ";
      self += JsonString(name) + ": " + JsonNumber(us / requests);
    }
    notes["self_us_per_request"] = self + "}";
    // program.* spans ride on 1 request in kProgramTraceEvery; their self
    // times above are averaged over every request.
    notes["program_spans_every"] = std::to_string(kProgramTraceEvery);
    const std::string trace_path = args.settings.work_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.settings.seed) + ".jsonl";
    if (const kdash::Status status = recorder.WriteJsonLines(trace_path); !status.ok()) {
      return fail("writing spans", status);
    }
    notes["trace_file"] = JsonString(trace_path);
    notes["traced_requests"] = std::to_string(recorder.requests());
  }
  for (const auto& [key, value] : main_pass.notes) notes[key] = JsonString(value);
  DescribeRun(*workload, main_pass, issued, &notes);

  const std::uint64_t wrong = tally.wrong.load();
  failed += wrong;
  std::string first_error;
  {
    kdash::MutexLock lock(tally.mutex);
    first_error = tally.first_error;
  }
  std::string setup_each = "[";
  for (const double s : setup_s) setup_each += (setup_each.size() > 1 ? ", " : "") + JsonNumber(s);
  std::printf(
      "{\"record\": \"kbench_run\", \"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"git_sha\": %s, \"nproc\": %u, \"pool_threads\": %d, \"seconds\": %s, "
      "\"setup_s_each\": %s], \"checked\": %llu, \"wrong\": %llu, \"first_error\": %s, "
      "\"fail_frac\": %s%s}\n",
      JsonString(args.workload).c_str(), static_cast<unsigned long long>(args.settings.seed),
      args.trace ? 1 : 0, JsonString(args.git_sha).c_str(),
      std::thread::hardware_concurrency(), kdash::DefaultNumThreads(),
      JsonNumber(args.settings.seconds).c_str(), setup_each.c_str(),
      static_cast<unsigned long long>(tally.checked.load()),
      static_cast<unsigned long long>(wrong), JsonString(first_error).c_str(),
      JsonNumber(attempted == 0 ? 0.0
                                : static_cast<double>(failed) / static_cast<double>(attempted))
          .c_str(),
      NotesJson(notes).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              wrong == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kbench

int main(int argc, char** argv) { return kbench::Main(argc, argv); }
