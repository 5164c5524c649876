#include "common/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/parse_number.h"
#include "obs/metrics.h"

namespace kdash::fault {

namespace internal {
std::atomic<int> g_armed_sites{0};
}  // namespace internal

namespace {

// SplitMix64: a full-period mixer whose output is a pure function of its
// input, so the n-th draw of a site depends only on (seed, n).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Site {
  FaultSpec spec;
  std::atomic<std::uint64_t> evaluations{0};
  std::atomic<std::uint64_t> fires{0};
};

struct Registry {
  SharedMutex mutex;
  // shared_ptr so Evaluate can drop the registry lock before rolling the
  // draw — Disarm during a concurrent evaluation then just orphans the
  // site instead of racing its counters' lifetime.
  std::unordered_map<std::string, std::shared_ptr<Site>> sites
      KDASH_GUARDED_BY(mutex);
};

Registry& GetRegistry() {
  // kdash-lint: allow(naked-new) intentionally leaked so armed sites stay
  // valid for threads still running during static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

// Arm from KDASH_FAULTS once per process, before main touches any site.
// Lives here (not in a header) so every binary linking fault.cc gets env
// arming without an init call; the registry's function-local static makes
// the initialization order safe.
const bool g_env_armed = [] {
  const char* spec = std::getenv("KDASH_FAULTS");
  if (spec != nullptr && *spec != '\0') {
    const Status status = ArmFromSpec(spec);
    if (!status.ok()) {
      std::fprintf(stderr, "KDASH_FAULTS ignored: %s\n",
                   status.ToString().c_str());
    }
  }
  return true;
}();

// Parses one canonical code name ("DATA_LOSS") back to its enum value.
bool ParseCode(std::string_view name, StatusCode* code) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInvalidArgument,  StatusCode::kNotFound,
      StatusCode::kFailedPrecondition, StatusCode::kDataLoss,
      StatusCode::kUnimplemented,    StatusCode::kInternal,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
      StatusCode::kResourceExhausted,
  };
  for (const StatusCode candidate : kCodes) {
    if (name == StatusCodeName(candidate)) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

namespace internal {

Status Evaluate(std::string_view site) {
  Registry& registry = GetRegistry();
  std::shared_ptr<Site> entry;
  {
    ReaderMutexLock lock(registry.mutex);
    const auto it = registry.sites.find(std::string(site));
    if (it == registry.sites.end()) return Status::Ok();
    entry = it->second;
  }

  const std::uint64_t n =
      entry->evaluations.fetch_add(1, std::memory_order_relaxed);
  const FaultSpec& spec = entry->spec;

  bool fire;
  if (!spec.fire_on_hits.empty()) {
    fire = std::binary_search(spec.fire_on_hits.begin(),
                              spec.fire_on_hits.end(), n);
  } else {
    // hash(seed, n) → uniform in [0, 1); 53 mantissa bits keep the compare
    // exact for any representable probability.
    const double draw =
        static_cast<double>(Mix64(spec.seed ^ Mix64(n)) >> 11) * 0x1.0p-53;
    fire = draw < spec.probability;
  }
  if (!fire) return Status::Ok();

  // max_fires: claim a fire slot atomically so concurrent evaluations
  // never overshoot the budget.
  std::uint64_t fired = entry->fires.load(std::memory_order_relaxed);
  for (;;) {
    if (fired >= spec.max_fires) return Status::Ok();
    if (entry->fires.compare_exchange_weak(fired, fired + 1,
                                           std::memory_order_relaxed)) {
      break;
    }
  }
  // Export the fire through the metric registry too: per-site SiteStats die
  // with Disarm, but a chaos run's post-mortem reads the process-cumulative
  // "fault.fired.<site>" counters out of the same stats snapshot as every
  // other metric. Fires are rare and already paid for a registry lookup's
  // worth of work, so resolving by name here is fine.
  obs::MetricRegistry::Global()
      .GetCounter("fault.fired." + std::string(site))
      .Add();
  return Status(spec.code, "injected fault at '" + std::string(site) +
                               "' (hit #" + std::to_string(n) + ")");
}

}  // namespace internal

void Arm(std::string_view site, FaultSpec spec) {
  KDASH_CHECK(!site.empty()) << "fault site name must be non-empty";
  KDASH_CHECK(spec.code != StatusCode::kOk)
      << "cannot inject an OK Status at '" << std::string(site) << "'";
  spec.probability = std::clamp(spec.probability, 0.0, 1.0);
  std::sort(spec.fire_on_hits.begin(), spec.fire_on_hits.end());

  auto entry = std::make_shared<Site>();
  entry->spec = std::move(spec);

  Registry& registry = GetRegistry();
  WriterMutexLock lock(registry.mutex);
  auto [it, inserted] =
      registry.sites.insert_or_assign(std::string(site), std::move(entry));
  (void)it;
  if (inserted) {
    internal::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
  }
}

void Disarm(std::string_view site) {
  Registry& registry = GetRegistry();
  WriterMutexLock lock(registry.mutex);
  if (registry.sites.erase(std::string(site)) > 0) {
    internal::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  WriterMutexLock lock(registry.mutex);
  internal::g_armed_sites.fetch_sub(static_cast<int>(registry.sites.size()),
                                    std::memory_order_relaxed);
  registry.sites.clear();
}

Status ArmFromSpec(std::string_view spec) {
  // Parse every entry before arming any, so a bad spec arms nothing.
  std::vector<std::pair<std::string, FaultSpec>> parsed;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', begin), spec.size());
    const std::string_view entry = spec.substr(begin, comma - begin);
    begin = comma + 1;
    if (entry.empty()) continue;

    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("bad KDASH_FAULTS entry \"" +
                                     std::string(entry) + "\": " + why);
    };
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return fail("expected site=probability[@seed][:CODE][#max_fires]");
    }
    std::string site(entry.substr(0, eq));
    std::string_view rest = entry.substr(eq + 1);

    // Split off the optional suffixes right-to-left: #max_fires, :CODE,
    // @seed — each delimiter appears at most once and in this order.
    FaultSpec fault;
    const auto take_suffix = [&rest](char delim) -> std::string_view {
      const std::size_t at = rest.find(delim);
      if (at == std::string_view::npos) return {};
      std::string_view suffix = rest.substr(at + 1);
      rest = rest.substr(0, at);
      return suffix;
    };
    const std::string_view max_text = take_suffix('#');
    const std::string_view code_text = take_suffix(':');
    const std::string_view seed_text = take_suffix('@');

    if (rest.empty()) return fail("missing probability");
    if (!ParseNumber(rest, &fault.probability, 0.0, 1.0)) {
      return fail("probability must be a number in [0, 1]");
    }
    if (!seed_text.empty() && !ParseNumber(seed_text, &fault.seed)) {
      return fail("seed must be a non-negative integer");
    }
    if (!code_text.empty() && !ParseCode(code_text, &fault.code)) {
      return fail("unknown status code \"" + std::string(code_text) + "\"");
    }
    if (!max_text.empty() && !ParseNumber(max_text, &fault.max_fires)) {
      return fail("max_fires must be a non-negative integer");
    }
    parsed.emplace_back(std::move(site), std::move(fault));
  }
  for (auto& [site, fault] : parsed) Arm(site, std::move(fault));
  return Status::Ok();
}

SiteStats GetStats(std::string_view site) {
  Registry& registry = GetRegistry();
  ReaderMutexLock lock(registry.mutex);
  const auto it = registry.sites.find(std::string(site));
  if (it == registry.sites.end()) return {};
  SiteStats stats;
  stats.evaluations = it->second->evaluations.load(std::memory_order_relaxed);
  stats.fires = it->second->fires.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::string> ArmedSites() {
  Registry& registry = GetRegistry();
  ReaderMutexLock lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.sites.size());
  for (const auto& [name, site] : registry.sites) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace kdash::fault
