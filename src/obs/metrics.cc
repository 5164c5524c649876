#include "obs/metrics.h"

#include <array>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace kdash::obs {

namespace {

// Round-robin stripe assignment: each thread grabs the next slot on first
// use and keeps it for life. Cheaper and better-distributed than hashing
// std::this_thread::get_id(), and shared across every striped metric so a
// thread's writes cluster on the same cache lines process-wide.
std::size_t AssignStripe(std::size_t stripe_count) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t assigned =
      next.fetch_add(1, std::memory_order_relaxed);
  return assigned & (stripe_count - 1);
}

void AppendUint(std::string* out, std::uint64_t v) {
  out->append(std::to_string(v));
}

}  // namespace

std::size_t Counter::StripeIndex() { return AssignStripe(kStripes); }
std::size_t Histogram::StripeIndex() { return AssignStripe(kSumStripes); }

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::Sum() const {
  std::uint64_t total = 0;
  for (const Stripe& stripe : sum_stripes_) {
    total += stripe.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::Quantile(double q) const {
  std::array<std::uint64_t, kNumBuckets> counts;
  std::uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(i)];
  }
  if (total == 0) return 0;
  // 1-based rank of the requested sample in bucket order; q = 0.5 over an
  // even count picks the lower median — a fixed, documented choice, not a
  // coin flip.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[static_cast<std::size_t>(i)];
    if (cumulative >= rank) return BucketLowerBound(i);
  }
  return BucketLowerBound(kNumBuckets - 1);  // unreachable
}

void Histogram::AppendJsonFields(std::string* out) const {
  // One coherent pass over the buckets feeds count, quantiles, and the
  // bucket list alike, so a snapshot never contradicts itself (e.g. a p99
  // rank beyond its own count). Sum and max are read separately and may
  // trail the buckets by in-flight samples — documented, and irrelevant
  // once writers quiesce.
  std::array<std::uint64_t, kNumBuckets> counts;
  std::uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(i)];
  }
  const auto quantile = [&](double q) -> std::uint64_t {
    if (total == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      cumulative += counts[static_cast<std::size_t>(i)];
      if (cumulative >= rank) return BucketLowerBound(i);
    }
    return BucketLowerBound(kNumBuckets - 1);
  };
  out->append("\"count\":");
  AppendUint(out, total);
  out->append(",\"sum\":");
  AppendUint(out, Sum());
  out->append(",\"max\":");
  AppendUint(out, Max());
  out->append(",\"p50\":");
  AppendUint(out, quantile(0.50));
  out->append(",\"p90\":");
  AppendUint(out, quantile(0.90));
  out->append(",\"p99\":");
  AppendUint(out, quantile(0.99));
  out->append(",\"buckets\":[");
  bool first = true;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (counts[static_cast<std::size_t>(i)] == 0) continue;
    if (!first) out->append(",");
    first = false;
    out->append("[");
    AppendUint(out, static_cast<std::uint64_t>(i));
    out->append(",");
    AppendUint(out, counts[static_cast<std::size_t>(i)]);
    out->append("]");
  }
  out->append("]");
}

MetricRegistry& MetricRegistry::Global() {
  // Intentionally leaked: serving threads (scheduler, stats dumper) may
  // still record metrics while static destructors run.
  // kdash-lint: allow(naked-new) leaked singleton avoids static-destruction
  // order hazards, same pattern as the fault registry
  static MetricRegistry* const global = new MetricRegistry();
  return *global;
}

Counter& MetricRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.counter = std::make_unique<Counter>();
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  KDASH_CHECK(it->second.counter != nullptr)
      << "metric '" << std::string(name)
      << "' is already registered with a different type";
  return *it->second.counter;
}

Gauge& MetricRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.gauge = std::make_unique<Gauge>();
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  KDASH_CHECK(it->second.gauge != nullptr)
      << "metric '" << std::string(name)
      << "' is already registered with a different type";
  return *it->second.gauge;
}

Histogram& MetricRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.histogram = std::make_unique<Histogram>();
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  KDASH_CHECK(it->second.histogram != nullptr)
      << "metric '" << std::string(name)
      << "' is already registered with a different type";
  return *it->second.histogram;
}

std::string MetricRegistry::MetricsArrayJson() const {
  std::string out = "[";
  MutexLock lock(mutex_);
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out.append(",");
    first = false;
    out.append("{\"name\":\"").append(name).append("\",\"type\":\"");
    if (entry.counter != nullptr) {
      out.append("counter\",\"value\":");
      AppendUint(&out, entry.counter->Value());
    } else if (entry.gauge != nullptr) {
      out.append("gauge\",\"value\":");
      out.append(std::to_string(entry.gauge->Value()));
    } else {
      out.append("histogram\",");
      entry.histogram->AppendJsonFields(&out);
    }
    out.append("}");
  }
  out.append("]");
  return out;
}

std::string MetricRegistry::SnapshotToJson() const {
  return "{\"metrics\":" + MetricsArrayJson() + "}";
}

}  // namespace kdash::obs
