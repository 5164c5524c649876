// Unit tests for src/obs/metrics.h: counter exactness under concurrency,
// histogram bucket layout, quantile semantics against a brute-force
// reference, merge exactness, and the determinism contract — the same
// multiset of samples produces a byte-identical registry snapshot no
// matter how many threads recorded it. The concurrent-snapshot tests also
// run under the TSan CI matrix, which is where the lock-cheap claims are
// actually proven.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace kdash::obs {
namespace {

TEST(CounterTest, AddsAndDefaults) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(HistogramTest, BucketIndexLowerBoundRoundTrip) {
  // Every value maps into a bucket whose [lower, next-lower) range
  // contains it, and lower bounds are strictly increasing with the index.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 0; v < 2048; ++v) samples.push_back(v);
  for (int e = 11; e < 64; ++e) {
    const std::uint64_t p = std::uint64_t{1} << e;
    samples.push_back(p - 1);
    samples.push_back(p);
    samples.push_back(p + p / 3);
  }
  samples.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : samples) {
    const int index = Histogram::BucketIndex(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(index), v) << "value " << v;
    if (index + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::BucketLowerBound(index + 1)) << "value " << v;
    }
  }
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketLowerBound(i - 1), Histogram::BucketLowerBound(i));
  }
}

// Reference quantile: lower bound of the bucket containing the 1-based
// rank-⌈q·n⌉ sample of the sorted multiset (the documented contract).
std::uint64_t ReferenceQuantile(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::uint64_t>(rank, 1, samples.size());
  const std::uint64_t sample = samples[rank - 1];
  return Histogram::BucketLowerBound(Histogram::BucketIndex(sample));
}

TEST(HistogramTest, QuantilesMatchBruteForceReference) {
  Histogram hist;
  std::vector<std::uint64_t> samples;
  std::uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = (state >> 33) % 100'000;  // 0..1e5 µs-ish
    samples.push_back(v);
    hist.Record(v);
  }
  EXPECT_EQ(hist.Count(), samples.size());
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hist.Quantile(q), ReferenceQuantile(samples, q)) << "q=" << q;
  }
  std::uint64_t sum = 0, max = 0;
  for (const std::uint64_t v : samples) {
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(hist.Sum(), sum);
  EXPECT_EQ(hist.Max(), max);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.Sum(), 0u);
  EXPECT_EQ(hist.Max(), 0u);
  EXPECT_EQ(hist.Quantile(0.99), 0u);
}

TEST(MetricRegistryTest, GetReturnsStableReferences) {
  MetricRegistry registry;
  Counter& c1 = registry.GetCounter("test.counter");
  Counter& c2 = registry.GetCounter("test.counter");
  EXPECT_EQ(&c1, &c2);
  c1.Add(3);
  EXPECT_EQ(c2.Value(), 3u);
  Histogram& h1 = registry.GetHistogram("test.hist");
  EXPECT_EQ(&h1, &registry.GetHistogram("test.hist"));
}

TEST(MetricRegistryTest, SnapshotIsSortedAndTyped) {
  MetricRegistry registry;
  registry.GetHistogram("zzz.hist").Record(5);
  registry.GetCounter("aaa.counter").Add(2);
  registry.GetGauge("mmm.gauge").Set(-4);
  const std::string json = registry.SnapshotToJson();
  const auto a = json.find("aaa.counter");
  const auto m = json.find("mmm.gauge");
  const auto z = json.find("zzz.hist");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  EXPECT_NE(json.find("\"type\":\"counter\",\"value\":2"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\",\"value\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":1"),
            std::string::npos);
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
}

// The determinism satellite: record one fixed multiset of samples into
// fresh local registries, partitioned across 1, 2, and 8 threads, and
// demand byte-identical snapshots — integer arithmetic commutes, so the
// thread count must be invisible.
TEST(MetricRegistryTest, SnapshotIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::uint64_t> samples;
  std::uint64_t state = 99;
  for (int i = 0; i < 9000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    samples.push_back((state >> 30) % 1'000'000);
  }

  const auto snapshot_with_threads = [&samples](int num_threads) {
    MetricRegistry registry;
    Histogram& hist = registry.GetHistogram("det.latency_us");
    Counter& counter = registry.GetCounter("det.requests");
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t);
             i < samples.size(); i += static_cast<std::size_t>(num_threads)) {
          hist.Record(samples[i]);
          counter.Add();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    return registry.SnapshotToJson();
  };

  const std::string one = snapshot_with_threads(1);
  EXPECT_EQ(one, snapshot_with_threads(2));
  EXPECT_EQ(one, snapshot_with_threads(8));
  EXPECT_NE(one.find("\"count\":9000"), std::string::npos);
}

// Snapshot-under-concurrent-writes: snapshots taken while writers hammer
// the registry are well-formed and the counter value only moves forward
// between successive reads. Run under TSan in CI, this is the proof that
// the relaxed-atomic hot path and the snapshot reader don't race.
TEST(MetricRegistryTest, SnapshotUnderConcurrentWritesIsCoherent) {
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("live.requests");
  Histogram& hist = registry.GetHistogram("live.latency_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add();
        hist.Record(v++ % 4096);
      }
    });
  }
  std::uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string json = registry.SnapshotToJson();
    EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
    EXPECT_EQ(json.back(), '}');
    const std::uint64_t count = counter.Value();
    EXPECT_GE(count, last_count);
    last_count = count;
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  // Quiesced: the histogram's bucket total equals the exact sample count.
  EXPECT_EQ(hist.Count(), counter.Value());
}

}  // namespace
}  // namespace kdash::obs
