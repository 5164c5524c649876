// Unit tests for the fault-injection framework itself: determinism,
// spec parsing, schedules, fire budgets, and thread safety. The chaos
// suites (chaos_test, sharded_failure_test, scheduler_stats_test) cover
// what the *injected* code does with the faults.
#include "common/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace kdash::fault {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { DisarmAll(); }
  void TearDown() override { DisarmAll(); }
};

TEST_F(FaultTest, DisarmedSiteIsOkAndFree) {
  EXPECT_FALSE(AnyArmed());
  EXPECT_TRUE(Check("nothing.armed").ok());
  // No counters exist for a site never armed.
  EXPECT_EQ(GetStats("nothing.armed").evaluations, 0u);
}

TEST_F(FaultTest, ArmedOtherSiteDoesNotFireThisOne) {
  FaultSpec spec;
  ScopedFault guard("site.a", spec);
  EXPECT_TRUE(AnyArmed());
  EXPECT_TRUE(Check("site.b").ok());
  EXPECT_FALSE(Check("site.a").ok());
}

TEST_F(FaultTest, AlwaysFireCarriesCodeSiteAndHitNumber) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.code = StatusCode::kDataLoss;
  ScopedFault guard("io.read", spec);

  const Status first = Check("io.read");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);
  EXPECT_NE(first.message().find("io.read"), std::string::npos);
  EXPECT_NE(first.message().find("hit #0"), std::string::npos);
  EXPECT_NE(Check("io.read").message().find("hit #1"), std::string::npos);

  const SiteStats stats = GetStats("io.read");
  EXPECT_EQ(stats.evaluations, 2u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST_F(FaultTest, SameSeedSameFirePattern) {
  const auto pattern = [](std::uint64_t seed) {
    FaultSpec spec;
    spec.probability = 0.3;
    spec.seed = seed;
    ScopedFault guard("det.site", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 500; ++i) fired.push_back(!Check("det.site").ok());
    return fired;
  };
  const auto a = pattern(42);
  EXPECT_EQ(a, pattern(42));  // re-armed with the same seed: identical
  EXPECT_NE(a, pattern(43));  // (500 draws at 30%: equality is ~impossible)

  // The pattern actually mixes fires and non-fires at a plausible rate.
  const int fires = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 75);   // 0.3 ± wide slack over 500 draws
  EXPECT_LT(fires, 250);
}

TEST_F(FaultTest, ZeroProbabilityNeverFires) {
  FaultSpec spec;
  spec.probability = 0.0;
  ScopedFault guard("never.site", spec);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(Check("never.site").ok());
  EXPECT_EQ(GetStats("never.site").fires, 0u);
}

TEST_F(FaultTest, MaxFiresBudgetStopsFiring) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 3;
  ScopedFault guard("budget.site", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += Check("budget.site").ok() ? 0 : 1;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(GetStats("budget.site").fires, 3u);
}

TEST_F(FaultTest, FireOnHitsSchedulesExactEvaluations) {
  FaultSpec spec;
  spec.fire_on_hits = {4, 1};  // unsorted on purpose; Arm sorts
  ScopedFault guard("sched.site", spec);
  std::vector<int> fired_at;
  for (int i = 0; i < 8; ++i) {
    if (!Check("sched.site").ok()) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{1, 4}));
}

TEST_F(FaultTest, RearmResetsCounters) {
  FaultSpec spec;
  spec.probability = 1.0;
  Arm("rearm.site", spec);
  Check("rearm.site").IgnoreError();  // only the counter matters here
  EXPECT_EQ(GetStats("rearm.site").evaluations, 1u);
  Arm("rearm.site", spec);  // replaces the entry, counters restart
  EXPECT_EQ(GetStats("rearm.site").evaluations, 0u);
}

TEST_F(FaultTest, ArmedSitesListsAlphabetically) {
  FaultSpec spec;
  Arm("z.site", spec);
  Arm("a.site", spec);
  EXPECT_EQ(ArmedSites(), (std::vector<std::string>{"a.site", "z.site"}));
  DisarmAll();
  EXPECT_TRUE(ArmedSites().empty());
  EXPECT_FALSE(AnyArmed());
}

TEST_F(FaultTest, SpecStringArmsFullGrammar) {
  ASSERT_TRUE(ArmFromSpec("a.site=1,b.site=0.25@7:DATA_LOSS#2").ok());
  EXPECT_EQ(ArmedSites(), (std::vector<std::string>{"a.site", "b.site"}));

  ASSERT_FALSE(Check("a.site").ok());  // probability 1

  // b.site: DATA_LOSS, at most 2 fires.
  int fires = 0;
  StatusCode seen = StatusCode::kOk;
  for (int i = 0; i < 2000 && fires < 2; ++i) {
    const Status status = Check("b.site");
    if (!status.ok()) {
      ++fires;
      seen = status.code();
    }
  }
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(seen, StatusCode::kDataLoss);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(Check("b.site").ok());
}

TEST_F(FaultTest, MalformedSpecArmsNothing) {
  const char* bad[] = {
      "no_equals",        "=0.5",          "site=",
      "site=nan",         "site=2.0",      "site=-0.1",
      "site=0.5@notanum", "site=0.5:BOGUS_CODE",
      "site=0.5@-1",      "site=0.5#-1",
      "site=0.5@99999999999999999999999",
      "site= 0.5",
      "ok.site=1,bad.site=oops",  // one bad entry poisons the whole spec
  };
  for (const char* spec : bad) {
    const Status status = ArmFromSpec(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_TRUE(ArmedSites().empty()) << spec;
  }
  EXPECT_TRUE(ArmFromSpec("").ok());  // empty spec: nothing armed, no error
  EXPECT_TRUE(ArmedSites().empty());
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit) {
  {
    FaultSpec spec;
    ScopedFault guard("scoped.site", spec);
    EXPECT_TRUE(AnyArmed());
  }
  EXPECT_FALSE(AnyArmed());
  EXPECT_TRUE(Check("scoped.site").ok());
}

TEST_F(FaultTest, ConcurrentEvaluationsCountExactly) {
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 100;  // less than total evaluations: the budget must hold
  ScopedFault guard("mt.site", spec);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!Check("mt.site").ok()) fires.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(fires.load(), 100);
  const SiteStats stats = GetStats("mt.site");
  EXPECT_EQ(stats.evaluations,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.fires, 100u);
}

TEST_F(FaultTest, ConcurrentArmDisarmWithEvaluationsIsSafe) {
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    FaultSpec spec;
    spec.probability = 0.5;
    while (!stop.load()) {
      Arm("churn.site", spec);
      Disarm("churn.site");
    }
  });
  for (int i = 0; i < 20000; ++i) {
    Check("churn.site").IgnoreError();  // must never crash or deadlock
  }
  stop.store(true);
  churner.join();
}

}  // namespace
}  // namespace kdash::fault
