// Per-query tracing (src/obs/trace.h): span recording and rendering, the
// null-context no-op contract, the protocol plumbing (trace=1, "trace" and
// "t_us" record fields), and end-to-end span coverage through Engine,
// BatchScheduler, and ShardedEngine — the stage names a production trace
// is made of.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serving/batch_scheduler.h"
#include "serving/sharded_engine.h"
#include "serving/wire.h"
#include "test_util.h"

namespace kdash {
namespace {

using obs::ScopedSpan;
using obs::Span;
using obs::TraceContext;
namespace wire = serving::wire;

std::vector<std::string> Stages(const TraceContext& trace) {
  std::vector<std::string> stages;
  for (const Span& span : trace.spans()) stages.push_back(span.stage);
  return stages;
}

bool HasStage(const TraceContext& trace, const std::string& stage) {
  const auto stages = Stages(trace);
  return std::find(stages.begin(), stages.end(), stage) != stages.end();
}

TEST(TraceContextTest, RecordAndRender) {
  TraceContext trace;
  trace.Record("beta", 10, 5);
  trace.Record("alpha", 10, 7);
  trace.Record("shard", 3, 2, /*index=*/1);
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);

  // ToJson sorts by (start_us, stage, index) and adds "i" only for
  // indexed spans.
  EXPECT_EQ(trace.ToJson(),
            "[{\"stage\":\"shard\",\"i\":1,\"start_us\":3,\"dur_us\":2},"
            "{\"stage\":\"alpha\",\"start_us\":10,\"dur_us\":7},"
            "{\"stage\":\"beta\",\"start_us\":10,\"dur_us\":5}]");
}

TEST(TraceContextTest, EmptyTraceRendersEmptyArray) {
  TraceContext trace;
  EXPECT_EQ(trace.ToJson(), "[]");
}

TEST(ScopedSpanTest, RecordsOnceOnStopOrDestruction) {
  TraceContext trace;
  {
    ScopedSpan span(&trace, "outer");
    ScopedSpan inner(&trace, "inner", 2);
    inner.Stop();
    inner.Stop();  // idempotent
  }
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(HasStage(trace, "outer"));
  EXPECT_TRUE(HasStage(trace, "inner"));
}

TEST(ScopedSpanTest, NullContextIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.Stop();  // must not crash; nothing to record into
}

TEST(TraceProtocolTest, ParseQueryLineTraceFlag) {
  Query query;
  std::string error;
  ASSERT_TRUE(wire::ParseQueryLine("3 k=2", 5, &query, &error));
  EXPECT_EQ(query.trace, nullptr);
  ASSERT_TRUE(wire::ParseQueryLine("3 k=2 trace=1", 5, &query, &error));
  ASSERT_NE(query.trace, nullptr);
  EXPECT_EQ(query.k, 2u);
  ASSERT_EQ(query.sources.size(), 1u);
  EXPECT_EQ(query.sources[0], 3);
}

TEST(TraceProtocolTest, ResultRecordCarriesTraceAndLatency) {
  Query query = Query::Single(0, 1);
  query.trace = std::make_shared<TraceContext>();
  query.trace->Record("engine.search", 1, 2);
  SearchResult result;
  result.top.push_back({1, 0.5});

  const std::string with_both =
      wire::FormatResultRecord(7, query, result, /*t_us=*/123);
  EXPECT_NE(with_both.find("\"t_us\":123"), std::string::npos);
  EXPECT_NE(with_both.find(
                "\"trace\":[{\"stage\":\"engine.search\",\"start_us\":1,"
                "\"dur_us\":2}]"),
            std::string::npos);

  // Untraced offline records stay byte-stable: no t_us, no trace.
  query.trace = nullptr;
  const std::string plain = wire::FormatResultRecord(7, query, result);
  EXPECT_EQ(plain.find("t_us"), std::string::npos);
  EXPECT_EQ(plain.find("trace"), std::string::npos);

  const std::string error_record =
      wire::FormatErrorRecord(8, Status::Unavailable("down"), /*t_us=*/9);
  EXPECT_NE(error_record.find("\"t_us\":9"), std::string::npos);
  EXPECT_NE(wire::FormatPongRecord(9, 4).find("\"t_us\":4"),
            std::string::npos);
  EXPECT_NE(wire::FormatStatsRecord(10, "{\"metrics\":[]}", 5)
                .find("\"stats\":{\"metrics\":[]}"),
            std::string::npos);
}

TEST(TraceEndToEndTest, EngineSearchStampsSearchSpan) {
  auto engine = Engine::Build(test::SmallDirectedGraph(), {});
  ASSERT_TRUE(engine.ok());
  Query query = Query::Single(0, 3);
  query.trace = std::make_shared<TraceContext>();
  ASSERT_TRUE(engine->Search(query).ok());
  EXPECT_TRUE(HasStage(*query.trace, "engine.search"));
}

TEST(TraceEndToEndTest, SchedulerStampsQueueSpan) {
  auto engine = Engine::Build(test::SmallDirectedGraph(), {});
  ASSERT_TRUE(engine.ok());
  serving::BatchScheduler scheduler(
      [&engine](std::span<const Query> batch) {
        return engine->SearchBatch(batch);
      });
  Query query = Query::Single(0, 3);
  query.trace = std::make_shared<TraceContext>();
  auto future = scheduler.Submit(query);
  ASSERT_TRUE(future.get().ok());
  scheduler.Shutdown();
  EXPECT_TRUE(HasStage(*query.trace, "scheduler.queue"));
  EXPECT_TRUE(HasStage(*query.trace, "engine.search"));
}

TEST(TraceEndToEndTest, ShardedSearchStampsPerShardAndMergeSpans) {
  serving::ShardedEngineOptions options;
  options.num_shards = 2;
  auto sharded = serving::ShardedEngine::Build(test::Figure8Graph(), options);
  ASSERT_TRUE(sharded.ok());
  Query query = Query::Single(0, 3);
  query.trace = std::make_shared<TraceContext>();
  ASSERT_TRUE(sharded->Search(query).ok());

  EXPECT_TRUE(HasStage(*query.trace, "sharded.merge"));
  // Every shard is accounted for exactly once: searched ("shard_search")
  // or provably below the cross-shard threshold ("shard_skip").
  std::vector<int> shard_indices;
  for (const Span& span : query.trace->spans()) {
    if (span.stage == "sharded.shard_search" ||
        span.stage == "sharded.shard_skip") {
      shard_indices.push_back(span.index);
    }
  }
  std::sort(shard_indices.begin(), shard_indices.end());
  EXPECT_EQ(shard_indices, (std::vector<int>{0, 1}));
  // The shard-local Engine runs with a detached trace, so per-shard
  // "engine.search" spans never duplicate the shard spans.
  EXPECT_FALSE(HasStage(*query.trace, "engine.search"));
}

TEST(TraceEndToEndTest, SkippedShardStampsSkipSpan) {
  serving::ShardedEngineOptions options;
  options.num_shards = 3;
  auto sharded = serving::ShardedEngine::Build(
      test::RandomDirectedGraph(150, 900, 29), options);
  ASSERT_TRUE(sharded.ok());
  // k=1 single-source: the source shard's answer alone pushes the
  // threshold above the other shards' score bounds.
  Query query = Query::Single(0, 1);
  query.trace = std::make_shared<TraceContext>();
  ASSERT_TRUE(sharded->Search(query).ok());
  ASSERT_TRUE(HasStage(*query.trace, "sharded.shard_skip"));

  // A k above every shard's node count keeps θ at 0: no shard is skipped,
  // so no skip span is stamped.
  Query unskipped = Query::Single(0, 150);
  unskipped.trace = std::make_shared<TraceContext>();
  ASSERT_TRUE(sharded->Search(unskipped).ok());
  EXPECT_FALSE(HasStage(*unskipped.trace, "sharded.shard_skip"));
}

TEST(TraceEndToEndTest, CoalescedTracedRequestKeepsComputeSpans) {
  // An untraced request and a traced duplicate land in the same batch, the
  // untraced one first. Coalescing computes the group once — the traced
  // request must still come back with the engine/compute spans (the traced
  // context is promoted to group head), not just its own queue span.
  auto engine = Engine::Build(test::SmallDirectedGraph(), {});
  ASSERT_TRUE(engine.ok());

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<int> calls{0};
  serving::BatchSchedulerOptions options;
  options.max_batch_size = 8;
  serving::BatchScheduler scheduler(
      [&](std::span<const Query> batch) {
        if (calls.fetch_add(1) == 0) released.wait();  // pin the first batch
        return engine->SearchBatch(batch);
      },
      options);

  // Occupy the scheduler thread so the next two submissions provably queue
  // into one batch, in submission order.
  auto gate = scheduler.Submit(Query::Single(1, 2));
  while (calls.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Query untraced = Query::Single(0, 3);
  Query traced = Query::Single(0, 3);
  traced.trace = std::make_shared<TraceContext>();
  auto first = scheduler.Submit(untraced);
  auto second = scheduler.Submit(traced);
  release.set_value();

  ASSERT_TRUE(gate.get().ok());
  const auto untraced_result = first.get();
  const auto traced_result = second.get();
  ASSERT_TRUE(untraced_result.ok());
  ASSERT_TRUE(traced_result.ok());
  scheduler.Shutdown();

  EXPECT_TRUE(HasStage(*traced.trace, "scheduler.queue"));
  EXPECT_TRUE(HasStage(*traced.trace, "engine.search"))
      << "coalescing behind an untraced head must not lose compute spans";

  // Coalesced answers stay identical regardless of which request computed.
  ASSERT_EQ(untraced_result->top.size(), traced_result->top.size());
  for (std::size_t r = 0; r < traced_result->top.size(); ++r) {
    EXPECT_EQ(untraced_result->top[r].node, traced_result->top[r].node);
    EXPECT_EQ(untraced_result->top[r].score, traced_result->top[r].score);
  }
}

}  // namespace
}  // namespace kdash
