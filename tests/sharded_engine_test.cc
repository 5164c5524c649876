// Sharded-serving exactness: for every shard count, ShardedEngine results
// (ids AND scores, bit-for-bit) must equal a single unsharded Engine on the
// same graph — including exclusion sets, personalized restart sets, k
// larger than a shard, and after a Save/Open round trip of the sharded
// directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "datasets/datasets.h"
#include "serving/sharded_engine.h"
#include "test_util.h"

namespace kdash::serving {
namespace {

const std::vector<int> kShardCounts{1, 2, 3, 7};

// Every query answered by both engines must match bit-for-bit.
void ExpectIdentical(const Engine& single, const ShardedEngine& sharded,
                     const std::vector<Query>& queries, const char* what) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto expected = single.Search(queries[i]);
    const auto got = sharded.Search(queries[i]);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->top.size(), expected->top.size())
        << what << ", query " << i;
    for (std::size_t r = 0; r < expected->top.size(); ++r) {
      EXPECT_EQ(got->top[r].node, expected->top[r].node)
          << what << ", query " << i << ", rank " << r;
      // Bit-identical, not approximately equal: the shard computes the very
      // same U⁻¹-row dot product over the very same y.
      EXPECT_EQ(got->top[r].score, expected->top[r].score)
          << what << ", query " << i << ", rank " << r;
    }
  }
}

std::vector<Query> MixedQueries(NodeId n) {
  std::vector<Query> queries;
  for (NodeId q = 0; q < n; q += std::max<NodeId>(1, n / 17)) {
    queries.push_back(Query::Single(q, 10));
  }
  // k far beyond any shard's node count (and beyond n).
  queries.push_back(Query::Single(0, static_cast<std::size_t>(n) + 5));
  // Exclusions, including the query node itself.
  Query excluded = Query::Single(n / 2, 8);
  excluded.exclude = {n / 2, 0, n - 1};
  queries.push_back(excluded);
  // Personalized restart set spanning shard boundaries.
  queries.push_back(Query::Personalized({0, n / 2, n - 1}, 12));
  // Pruning disabled (full scan) must agree too.
  Query unpruned = Query::Single(1, 10);
  unpruned.use_pruning = false;
  queries.push_back(unpruned);
  return queries;
}

// The shard file names dir/MANIFEST lists, in shard order.
std::vector<std::string> ManifestFiles(const std::string& dir) {
  std::ifstream manifest(dir + "/MANIFEST");
  std::vector<std::string> files;
  for (std::string line; std::getline(manifest, line);) {
    std::istringstream fields(line);
    std::string keyword, file;
    long long id = 0, begin = 0, end = 0;
    if (fields >> keyword >> id >> begin >> end >> file &&
        keyword == "shard") {
      files.push_back(file);
    }
  }
  return files;
}

TEST(ShardedEngineTest, BitIdenticalToSingleEngineOnSeedGraphs) {
  struct Case {
    const char* name;
    graph::Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"small", test::SmallDirectedGraph()});
  cases.push_back({"figure8", test::Figure8Graph()});
  cases.push_back({"random", test::RandomDirectedGraph(120, 700, 11)});
  for (const auto id : datasets::AllDatasets()) {
    auto dataset = datasets::MakeDataset(id, 0.02, 5);
    cases.push_back({"dataset", std::move(dataset.graph)});
  }

  for (const Case& test_case : cases) {
    const NodeId n = test_case.graph.num_nodes();
    auto single = Engine::Build(test_case.graph);
    ASSERT_TRUE(single.ok()) << single.status();
    const auto queries = MixedQueries(n);
    for (const int num_shards : kShardCounts) {
      if (num_shards > n) continue;
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      auto sharded = ShardedEngine::Build(test_case.graph, options);
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      ASSERT_EQ(sharded->num_shards(), num_shards);
      ExpectIdentical(*single, *sharded, queries,
                      (std::string(test_case.name) + "/P=" +
                       std::to_string(num_shards))
                          .c_str());
    }
  }
}

TEST(ShardedEngineTest, SearchBatchMatchesSingleEngineBatch) {
  const auto g = test::RandomDirectedGraph(150, 900, 13);
  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  ShardedEngineOptions options;
  options.num_shards = 3;
  auto sharded = ShardedEngine::Build(g, options);
  ASSERT_TRUE(sharded.ok());

  const auto queries = MixedQueries(g.num_nodes());
  const auto expected = single->SearchBatch(queries);
  const auto got = sharded->SearchBatch(queries);
  ASSERT_TRUE(test::AllOk(expected));
  ASSERT_TRUE(test::AllOk(got));
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(got[i]->top.size(), expected[i]->top.size()) << i;
    for (std::size_t r = 0; r < expected[i]->top.size(); ++r) {
      EXPECT_EQ(got[i]->top[r].node, expected[i]->top[r].node);
      EXPECT_EQ(got[i]->top[r].score, expected[i]->top[r].score);
    }
  }
}

TEST(ShardedEngineTest, ScoreBoundSkipFiresAndStaysBitIdentical) {
  // k=1 single-source queries are the regime where the Lemma-1 shard bound
  // bites: the source shard alone pushes the cross-shard threshold to
  // ≈ c = 0.95, far above the non-source shards' c′·Amax ≈ 0.05 bounds.
  // With skipping live the results must STILL be bit-identical to the
  // single engine — the whole point of an admissible bound.
  const auto g = test::RandomDirectedGraph(150, 900, 29);
  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  std::vector<Query> queries;
  for (NodeId q = 0; q < g.num_nodes(); q += 7) {
    queries.push_back(Query::Single(q, 1));
  }

  bool any_skipped = false;
  for (const int num_shards : kShardCounts) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    auto sharded = ShardedEngine::Build(g, options);
    ASSERT_TRUE(sharded.ok());
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_GT(sharded->shard_score_bound(s), 0.0);
      EXPECT_LE(sharded->shard_score_bound(s), 1.0);
    }
    ExpectIdentical(*single, *sharded, queries,
                    ("skip-on/P=" + std::to_string(num_shards)).c_str());
    if (num_shards > 1) {
      EXPECT_GT(sharded->shards_skipped(), 0u)
          << "P=" << num_shards
          << ": a k=1 workload must skip some non-source shard";
    } else {
      EXPECT_EQ(sharded->shards_skipped(), 0u) << "P=1 has nothing to skip";
    }
    any_skipped = any_skipped || sharded->shards_skipped() > 0;
  }
  EXPECT_TRUE(any_skipped);
}

TEST(ShardedEngineTest, MixedWorkloadWithSkipStaysBitIdentical) {
  // The full mixed workload (personalized sets, exclusions, large k,
  // pruning off) through a skip-enabled fan-out: source-owning shards are
  // mandatory and multi-source/multi-shard queries rarely skip, but the
  // decision logic runs on every query and must never change an answer.
  const auto g = test::RandomDirectedGraph(150, 900, 13);
  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  for (const int num_shards : kShardCounts) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    auto sharded = ShardedEngine::Build(g, options);
    ASSERT_TRUE(sharded.ok());
    ExpectIdentical(*single, *sharded, MixedQueries(g.num_nodes()),
                    ("mixed-skip/P=" + std::to_string(num_shards)).c_str());
  }
}

TEST(ShardedEngineTest, ShardScoreBoundsSurviveSaveOpen) {
  // The bound is derived at load time from the validated c′ table, not
  // stored: a reopened directory must skip exactly like the built engine.
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  ShardedEngineOptions options;
  options.num_shards = 3;
  auto built = ShardedEngine::Build(g, options);
  ASSERT_TRUE(built.ok());

  const std::string dir = ::testing::TempDir() + "/kdash_sharded_bounds";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(built->Save(dir).ok());
  auto opened = ShardedEngine::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(opened->shard_score_bound(s), built->shard_score_bound(s))
        << "shard " << s;
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, ShardsOwnDisjointCoveringRangesAndSplitStorage) {
  const auto g = test::RandomDirectedGraph(100, 600, 17);
  ShardedEngineOptions options;
  options.num_shards = 4;
  auto sharded = ShardedEngine::Build(g, options);
  ASSERT_TRUE(sharded.ok());

  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  const Index full_nnz = single->index().stats().nnz_upper_inverse;

  NodeId covered = 0;
  Index sharded_nnz = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    EXPECT_EQ(sharded->shard_begin(s), covered);
    covered = sharded->shard_end(s);
    const auto& index = sharded->shard(s).index();
    EXPECT_TRUE(index.IsSharded());
    sharded_nnz += index.stats().nnz_upper_inverse;
    // Each shard's U⁻¹ holds strictly less than the full payload.
    EXPECT_LT(index.stats().nnz_upper_inverse, full_nnz);
  }
  EXPECT_EQ(covered, g.num_nodes());
  // Restriction drops rows, never duplicates them: the shard payloads sum
  // exactly to the full index's U⁻¹.
  EXPECT_EQ(sharded_nnz, full_nnz);
}

TEST(ShardedEngineTest, InProcessShardsShareTheImmutableState) {
  // Restrict() must alias the non-U⁻¹ machinery, not copy it: every shard
  // of one build returns the very same L⁻¹ / permutation / estimator
  // storage (the per-shard cost is the U⁻¹ slice alone).
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  ShardedEngineOptions options;
  options.num_shards = 3;
  auto sharded = ShardedEngine::Build(g, options);
  ASSERT_TRUE(sharded.ok());

  const auto& first = sharded->shard(0).index();
  for (int s = 1; s < sharded->num_shards(); ++s) {
    const auto& index = sharded->shard(s).index();
    EXPECT_EQ(&index.lower_inverse(), &first.lower_inverse()) << "shard " << s;
    EXPECT_EQ(&index.new_of_old(), &first.new_of_old()) << "shard " << s;
    EXPECT_EQ(&index.amax_of_node(), &first.amax_of_node()) << "shard " << s;
    // The payload is per-shard.
    EXPECT_NE(&index.upper_inverse(), &first.upper_inverse()) << "shard " << s;
  }
}

TEST(ShardedEngineTest, SaveOpenRoundTripStaysBitIdentical) {
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  ShardedEngineOptions options;
  options.num_shards = 3;
  auto built = ShardedEngine::Build(g, options);
  ASSERT_TRUE(built.ok());

  const std::string dir = ::testing::TempDir() + "/kdash_sharded_roundtrip";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(built->Save(dir).ok());

  auto opened = ShardedEngine::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->num_nodes(), g.num_nodes());
  EXPECT_EQ(opened->num_shards(), 3);
  ExpectIdentical(*single, *opened, MixedQueries(g.num_nodes()), "reopened");
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, OpenReadsOnlyManifestShardsAndValidatesSubsets) {
  // A P=3 save over a P=4 directory, plus a stale file where an older
  // P=4 save kept its last shard. Opening must follow the MANIFEST, never
  // the files on disk: serving the stale shard too would return its nodes
  // twice.
  const auto g = test::RandomDirectedGraph(90, 500, 19);
  auto single = Engine::Build(g);
  ASSERT_TRUE(single.ok());
  const std::string dir = ::testing::TempDir() + "/kdash_sharded_resave";
  std::filesystem::remove_all(dir);
  for (const int num_shards : {4, 3}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    auto built = ShardedEngine::Build(g, options);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(dir).ok());
    if (num_shards == 4) {
      std::filesystem::copy_file(dir + "/" + ManifestFiles(dir).back(),
                                 dir + "/shard-0003.kdash");
    }
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard-0003.kdash"));
  EXPECT_EQ(ManifestFiles(dir).size(), 3u);

  const auto queries = MixedQueries(g.num_nodes());
  auto all = ShardedEngine::Open(dir);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all->num_shards(), 3);
  ExpectIdentical(*single, *all, queries, "resaved");
  auto listed = ShardedEngine::Open(dir, {0, 1, 2});
  ASSERT_TRUE(listed.ok()) << listed.status();
  EXPECT_EQ(listed->num_shards(), 3);
  ExpectIdentical(*single, *listed, queries, "resaved {0,1,2}");

  EXPECT_EQ(ShardedEngine::Open(dir, {0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ShardedEngine::Open(dir, {3}).status().code(),
            StatusCode::kInvalidArgument);

  // A strict subset serves its own shards' ranges and cannot be saved as
  // if it were the whole index.
  auto subset = ShardedEngine::Open(dir, {2, 0});
  ASSERT_TRUE(subset.ok()) << subset.status();
  ASSERT_EQ(subset->num_shards(), 2);
  EXPECT_EQ(subset->shard_begin(0), all->shard_begin(0));
  EXPECT_EQ(subset->shard_begin(1), all->shard_begin(2));
  EXPECT_EQ(subset->Save(dir + "-copy").code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, FailedSaveLeavesThePreviousSaveServing) {
  // Save A, then a save of B (another graph, same n and P) that fails
  // after its first shard file. The directory must still open as A: the
  // failed save wrote under names no MANIFEST lists.
  const auto graph_a = test::RandomDirectedGraph(200, 1200, 41);
  const auto graph_b = test::RandomDirectedGraph(200, 1200, 42);
  auto single_a = Engine::Build(graph_a);
  auto single_b = Engine::Build(graph_b);
  ASSERT_TRUE(single_a.ok());
  ASSERT_TRUE(single_b.ok());
  ShardedEngineOptions options;
  options.num_shards = 2;
  auto a = ShardedEngine::Build(graph_a, options);
  auto b = ShardedEngine::Build(graph_b, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::string dir = ::testing::TempDir() + "/kdash_sharded_failed_save";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(a->Save(dir).ok());
  const std::vector<std::string> files_a = ManifestFiles(dir);
  {
    fault::FaultSpec spec;
    spec.fire_on_hits = {1};  // the second shard file's write
    fault::ScopedFault fault("index_io.write", spec);
    EXPECT_FALSE(b->Save(dir).ok());
  }
  EXPECT_EQ(ManifestFiles(dir), files_a);
  const auto queries = MixedQueries(graph_a.num_nodes());
  auto opened = ShardedEngine::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ExpectIdentical(*single_a, *opened, queries, "after a failed save");

  // A save that succeeds serves B and removes A's now unlisted files.
  ASSERT_TRUE(b->Save(dir).ok());
  const std::vector<std::string> files_b = ManifestFiles(dir);
  ASSERT_EQ(files_b.size(), 2u);
  for (const std::string& file : files_a) {
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + file)) << file;
  }
  auto reopened = ShardedEngine::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectIdentical(*single_b, *reopened, queries, "after the next save");
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, OpenRejectsMissingAndCorruptManifests) {
  EXPECT_EQ(ShardedEngine::Open("/nonexistent/sharded-dir").status().code(),
            StatusCode::kNotFound);

  const std::string dir = ::testing::TempDir() + "/kdash_sharded_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  {  // Version mismatch.
    std::ofstream(dir + "/MANIFEST") << "kdash-sharded-index v999\n";
    EXPECT_EQ(ShardedEngine::Open(dir).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {  // Garbage header.
    std::ofstream(dir + "/MANIFEST") << "not a manifest\n";
    EXPECT_EQ(ShardedEngine::Open(dir).status().code(), StatusCode::kDataLoss);
  }
  {  // Ranges that do not partition [0, n).
    std::ofstream(dir + "/MANIFEST")
        << "kdash-sharded-index v1\nnum_nodes 10\nnum_shards 2\n"
        << "shard 0 0 4 shard-0000.kdash\nshard 1 5 10 shard-0001.kdash\n";
    EXPECT_EQ(ShardedEngine::Open(dir).status().code(), StatusCode::kDataLoss);
  }
  // A number with junk or a sign, or an extra field, is corrupt.
  for (const char* body : {
           "num_nodes 10\nnum_shards 2junk\n"
           "shard 0 0 5 shard-0000.kdash\nshard 1 5 10 shard-0001.kdash\n",
           "num_nodes +10\nnum_shards 2\n"
           "shard 0 0 5 shard-0000.kdash\nshard 1 5 10 shard-0001.kdash\n",
           "num_nodes 10\nnum_shards 2\n"
           "shard 0 0 5 shard-0000.kdash\nshard 1 +5 10 shard-0001.kdash\n",
           "num_nodes 10\nnum_shards 2\n"
           "shard 0 0 5 shard-0000.kdash extra\n"
           "shard 1 5 10 shard-0001.kdash\n",
       }) {
    std::ofstream(dir + "/MANIFEST") << "kdash-sharded-index v1\n" << body;
    EXPECT_EQ(ShardedEngine::Open(dir).status().code(), StatusCode::kDataLoss)
        << body;
  }
  {  // Well-formed manifest but missing shard files.
    std::ofstream(dir + "/MANIFEST")
        << "kdash-sharded-index v1\nnum_nodes 10\nnum_shards 2\n"
        << "shard 0 0 5 shard-0000.kdash\nshard 1 5 10 shard-0001.kdash\n";
    EXPECT_EQ(ShardedEngine::Open(dir).status().code(), StatusCode::kNotFound);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, OpenRejectsInvalidFailurePolicy) {
  // The policy is fixed at Open, so Open validates it like Build does.
  const auto g = test::SmallDirectedGraph();
  ShardedEngineOptions options;
  options.num_shards = 2;
  auto built = ShardedEngine::Build(g, options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string dir = ::testing::TempDir() + "/kdash_sharded_policy";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(built->Save(dir).ok());

  ShardFailurePolicy policy;
  policy.max_retries = -1;
  EXPECT_EQ(ShardedEngine::Open(dir, {}, policy).status().code(),
            StatusCode::kInvalidArgument);
  policy.max_retries = 0;
  EXPECT_TRUE(ShardedEngine::Open(dir, {}, policy).ok());
  std::filesystem::remove_all(dir);
}

TEST(ShardedEngineTest, BuildValidatesShardCount) {
  const auto g = test::SmallDirectedGraph();  // 5 nodes
  ShardedEngineOptions options;
  options.num_shards = 0;
  EXPECT_EQ(ShardedEngine::Build(g, options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_shards = 6;  // more shards than nodes
  EXPECT_EQ(ShardedEngine::Build(g, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, InvalidQueriesSurfaceTheEngineStatus) {
  const auto g = test::RandomDirectedGraph(40, 200, 23);
  ShardedEngineOptions options;
  options.num_shards = 2;
  auto sharded = ShardedEngine::Build(g, options);
  ASSERT_TRUE(sharded.ok());

  Query bad = Query::Single(999, 5);
  EXPECT_EQ(sharded->Search(bad).status().code(),
            StatusCode::kInvalidArgument);

  // In a batch the bad query fails on its own, with Search's status, and
  // its batchmate is answered as Search answers it.
  std::vector<Query> batch{Query::Single(0, 5), bad};
  const auto result = sharded->SearchBatch(batch);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[1].status(), sharded->Search(bad).status());
  ASSERT_TRUE(result[0].ok()) << result[0].status();
  const auto alone = sharded->Search(batch[0]);
  ASSERT_TRUE(alone.ok()) << alone.status();
  ASSERT_EQ(result[0]->top.size(), alone->top.size());
  for (std::size_t r = 0; r < alone->top.size(); ++r) {
    EXPECT_EQ(result[0]->top[r].node, alone->top[r].node);
    EXPECT_EQ(result[0]->top[r].score, alone->top[r].score);
  }
}

}  // namespace
}  // namespace kdash::serving
