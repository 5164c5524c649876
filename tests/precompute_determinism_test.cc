// End-to-end determinism of the whole precompute pipeline: a KDashIndex
// built with different thread counts — KDASH_NUM_THREADS (the shared-pool
// default) or explicit KDashOptions::num_threads — must serialize to
// byte-identical index files. This catches nondeterminism in ANY stage
// (reorder, LU, inverses, estimator tables, adjacency), not just the one a
// unit test happens to look at.
//
// The only bytes allowed to differ are the stats section and its CRC in the
// section table: wall-clock stage timings, different on every run by
// construction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "core/kdash_index.h"
#include "datasets/datasets.h"
#include "index_file_util.h"
#include "lu/sparse_lu.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::core {
namespace {

// Serialized index minus the stats section (wall-clock timings — the one
// legitimately nondeterministic field) and its CRC.
std::string SerializedBody(const KDashIndex& index) {
  std::ostringstream out;
  KDASH_CHECK(index.Save(out).ok());
  return test::v3::WithoutStats(out.str());
}

// Byte compare with a useful failure message (EXPECT_EQ on megabyte strings
// dumps both operands).
void ExpectSameBytes(const std::string& got, const std::string& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << ": first differing byte at offset "
                               << i << " of " << got.size();
  }
}

TEST(PrecomputeDeterminismTest, IndexBytesIdenticalAcrossThreadCounts) {
  // Size the process-default pool through the environment variable before
  // its first use, so the num_threads = 0 build exercises the same path a
  // `KDASH_NUM_THREADS=3 kdash_cli build` run takes.
  setenv("KDASH_NUM_THREADS", "3", 1);

  const auto g = test::RandomDirectedGraph(220, 1500, 29);
  KDashOptions options;  // num_threads = 0 → shared pool (3 workers)
  const KDashIndex via_env = KDashIndex::Build(g, options);
  const std::string reference = SerializedBody(via_env);

  for (const int threads : {1, 2, 8}) {
    options.num_threads = threads;
    const KDashIndex index = KDashIndex::Build(g, options);
    // Factor-level check first: a mismatch here gives a far better failure
    // message than a raw byte offset.
    EXPECT_EQ(index.lower_inverse(), via_env.lower_inverse())
        << "threads=" << threads;
    EXPECT_EQ(index.upper_inverse(), via_env.upper_inverse())
        << "threads=" << threads;
    ExpectSameBytes(SerializedBody(index), reference,
                    "threads=" + std::to_string(threads));
  }
}

TEST(PrecomputeDeterminismTest, IndexBytesIdenticalWithDenseLuTail) {
  // A graph whose LU switches to its dense tail: the tiled, pool-driven
  // part of the factorization must not leak the thread count into the
  // index either. Social at scale 0.2 starts its tail at column 1096 of
  // 1200; at 0.1 its border is too small to reach one.
  const auto g = datasets::MakeDataset(datasets::DatasetId::kSocial, 0.2).graph;
  KDashOptions options;
  options.num_threads = 1;
  const auto order = reorder::ComputeReordering(
      g, options.reorder_method, {options.seed, options.num_threads});
  const auto w = lu::BuildRwrSystemMatrix(
      sparse::PermuteSymmetric(g.NormalizedAdjacency(), order.new_of_old),
      options.restart_prob);
  ASSERT_LT(lu::FactorizeLu(w, 1).dense_begin, w.rows());

  const std::string sequential = SerializedBody(KDashIndex::Build(g, options));
  for (const int threads : {2, 3, 8}) {
    options.num_threads = threads;
    ExpectSameBytes(SerializedBody(KDashIndex::Build(g, options)), sequential,
                    "threads=" + std::to_string(threads));
  }
}

TEST(PrecomputeDeterminismTest, IndexBytesIdenticalAcrossReorderMethods) {
  // Every reorder method builds a different index, but each must be
  // thread-count-deterministic on its own.
  const auto g = test::RandomDirectedGraph(150, 1000, 31);
  for (const auto method :
       {reorder::Method::kDegree, reorder::Method::kCluster,
        reorder::Method::kHybrid}) {
    KDashOptions options;
    options.reorder_method = method;
    options.num_threads = 1;
    const std::string sequential = SerializedBody(KDashIndex::Build(g, options));
    options.num_threads = 8;
    ExpectSameBytes(SerializedBody(KDashIndex::Build(g, options)), sequential,
                    reorder::MethodName(method));
  }
}

TEST(PrecomputeDeterminismTest, SavedFilesByteIdenticalModuloStatsBlock) {
  // The on-disk variant of the contract, exactly as an operator would
  // compare two `kdash_cli build` outputs.
  const auto g = test::RandomDirectedGraph(100, 650, 37);
  const std::string dir = ::testing::TempDir();
  KDashOptions options;
  options.num_threads = 1;
  ASSERT_TRUE(
      KDashIndex::Build(g, options).SaveFile(dir + "/det_t1.kdash").ok());
  options.num_threads = 8;
  ASSERT_TRUE(
      KDashIndex::Build(g, options).SaveFile(dir + "/det_t8.kdash").ok());

  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string t1 = read_file(dir + "/det_t1.kdash");
  const std::string t8 = read_file(dir + "/det_t8.kdash");
  ASSERT_EQ(t1.size(), t8.size());
  ExpectSameBytes(test::v3::WithoutStats(t8), test::v3::WithoutStats(t1),
                  "saved files");
}

}  // namespace
}  // namespace kdash::core
