// The acceptance contract of the parallel precompute: every thread count
// must give the same result as one thread. The inverses are compared as
// head + run matrices, their values bit for bit (test::SameBits); the LU
// factors as CSC, whose operator== compares the raw col_ptr / row_idx /
// values arrays.
#include <gtest/gtest.h>

#include "core/kdash_index.h"
#include "datasets/datasets.h"
#include "head_run_csc.h"
#include "lu/sparse_lu.h"
#include "lu/triangular.h"
#include "reorder/reorder.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::lu {
namespace {

using sparse::CscMatrix;
using sparse::HeadRunMatrix;

// The thread counts every parallel stage is compared at, against 1.
constexpr int kThreadCounts[] = {2, 3, 4, 8};

LuFactors FactorsOfRandomRwr(NodeId n, Index m, Scalar c, std::uint64_t seed) {
  const auto g = test::RandomDirectedGraph(n, m, seed);
  return FactorizeLu(BuildRwrSystemMatrix(g.NormalizedAdjacency(), c));
}

TEST(ParallelInverseDeterminismTest, LowerInverseBitIdenticalAcrossThreads) {
  const LuFactors factors = FactorsOfRandomRwr(300, 2400, 0.95, 17);
  const HeadRunMatrix sequential = InvertLowerTriangular(factors.lower, 1);
  for (const int threads : kThreadCounts) {
    EXPECT_TRUE(test::SameBits(InvertLowerTriangular(factors.lower, threads),
                               sequential))
        << "threads=" << threads;
  }
}

TEST(ParallelInverseDeterminismTest, UpperInverseBitIdenticalAcrossThreads) {
  const LuFactors factors = FactorsOfRandomRwr(300, 2400, 0.95, 18);
  const HeadRunMatrix sequential = InvertUpperTriangular(factors.upper, 1);
  for (const int threads : kThreadCounts) {
    EXPECT_TRUE(test::SameBits(InvertUpperTriangular(factors.upper, threads),
                               sequential))
        << "threads=" << threads;
  }
}

TEST(ParallelInverseDeterminismTest, TinyMatricesAcrossThreads) {
  // n below / around one block: the parallel path must degrade gracefully.
  // (n >= 2: a simple directed graph needs at least two nodes for an edge.)
  for (NodeId n : {2, 3, 7, 9}) {
    const LuFactors factors =
        FactorsOfRandomRwr(n, static_cast<Index>(2 * n), 0.9,
                           static_cast<std::uint64_t>(40 + n));
    const HeadRunMatrix lower = InvertLowerTriangular(factors.lower, 1);
    const HeadRunMatrix upper = InvertUpperTriangular(factors.upper, 1);
    for (const int threads : kThreadCounts) {
      EXPECT_TRUE(test::SameBits(InvertLowerTriangular(factors.lower, threads),
                                 lower))
          << "n=" << n << " threads=" << threads;
      EXPECT_TRUE(test::SameBits(InvertUpperTriangular(factors.upper, threads),
                                 upper))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelInverseDeterminismTest, OddBlockBoundariesAcrossThreads) {
  // The inverses walk 16-column blocks and hand out chunks of whole blocks
  // of about equal work; n = 16·20 + 7 leaves a partial last block. Hybrid
  // reordering gives L⁻¹ a dense tail, so blocks of shared columns and
  // blocks of sparse ones both occur, and the chunks differ in width.
  const NodeId n = 16 * 20 + 7;
  const auto g = test::RandomDirectedGraph(n, 6 * n, 23);
  const auto order = reorder::ComputeReordering(g, reorder::Method::kHybrid);
  const LuFactors factors = FactorizeLu(BuildRwrSystemMatrix(
      sparse::PermuteSymmetric(g.NormalizedAdjacency(), order.new_of_old),
      0.95));
  const HeadRunMatrix lower = InvertLowerTriangular(factors.lower, 1);
  const HeadRunMatrix upper = InvertUpperTriangular(factors.upper, 1);
  for (const int threads : kThreadCounts) {
    EXPECT_TRUE(
        test::SameBits(InvertLowerTriangular(factors.lower, threads), lower))
        << "threads=" << threads;
    EXPECT_TRUE(
        test::SameBits(InvertUpperTriangular(factors.upper, threads), upper))
        << "threads=" << threads;
  }
}

TEST(ParallelLuDeterminismTest, DenseTailBitIdenticalAcrossThreads) {
  // The LU's dense tail forms the Schur complement column-parallel and
  // updates it in tiles on the pool; every thread count must give the same
  // factors, byte for byte. The Citation stand-in's trailing block spans
  // several panels, row tiles and column tiles.
  const auto g =
      datasets::MakeDataset(datasets::DatasetId::kCitation, 0.2).graph;
  const auto order = reorder::ComputeReordering(g, reorder::Method::kHybrid);
  const CscMatrix w = BuildRwrSystemMatrix(
      sparse::PermuteSymmetric(g.NormalizedAdjacency(), order.new_of_old),
      0.95);
  const LuFactors sequential = FactorizeLu(w, 1);
  ASSERT_LT(sequential.dense_begin, w.rows());
  for (const int threads : kThreadCounts) {
    const LuFactors parallel = FactorizeLu(w, threads);
    EXPECT_EQ(parallel.dense_begin, sequential.dense_begin)
        << "threads=" << threads;
    EXPECT_EQ(parallel.lower, sequential.lower) << "threads=" << threads;
    EXPECT_EQ(parallel.upper, sequential.upper) << "threads=" << threads;
  }
}

TEST(ParallelInverseDeterminismTest, IndexBuildIdenticalAcrossThreads) {
  // End-to-end: the whole precompute (the reorder, the LU's dense tail and
  // the inverses all run on the pool) must produce an identical index for
  // every thread count.
  const auto g = test::RandomDirectedGraph(200, 1200, 21);
  core::KDashOptions options;
  options.num_threads = 1;
  const auto sequential = core::KDashIndex::Build(g, options);
  for (const int threads : kThreadCounts) {
    options.num_threads = threads;
    const auto parallel = core::KDashIndex::Build(g, options);
    EXPECT_TRUE(
        test::SameBits(parallel.lower_inverse(), sequential.lower_inverse()))
        << "threads=" << threads;
    EXPECT_TRUE(
        test::SameBits(parallel.upper_inverse(), sequential.upper_inverse()))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace kdash::lu
