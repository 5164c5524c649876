#include "sparse/csc_matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "sparse/coo_builder.h"
#include "test_util.h"

namespace kdash::sparse {
namespace {

// 3×3 example:
//   [ 1  0  2 ]
//   [ 0  3  0 ]
//   [ 4  0  5 ]
CscMatrix Example3x3() {
  CooBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(2, 0, 4.0);
  builder.Add(1, 1, 3.0);
  builder.Add(0, 2, 2.0);
  builder.Add(2, 2, 5.0);
  return builder.BuildCsc();
}

TEST(CscMatrixTest, EmptyMatrix) {
  const CscMatrix m(4, 3);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_DOUBLE_EQ(m.MaxValue(), 0.0);
  m.Validate();
}

TEST(CscMatrixTest, CheckCscArraysNamesTheFirstViolatedInvariant) {
  // Example3x3's arrays, then one invariant broken at a time.
  const std::vector<Index> ptr{0, 2, 3, 5};
  const std::vector<NodeId> idx{0, 2, 1, 0, 2};
  const std::vector<Scalar> vals{1, 4, 3, 2, 5};
  EXPECT_TRUE(CheckCscArrays("m", 3, 3, ptr, idx, vals).ok());
  struct Case {
    NodeId rows, cols;
    std::vector<Index> ptr;
    std::vector<NodeId> idx;
    std::vector<Scalar> vals;
    const char* message;
  };
  for (const Case& c : std::vector<Case>{
           {-1, 3, ptr, idx, vals, "m has negative dimensions"},
           {3, 3, {0, 2, 5}, idx, vals, "m pointer array has wrong length"},
           {3, 3, {1, 2, 3, 5}, idx, vals,
            "m pointer/index/value arrays disagree"},
           {3, 3, {0, 2, 3, 4}, idx, vals,
            "m pointer/index/value arrays disagree"},
           {3, 3, ptr, idx, {1, 4, 3, 2},
            "m pointer/index/value arrays disagree"},
           {3, 3, {0, 2, 1, 5}, idx, vals,
            "m has a non-monotone pointer array"},
           {3, 3, ptr, {0, 3, 1, 0, 2}, vals, "m has an out-of-range index"},
           {3, 3, ptr, {2, 0, 1, 0, 2}, vals,
            "m has unsorted or duplicate indices"},
           {3, 3, ptr, {0, 2, 1, 2, 2}, vals,
            "m has unsorted or duplicate indices"},
       }) {
    const Status status =
        CheckCscArrays("m", c.rows, c.cols, c.ptr, c.idx, c.vals);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << c.message;
    EXPECT_EQ(status.message(), c.message);
  }
}

TEST(CscMatrixTest, AtReadsStoredAndStructuralZero) {
  const CscMatrix m = Example3x3();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
}

TEST(CscMatrixTest, MultiplyVector) {
  const CscMatrix m = Example3x3();
  std::vector<Scalar> x{1.0, 2.0, 3.0};
  std::vector<Scalar> y;
  m.MultiplyVector(x, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1 + 2.0 * 3);  // 1 + 6
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2);
  EXPECT_DOUBLE_EQ(y[2], 4.0 * 1 + 5.0 * 3);
}

TEST(CscMatrixTest, MultiplyVectorAlphaBeta) {
  const CscMatrix m = Example3x3();
  std::vector<Scalar> x{1.0, 1.0, 1.0};
  std::vector<Scalar> y{10.0, 10.0, 10.0};
  m.MultiplyVector(x, y, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(y[0], 10.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[2], 10.0 + 2.0 * 9.0);
}

TEST(CscMatrixTest, MaxValueAndColumnMax) {
  const CscMatrix m = Example3x3();
  EXPECT_DOUBLE_EQ(m.MaxValue(), 5.0);
  const auto col_max = m.ColumnMax();
  ASSERT_EQ(col_max.size(), 3u);
  EXPECT_DOUBLE_EQ(col_max[0], 4.0);
  EXPECT_DOUBLE_EQ(col_max[1], 3.0);
  EXPECT_DOUBLE_EQ(col_max[2], 5.0);
}

TEST(CscMatrixTest, Diagonal) {
  const CscMatrix m = Example3x3();
  const auto diag = m.Diagonal();
  ASSERT_EQ(diag.size(), 3u);
  EXPECT_DOUBLE_EQ(diag[0], 1.0);
  EXPECT_DOUBLE_EQ(diag[1], 3.0);
  EXPECT_DOUBLE_EQ(diag[2], 5.0);
}

TEST(CscMatrixTest, TransposedTwiceIsIdentityOp) {
  const CscMatrix m = Example3x3();
  const CscMatrix tt = m.Transposed().Transposed();
  EXPECT_EQ(m, tt);
}

TEST(CscMatrixTest, TransposedSwapsIndices) {
  const CscMatrix m = Example3x3();
  const CscMatrix t = m.Transposed();
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(t.At(i, j), m.At(j, i)) << i << "," << j;
    }
  }
}

TEST(CscMatrixTest, RandomRoundTripAndSpMVAgainstDense) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = static_cast<NodeId>(5 + rng.NextBounded(30));
    CooBuilder builder(n, n);
    const int nnz = static_cast<int>(rng.NextBounded(80));
    for (int e = 0; e < nnz; ++e) {
      builder.Add(rng.NextNode(n), rng.NextNode(n), rng.NextDouble() + 0.1);
    }
    const CscMatrix m = builder.BuildCsc();
    m.Validate();
    EXPECT_EQ(m, m.Transposed().Transposed()) << "trial " << trial;

    // SpMV against dense reference.
    std::vector<Scalar> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.NextDouble();
    std::vector<Scalar> y;
    m.MultiplyVector(x, y);
    const auto dense = test::ToDense(m);
    const auto ref = linalg::MatVec(dense, x);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(y[i], ref[i], 1e-12);
    }
  }
}

}  // namespace
}  // namespace kdash::sparse
