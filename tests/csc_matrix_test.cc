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

TEST(CscMatrixTest, MultiplyTransposeVector) {
  const CscMatrix m = Example3x3();
  std::vector<Scalar> x{1.0, 2.0, 3.0};
  std::vector<Scalar> y;
  m.MultiplyTransposeVector(x, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1 + 4.0 * 3);
  EXPECT_DOUBLE_EQ(y[1], 3.0 * 2);
  EXPECT_DOUBLE_EQ(y[2], 2.0 * 1 + 5.0 * 3);
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

TEST(CscMatrixTest, ColumnDot) {
  const CscMatrix m = Example3x3();
  const std::vector<Scalar> x{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(m.ColumnDot(0, x), 1.0 * 1 + 4.0 * 3);
  EXPECT_DOUBLE_EQ(m.ColumnDot(1, x), 3.0 * 2);
  EXPECT_DOUBLE_EQ(m.ColumnDot(2, x), 2.0 * 1 + 5.0 * 3);
}

TEST(CscMatrixTest, ColumnDotLongColumnMatchesNaive) {
  // Columns longer than the 4-way unroll width, including remainders 0..3.
  Rng rng(11);
  for (int len : {5, 8, 9, 10, 11, 31}) {
    CooBuilder builder(40, 1);
    std::vector<Scalar> x(40);
    for (auto& v : x) v = rng.NextDouble() - 0.5;
    Scalar naive = 0.0;
    for (int t = 0; t < len; ++t) {
      const NodeId row = static_cast<NodeId>(t * 40 / len);
      const Scalar value = rng.NextDouble();
      builder.Add(row, 0, value);
      naive += value * x[static_cast<std::size_t>(row)];
    }
    const CscMatrix m = builder.BuildCsc();
    EXPECT_NEAR(m.ColumnDot(0, x), naive, 1e-14) << "len=" << len;
  }
}

TEST(CscMatrixTest, ColumnDotSparseMatchesDense) {
  const CscMatrix m = Example3x3();
  std::vector<Scalar> x(3, 0.0);
  x[0] = 1.0;
  x[2] = 3.0;
  const std::vector<NodeId> support{0, 2};
  for (NodeId col = 0; col < 3; ++col) {
    EXPECT_DOUBLE_EQ(m.ColumnDotSparse(col, x, support), m.ColumnDot(col, x));
  }
}

TEST(CscMatrixTest, ColumnDotSparseEdgeCases) {
  const CscMatrix m = Example3x3();
  const std::vector<Scalar> x{1.0, 2.0, 3.0};
  // Empty support.
  EXPECT_DOUBLE_EQ(m.ColumnDotSparse(0, x, {}), 0.0);
  // Support disjoint from the column pattern.
  EXPECT_DOUBLE_EQ(m.ColumnDotSparse(1, x, {0, 2}), 0.0);
  // Support covering every row (superset of the column pattern).
  EXPECT_DOUBLE_EQ(m.ColumnDotSparse(2, x, {0, 1, 2}), m.ColumnDot(2, x));
}

TEST(CscMatrixTest, ColumnDotSparseRandomAgreesWithDense) {
  Rng rng(29);
  CooBuilder builder(30, 30);
  for (int e = 0; e < 200; ++e) {
    builder.Add(rng.NextNode(30), rng.NextNode(30), rng.NextDouble());
  }
  const CscMatrix m = builder.BuildCsc();
  std::vector<Scalar> x(30, 0.0);
  std::vector<NodeId> support;
  for (NodeId i = 0; i < 30; i += 3) {
    support.push_back(i);
    x[static_cast<std::size_t>(i)] = rng.NextDouble() - 0.5;
  }
  for (NodeId col = 0; col < 30; ++col) {
    EXPECT_NEAR(m.ColumnDotSparse(col, x, support), m.ColumnDot(col, x),
                1e-14)
        << "col " << col;
  }
}

TEST(CscMatrixTest, ScatterColumn) {
  const CscMatrix m = Example3x3();
  std::vector<Scalar> out(3, -1.0);
  m.ScatterColumn(0, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 4.0);
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
