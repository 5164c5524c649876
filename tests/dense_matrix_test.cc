#include "linalg/dense_matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "sparse/coo_builder.h"
#include "test_util.h"

namespace kdash::linalg {
namespace {

TEST(DenseMatrixTest, IdentityAndIndexing) {
  const DenseMatrix identity = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(identity(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(identity(0, 1), 0.0);
  DenseMatrix m(2, 3);
  m(1, 2) = 4.5;
  EXPECT_DOUBLE_EQ(m(1, 2), 4.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(DenseMatrixTest, MatMulKnown) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const DenseMatrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(DenseMatrixTest, TransposeMatMulEqualsExplicitTranspose) {
  Rng rng(1);
  DenseMatrix a(7, 4), b(7, 5);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 4; ++j) a(i, j) = rng.NextDouble();
    for (int j = 0; j < 5; ++j) b(i, j) = rng.NextDouble();
  }
  const DenseMatrix direct = TransposeMatMul(a, b);
  const DenseMatrix reference = MatMul(a.Transposed(), b);
  EXPECT_LT(test::MaxAbsDiff(direct, reference), 1e-13);
}

TEST(DenseMatrixTest, MatVec) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const auto y = MatVec(a, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(DenseMatrixTest, SparseDenseMatMulMatchesDense) {
  Rng rng(2);
  sparse::CooBuilder builder(8, 8);
  for (int e = 0; e < 20; ++e) {
    builder.Add(rng.NextNode(8), rng.NextNode(8), rng.NextDouble());
  }
  const auto s = builder.BuildCsc();
  DenseMatrix x(8, 3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.NextDouble();
  }
  EXPECT_LT(test::MaxAbsDiff(SparseDenseMatMul(s, x),
                             MatMul(test::ToDense(s), x)),
            1e-13);
  EXPECT_LT(test::MaxAbsDiff(SparseTransposeDenseMatMul(s, x),
                             MatMul(test::ToDense(s).Transposed(), x)),
            1e-13);
}

TEST(DenseMatrixTest, OrthonormalizeColumnsProducesOrthonormalBasis) {
  Rng rng(3);
  DenseMatrix y(20, 6);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 6; ++j) y(i, j) = rng.NextGaussian();
  }
  const int rank = OrthonormalizeColumns(y);
  EXPECT_EQ(rank, 6);
  const DenseMatrix gram = TransposeMatMul(y, y);
  EXPECT_LT(test::MaxAbsDiff(gram, DenseMatrix::Identity(6)), 1e-10);
}

TEST(DenseMatrixTest, OrthonormalizeDetectsRankDeficiency) {
  DenseMatrix y(5, 3);
  for (int i = 0; i < 5; ++i) {
    y(i, 0) = i + 1.0;
    y(i, 1) = 2.0 * (i + 1.0);  // dependent on column 0
    y(i, 2) = (i == 0) ? 1.0 : 0.0;
  }
  EXPECT_EQ(OrthonormalizeColumns(y), 2);
}

TEST(DenseMatrixTest, InvertDenseRoundTrip) {
  Rng rng(4);
  const int n = 12;
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.NextDouble() - 0.5;
    a(i, i) += n;  // ensure well-conditioned
  }
  const DenseMatrix inv = InvertDense(a);
  EXPECT_LT(test::MaxAbsDiff(MatMul(a, inv), DenseMatrix::Identity(n)), 1e-10);
  EXPECT_LT(test::MaxAbsDiff(MatMul(inv, a), DenseMatrix::Identity(n)), 1e-10);
}

TEST(DenseMatrixTest, InvertNeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  DenseMatrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  const DenseMatrix inv = InvertDense(a);
  EXPECT_LT(test::MaxAbsDiff(MatMul(a, inv), DenseMatrix::Identity(2)), 1e-14);
}

TEST(JacobiEigenTest, DiagonalMatrix) {
  DenseMatrix d(3, 3);
  d(0, 0) = 1.0; d(1, 1) = 5.0; d(2, 2) = 3.0;
  const SymmetricEigen eigen = JacobiEigenSymmetric(d);
  EXPECT_DOUBLE_EQ(eigen.eigenvalues[0], 5.0);
  EXPECT_DOUBLE_EQ(eigen.eigenvalues[1], 3.0);
  EXPECT_DOUBLE_EQ(eigen.eigenvalues[2], 1.0);
}

TEST(JacobiEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  DenseMatrix s(2, 2);
  s(0, 0) = 2; s(0, 1) = 1; s(1, 0) = 1; s(1, 1) = 2;
  const SymmetricEigen eigen = JacobiEigenSymmetric(s);
  EXPECT_NEAR(eigen.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eigen.eigenvalues[1], 1.0, 1e-12);
}

TEST(JacobiEigenTest, ReconstructsMatrix) {
  Rng rng(5);
  const int n = 15;
  DenseMatrix s(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const Scalar v = rng.NextDouble() - 0.5;
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  const SymmetricEigen eigen = JacobiEigenSymmetric(s);
  // Rebuild E Λ Eᵀ.
  DenseMatrix lambda(n, n);
  for (int i = 0; i < n; ++i) {
    lambda(i, i) = eigen.eigenvalues[static_cast<std::size_t>(i)];
  }
  const DenseMatrix rebuilt =
      MatMul(MatMul(eigen.eigenvectors, lambda), eigen.eigenvectors.Transposed());
  EXPECT_LT(test::MaxAbsDiff(rebuilt, s), 1e-10);
  // Eigenvectors orthonormal.
  const DenseMatrix gram =
      TransposeMatMul(eigen.eigenvectors, eigen.eigenvectors);
  EXPECT_LT(test::MaxAbsDiff(gram, DenseMatrix::Identity(n)), 1e-10);
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

}  // namespace
}  // namespace kdash::linalg
