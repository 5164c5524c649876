#include "lu/triangular.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datasets/datasets.h"
#include "linalg/dense_matrix.h"
#include "lu/sparse_lu.h"
#include "reorder/reorder.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::lu {
namespace {

using sparse::CscMatrix;

LuFactors FactorsOfRandomRwr(NodeId n, Index m, Scalar c, std::uint64_t seed) {
  const auto g = test::RandomDirectedGraph(n, m, seed);
  return FactorizeLu(BuildRwrSystemMatrix(g.NormalizedAdjacency(), c));
}

TEST(TriangularSolveTest, LowerSolveMatchesDense) {
  const LuFactors factors = FactorsOfRandomRwr(30, 150, 0.9, 1);
  Rng rng(2);
  std::vector<Scalar> b(30);
  for (auto& v : b) v = rng.NextDouble() - 0.5;
  auto x = b;
  SolveLowerInPlace(factors.lower, x);
  // Check L x == b.
  const auto dense_l = test::ToDense(factors.lower);
  const auto back = linalg::MatVec(dense_l, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
}

TEST(TriangularSolveTest, UpperSolveMatchesDense) {
  const LuFactors factors = FactorsOfRandomRwr(30, 150, 0.9, 3);
  Rng rng(4);
  std::vector<Scalar> b(30);
  for (auto& v : b) v = rng.NextDouble() - 0.5;
  auto x = b;
  SolveUpperInPlace(factors.upper, x);
  const auto dense_u = test::ToDense(factors.upper);
  const auto back = linalg::MatVec(dense_u, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
}

TEST(TriangularInverseTest, LowerInverseTimesLowerIsIdentity) {
  const LuFactors factors = FactorsOfRandomRwr(40, 250, 0.95, 5);
  const CscMatrix l_inv = InvertLowerTriangular(factors.lower);
  const auto product =
      linalg::MatMul(test::ToDense(factors.lower), test::ToDense(l_inv));
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(40)), 1e-12);
}

TEST(TriangularInverseTest, UpperInverseTimesUpperIsIdentity) {
  const LuFactors factors = FactorsOfRandomRwr(40, 250, 0.95, 6);
  const CscMatrix u_inv = InvertUpperTriangular(factors.upper);
  const auto product =
      linalg::MatMul(test::ToDense(factors.upper), test::ToDense(u_inv));
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(40)), 1e-12);
}

TEST(TriangularInverseTest, InversesStayTriangular) {
  // Eq. 4–5 of the paper: L⁻¹ is lower triangular, U⁻¹ upper triangular.
  const LuFactors factors = FactorsOfRandomRwr(50, 300, 0.9, 7);
  const CscMatrix l_inv = InvertLowerTriangular(factors.lower);
  const CscMatrix u_inv = InvertUpperTriangular(factors.upper);
  for (NodeId j = 0; j < 50; ++j) {
    for (Index k = l_inv.ColBegin(j); k < l_inv.ColEnd(j); ++k) {
      EXPECT_GE(l_inv.RowIndex(k), j);
    }
    for (Index k = u_inv.ColBegin(j); k < u_inv.ColEnd(j); ++k) {
      EXPECT_LE(u_inv.RowIndex(k), j);
    }
  }
}

TEST(TriangularInverseTest, PaperEquation4Recurrence) {
  // Spot-check Eq. 4: L⁻¹(i,i) = 1/L(i,i) and
  // L⁻¹(i,j) = -1/L(i,i) Σ_{k=j..i-1} L(i,k) L⁻¹(k,j) for i > j.
  const LuFactors factors = FactorsOfRandomRwr(20, 100, 0.9, 8);
  const CscMatrix l_inv = InvertLowerTriangular(factors.lower);
  const auto l = test::ToDense(factors.lower);
  const auto linv = test::ToDense(l_inv);
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(linv(i, i), 1.0 / l(i, i), 1e-12);
    for (int j = 0; j < i; ++j) {
      Scalar sum = 0.0;
      for (int k = j; k < i; ++k) sum += l(i, k) * linv(k, j);
      EXPECT_NEAR(linv(i, j), -sum / l(i, i), 1e-12) << i << "," << j;
    }
  }
}

TEST(TriangularInverseTest, CompositionGivesSystemInverse) {
  // c · U⁻¹ L⁻¹ e_q must equal the RWR proximity vector (Eq. 3).
  const NodeId n = 35;
  const auto g = test::RandomDirectedGraph(n, 200, 10);
  const auto a = g.NormalizedAdjacency();
  const Scalar c = 0.9;
  const LuFactors factors = FactorizeLu(BuildRwrSystemMatrix(a, c));
  const CscMatrix l_inv = InvertLowerTriangular(factors.lower);
  const CscMatrix u_inv = InvertUpperTriangular(factors.upper);

  const auto w_inv_dense = linalg::MatMul(test::ToDense(u_inv), test::ToDense(l_inv));
  const auto w_dense = test::ToDense(BuildRwrSystemMatrix(a, c));
  const auto product = linalg::MatMul(w_dense, w_inv_dense);
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(n)), 1e-11);
}

// The oracle for the inverse builders, which both run backward
// substitution: column j of `inverse` is the dense solve of
// upper x = e_j, bit for bit, with exact zeros dropped. Returns the number
// of columns that differ.
NodeId ColumnsDifferingFromBackwardSolve(const CscMatrix& upper,
                                         const CscMatrix& inverse) {
  const NodeId n = upper.cols();
  NodeId differing = 0;
  for (NodeId j = 0; j < n; ++j) {
    std::vector<Scalar> x(static_cast<std::size_t>(n), 0.0);
    x[static_cast<std::size_t>(j)] = 1.0;
    SolveUpperInPlace(upper, x);
    std::vector<NodeId> want_rows;
    std::vector<Scalar> want_vals;
    for (NodeId i = 0; i < n; ++i) {
      const Scalar xi = x[static_cast<std::size_t>(i)];
      if (xi == 0.0) continue;
      want_rows.push_back(i);
      want_vals.push_back(xi);
    }
    const std::vector<NodeId> got_rows(
        inverse.row_idx().begin() + inverse.ColBegin(j),
        inverse.row_idx().begin() + inverse.ColEnd(j));
    const std::vector<Scalar> got_vals(
        inverse.values().begin() + inverse.ColBegin(j),
        inverse.values().begin() + inverse.ColEnd(j));
    const bool same =
        got_rows == want_rows &&
        std::memcmp(got_vals.data(), want_vals.data(),
                    want_vals.size() * sizeof(Scalar)) == 0;
    if (!same) ++differing;
  }
  return differing;
}

bool BitIdentical(const CscMatrix& a, const CscMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.col_ptr() == b.col_ptr() && a.row_idx() == b.row_idx() &&
         a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(Scalar)) == 0;
}

// The oracle's inputs. Random factors around the 16-solve block (one
// partial block, exactly one, one plus a solve, and two plus a partial
// third), then hybrid-reordered factors as the index builds them: Social's
// border gives the factors a dense tail shared by neighbouring solves,
// while Email's factors stay so sparse that neighbouring solves barely
// overlap.
std::vector<std::pair<std::string, LuFactors>> OracleInputs() {
  std::vector<std::pair<std::string, LuFactors>> inputs;
  for (const NodeId n : {1, 15, 16, 17, 35}) {
    inputs.emplace_back(
        "n=" + std::to_string(n),
        FactorsOfRandomRwr(n, n > 1 ? static_cast<Index>(6 * n) : 0, 0.9,
                           static_cast<std::uint64_t>(60 + n)));
  }
  for (const datasets::DatasetId id :
       {datasets::DatasetId::kSocial, datasets::DatasetId::kEmail}) {
    const datasets::Dataset data = datasets::MakeDataset(id, 0.1);
    const reorder::Reordering order =
        reorder::ComputeReordering(data.graph, reorder::Method::kHybrid);
    const CscMatrix a = sparse::PermuteSymmetric(
        data.graph.NormalizedAdjacency(), order.new_of_old);
    inputs.emplace_back(data.name,
                        FactorizeLu(BuildRwrSystemMatrix(a, 0.95)));
  }
  return inputs;
}

TEST(TriangularInverseOracleTest, InversesEqualBackwardSolves) {
  // Row i of L⁻¹ is the backward solve of Lᵀ y = e_i, i.e. column i of
  // L⁻¹ᵀ; column j of U⁻¹ is the backward solve of U x = e_j.
  for (const auto& [label, factors] : OracleInputs()) {
    const CscMatrix lower_t = factors.lower.Transposed();
    for (const int threads : {1, 3}) {
      const CscMatrix l_inv = InvertLowerTriangular(factors.lower, threads);
      EXPECT_EQ(
          ColumnsDifferingFromBackwardSolve(lower_t, l_inv.Transposed()), 0)
          << label << " L rows, threads=" << threads;
      const CscMatrix u_inv = InvertUpperTriangular(factors.upper, threads);
      EXPECT_EQ(ColumnsDifferingFromBackwardSolve(factors.upper, u_inv), 0)
          << label << " U columns, threads=" << threads;
    }
  }
}

TEST(TriangularInverseOracleTest, UInverseTransposedIsInverseOfUTransposed) {
  // The index stores U⁻¹ᵀ as InvertLowerTriangular(Uᵀ); it must be the
  // transpose of InvertUpperTriangular(U) bit for bit.
  for (const auto& [label, factors] : OracleInputs()) {
    const CscMatrix upper_t = factors.upper.Transposed();
    for (const int threads : {1, 3}) {
      EXPECT_TRUE(BitIdentical(
          InvertLowerTriangular(upper_t, threads),
          InvertUpperTriangular(factors.upper, threads).Transposed()))
          << label << ", threads=" << threads;
    }
  }
}

class TriangularRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TriangularRoundTripTest, SolveThenMultiplyIsIdentity) {
  const auto [n, c] = GetParam();
  const LuFactors factors = FactorsOfRandomRwr(
      static_cast<NodeId>(n), static_cast<Index>(6 * n), c,
      static_cast<std::uint64_t>(n));
  Rng rng(static_cast<std::uint64_t>(n) + 99);
  std::vector<Scalar> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.NextDouble();
  auto x = b;
  SolveLowerInPlace(factors.lower, x);
  SolveUpperInPlace(factors.upper, x);
  // Multiply back: W x = L (U x).
  const auto dense_l = test::ToDense(factors.lower);
  const auto dense_u = test::ToDense(factors.upper);
  const auto ux = linalg::MatVec(dense_u, x);
  const auto lux = linalg::MatVec(dense_l, ux);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(lux[i], b[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriangularRoundTripTest,
                         ::testing::Combine(::testing::Values(10, 40, 120),
                                            ::testing::Values(0.5, 0.9, 0.99)));

}  // namespace
}  // namespace kdash::lu
