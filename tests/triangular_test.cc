#include "lu/triangular.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datasets/datasets.h"
#include "head_run_csc.h"
#include "linalg/dense_matrix.h"
#include "lu/sparse_lu.h"
#include "reorder/reorder.h"
#include "sparse/permute.h"
#include "test_util.h"

namespace kdash::lu {
namespace {

using sparse::CscMatrix;
using sparse::HeadRunMatrix;

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
  const CscMatrix l_inv = test::ToCsc(InvertLowerTriangular(factors.lower));
  const auto product =
      linalg::MatMul(test::ToDense(factors.lower), test::ToDense(l_inv));
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(40)), 1e-12);
}

TEST(TriangularInverseTest, UpperInverseTimesUpperIsIdentity) {
  const LuFactors factors = FactorsOfRandomRwr(40, 250, 0.95, 6);
  // InvertUpperTriangular returns U⁻¹ᵀ.
  const CscMatrix u_inv =
      test::ToCsc(InvertUpperTriangular(factors.upper)).Transposed();
  const auto product =
      linalg::MatMul(test::ToDense(factors.upper), test::ToDense(u_inv));
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(40)), 1e-12);
}

TEST(TriangularInverseTest, InversesStayTriangular) {
  // Eq. 4–5 of the paper: L⁻¹ is lower triangular, U⁻¹ upper triangular.
  const LuFactors factors = FactorsOfRandomRwr(50, 300, 0.9, 7);
  const CscMatrix l_inv = test::ToCsc(InvertLowerTriangular(factors.lower));
  const CscMatrix u_inv =
      test::ToCsc(InvertUpperTriangular(factors.upper)).Transposed();
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
  const CscMatrix l_inv = test::ToCsc(InvertLowerTriangular(factors.lower));
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
  const CscMatrix l_inv = test::ToCsc(InvertLowerTriangular(factors.lower));
  const CscMatrix u_inv =
      test::ToCsc(InvertUpperTriangular(factors.upper)).Transposed();

  const auto w_inv_dense = linalg::MatMul(test::ToDense(u_inv), test::ToDense(l_inv));
  const auto w_dense = test::ToDense(BuildRwrSystemMatrix(a, c));
  const auto product = linalg::MatMul(w_dense, w_inv_dense);
  EXPECT_LT(test::MaxAbsDiff(product, linalg::DenseMatrix::Identity(n)), 1e-11);
}

// The oracle for the inverse builders, which both run backward
// substitution: column j is the dense solve of upper x = e_j, bit for bit,
// with exact zeros dropped.
CscMatrix BackwardSolveColumns(const CscMatrix& upper) {
  const NodeId n = upper.cols();
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> rows;
  std::vector<Scalar> values;
  for (NodeId j = 0; j < n; ++j) {
    std::vector<Scalar> x(static_cast<std::size_t>(n), 0.0);
    x[static_cast<std::size_t>(j)] = 1.0;
    SolveUpperInPlace(upper, x);
    for (NodeId i = 0; i < n; ++i) {
      const Scalar xi = x[static_cast<std::size_t>(i)];
      if (xi == 0.0) continue;
      rows.push_back(i);
      values.push_back(xi);
    }
    col_ptr.push_back(static_cast<Index>(rows.size()));
  }
  return CscMatrix(n, n, std::move(col_ptr), std::move(rows),
                   std::move(values));
}

// An n × n upper triangular factor whose off-diagonal entries all sit in
// its last `border` columns, where they fill every row above the diagonal.
// Chunks of equal Σ nnz(T(:, j)) then differ widely in width: one spans
// the light columns before the border, the others a block or two each.
CscMatrix BorderUpper(NodeId n, NodeId border, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> rows;
  std::vector<Scalar> values;
  for (NodeId j = 0; j < n; ++j) {
    for (NodeId i = 0; j >= n - border && i < j; ++i) {
      rows.push_back(i);
      values.push_back(0.1 * (rng.NextDouble() - 0.5));
    }
    rows.push_back(j);
    values.push_back(1.0 + rng.NextDouble());
    col_ptr.push_back(static_cast<Index>(rows.size()));
  }
  return CscMatrix(n, n, std::move(col_ptr), std::move(rows),
                   std::move(values));
}

// The oracle's inputs. Random factors around the 16-solve block (one
// partial block, exactly one, one plus a solve, and two plus a partial
// third), the hybrid-reordered factors of a random graph with n = 16·20 +
// 7 (a partial last block), a factor whose work all sits in its last 64
// columns, then hybrid-reordered factors as the index builds them: Social's
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
  const auto hybrid_factors = [](const graph::Graph& g) {
    const reorder::Reordering order =
        reorder::ComputeReordering(g, reorder::Method::kHybrid);
    return FactorizeLu(BuildRwrSystemMatrix(
        sparse::PermuteSymmetric(g.NormalizedAdjacency(), order.new_of_old),
        0.95));
  };
  constexpr NodeId kOddN = 16 * 20 + 7;
  inputs.emplace_back("hybrid n=16·20+7",
                      hybrid_factors(test::RandomDirectedGraph(
                          kOddN, 6 * kOddN, 23)));
  const CscMatrix border = BorderUpper(kOddN, 64, 29);
  inputs.emplace_back("border", LuFactors{border.Transposed(), border, kOddN});
  for (const datasets::DatasetId id :
       {datasets::DatasetId::kSocial, datasets::DatasetId::kEmail}) {
    const datasets::Dataset data = datasets::MakeDataset(id, 0.1);
    inputs.emplace_back(data.name, hybrid_factors(data.graph));
  }
  return inputs;
}

// Restores `m` from the arrays it stores, as the index loader does.
Result<HeadRunMatrix> Restore(const HeadRunMatrix& m) {
  return HeadRunMatrix::FromStored(m.rows(), m.ColumnExtents(), m.head_rows(),
                                   m.head_values(), m.run_values(), "test");
}

TEST(TriangularInverseOracleTest, InversesEqualBackwardSolvesInHeadRunForm) {
  // Row i of L⁻¹ is the backward solve of Lᵀ y = e_i, i.e. column i of
  // L⁻¹ᵀ; row j of U⁻¹ᵀ is the backward solve of U x = e_j. Both
  // builders' head + run output must be the test-side FromCsc of the
  // oracle's transpose, bit for bit, and must load back through
  // FromStored. Eight threads are more than the small inputs have blocks.
  for (const auto& [label, factors] : OracleInputs()) {
    const HeadRunMatrix want_lower = test::FromCsc(
        BackwardSolveColumns(factors.lower.Transposed()).Transposed());
    const HeadRunMatrix want_upper =
        test::FromCsc(BackwardSolveColumns(factors.upper).Transposed());
    for (const int threads : {1, 3, 8}) {
      SCOPED_TRACE(label + ", threads=" + std::to_string(threads));
      for (const auto& [got, want] :
           {std::pair{InvertLowerTriangular(factors.lower, threads),
                      want_lower},
            std::pair{InvertUpperTriangular(factors.upper, threads),
                      want_upper}}) {
        EXPECT_TRUE(test::SameBits(got, want));
        const auto restored = Restore(got);
        ASSERT_TRUE(restored.ok()) << restored.status();
        EXPECT_TRUE(test::SameBits(*restored, got));
      }
    }
  }
}

TEST(TriangularInverseOracleTest, UInverseTransposedIsInverseOfUTransposed) {
  // (Uᵀ)⁻¹ = U⁻¹ᵀ: InvertLowerTriangular(Uᵀ) solves on U, as
  // InvertUpperTriangular(U) does, and must give the same matrix bit for
  // bit.
  for (const auto& [label, factors] : OracleInputs()) {
    const CscMatrix upper_t = factors.upper.Transposed();
    for (const int threads : {1, 3}) {
      EXPECT_TRUE(test::SameBits(InvertLowerTriangular(upper_t, threads),
                                 InvertUpperTriangular(factors.upper, threads)))
          << label << ", threads=" << threads;
    }
  }
}

// A unit upper triangular T of n = 21 (one full 16-solve block and a
// partial one) whose inverse holds two exact zeros inside the pattern:
//   * solve 2: x_1 = −1, then x_0 = 0 − 1·1 − 1·(−1) cancels to +0.0;
//   * solve 19: x_18 = −1, x_17 cancels to +0.0 before its division by
//     T(17, 17) = −2, which makes it −0.0.
// Row 0 of T⁻¹ is nonzero in solves 0 and 1, and row 17 in solves 17 and
// 18, so each zero sits beside nonzero lanes of its block row.
CscMatrix UpperWithCancellations() {
  constexpr NodeId kN = 21;
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> rows;
  std::vector<Scalar> values;
  const auto add = [&](NodeId i, Scalar v) {
    rows.push_back(i);
    values.push_back(v);
  };
  for (NodeId j = 0; j < kN; ++j) {
    if (j == 1) add(0, 1.0);
    if (j == 2) {
      add(0, 1.0);
      add(1, 1.0);
    }
    if (j == 18) add(17, 1.0);
    if (j == 19) {
      add(17, 1.0);
      add(18, 1.0);
    }
    add(j, j == 17 ? -2.0 : 1.0);
    col_ptr.push_back(static_cast<Index>(rows.size()));
  }
  return CscMatrix(kN, kN, std::move(col_ptr), std::move(rows),
                   std::move(values));
}

TEST(TriangularInverseOracleTest, ExactZerosInsideABlockRowAreDropped) {
  const CscMatrix upper = UpperWithCancellations();
  const NodeId n = upper.cols();
  const auto solve = [&](NodeId j) {
    std::vector<Scalar> x(static_cast<std::size_t>(n), 0.0);
    x[static_cast<std::size_t>(j)] = 1.0;
    SolveUpperInPlace(upper, x);
    return x;
  };
  // The dense solves hold both zeros, with their signs.
  const std::vector<Scalar> x2 = solve(2);
  ASSERT_EQ(x2[1], -1.0);
  ASSERT_EQ(x2[0], 0.0);
  ASSERT_FALSE(std::signbit(x2[0]));
  const std::vector<Scalar> x19 = solve(19);
  ASSERT_EQ(x19[18], -1.0);
  ASSERT_EQ(x19[17], 0.0);
  ASSERT_TRUE(std::signbit(x19[17]));

  const HeadRunMatrix want =
      test::FromCsc(BackwardSolveColumns(upper).Transposed());
  // The diagonal, plus x_0 in solve 1, x_1 in solve 2, x_17 in solve 18
  // and x_18 in solve 19: neither zero is kept.
  EXPECT_EQ(want.nnz(), Index{n + 4});
  const CscMatrix upper_t = upper.Transposed();
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const HeadRunMatrix& got : {InvertUpperTriangular(upper, threads),
                                     InvertLowerTriangular(upper_t, threads)}) {
      EXPECT_TRUE(test::SameBits(got, want));
      const auto restored = Restore(got);
      ASSERT_TRUE(restored.ok()) << restored.status();
      EXPECT_TRUE(test::SameBits(*restored, got));
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
