#include "sparse/head_run_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "sparse/csc_matrix.h"

namespace kdash::sparse {
namespace {

constexpr Index kHeadEntryBytes = 12;
constexpr Index kRunSlotBytes = 8;

// A CSC matrix with the given ascending row pattern per column and nonzero
// values drawn from `rng` (positive unless `mixed_signs`).
CscMatrix FromPatterns(NodeId rows,
                       const std::vector<std::vector<NodeId>>& patterns,
                       Rng& rng, bool mixed_signs = false) {
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  for (const auto& pattern : patterns) {
    for (const NodeId row : pattern) {
      row_idx.push_back(row);
      Scalar v = 0.05 + rng.NextDouble();
      if (mixed_signs && rng.NextBounded(2) == 0) v = -v;
      values.push_back(v);
    }
    col_ptr.push_back(static_cast<Index>(row_idx.size()));
  }
  return CscMatrix(rows, static_cast<NodeId>(patterns.size()),
                   std::move(col_ptr), std::move(row_idx), std::move(values));
}

// A random ascending pattern over [0, rows): a sparse scatter, then (with
// some probability) a dense-ish tail starting at a random row, the shape
// the hybrid reordering gives the inverses.
std::vector<NodeId> RandomPattern(NodeId rows, Rng& rng) {
  std::vector<bool> on(static_cast<std::size_t>(rows), false);
  const double scatter = rng.NextDouble() * 0.2;
  for (auto&& bit : on) bit = rng.NextDouble() < scatter;
  if (rng.NextBounded(3) != 0) {
    const auto tail = static_cast<NodeId>(
        rng.NextBounded(static_cast<std::uint64_t>(rows)));
    const double fill = 0.5 + 0.5 * rng.NextDouble();
    for (NodeId r = tail; r < rows; ++r) {
      if (rng.NextDouble() < fill) on[static_cast<std::size_t>(r)] = true;
    }
  }
  std::vector<NodeId> pattern;
  for (NodeId r = 0; r < rows; ++r) {
    if (on[static_cast<std::size_t>(r)]) pattern.push_back(r);
  }
  return pattern;
}

CscMatrix RandomMatrix(NodeId rows, NodeId cols, std::uint64_t seed,
                       bool mixed_signs = false) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> patterns;
  for (NodeId c = 0; c < cols; ++c) {
    patterns.push_back(RandomPattern(rows, rng));
  }
  return FromPatterns(rows, patterns, rng, mixed_signs);
}

Index ColumnBytes(const HeadRunMatrix& m, NodeId col) {
  return kHeadEntryBytes * static_cast<Index>(m.HeadRows(col).size()) +
         kRunSlotBytes * static_cast<Index>(m.Run(col).size());
}

TEST(HeadRunMatrixTest, ToCscInvertsFromCscOnRandomMatrices) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const CscMatrix csc = RandomMatrix(90, 70, seed);
    const HeadRunMatrix m = HeadRunMatrix::FromCsc(csc, 1);
    EXPECT_EQ(m.ToCsc(), csc) << "seed " << seed;
    EXPECT_EQ(m.nnz(), csc.nnz());
    EXPECT_EQ(m.col_ptr(), csc.col_ptr());
    EXPECT_EQ(HeadRunMatrix::FromCsc(csc, 4), m) << "seed " << seed;
  }
}

TEST(HeadRunMatrixTest, EdgeCaseColumns) {
  constexpr NodeId kRows = 40;
  std::vector<NodeId> dense(kRows);
  for (NodeId r = 0; r < kRows; ++r) dense[static_cast<std::size_t>(r)] = r;
  const std::vector<std::vector<NodeId>> patterns = {
      {},                                      // 0: empty, so no run
      {17},                                    // 1: one entry
      dense,                                   // 2: fully dense
      {2, 30, 31, 33, 34, 35, 36, 37, 38, 39}, // 3: run ending at row n-1
      {0, 13, 26, 39},                         // 4: spread entries
      {5, 6, 7, 8, 20},                        // 5: a long head
  };
  Rng rng(7);
  const CscMatrix csc = FromPatterns(kRows, patterns, rng);
  const HeadRunMatrix m = HeadRunMatrix::FromCsc(csc, 1);
  EXPECT_EQ(m.ToCsc(), csc);

  EXPECT_TRUE(m.HeadRows(0).empty());
  EXPECT_TRUE(m.Run(0).empty());
  EXPECT_EQ(m.RunBegin(0), kRows);

  // One slot (8 bytes) is cheaper than one head entry (12).
  EXPECT_TRUE(m.HeadRows(1).empty());
  EXPECT_EQ(m.RunBegin(1), 17);
  ASSERT_EQ(m.Run(1).size(), 1u);
  EXPECT_EQ(m.Run(1)[0], csc.Value(csc.ColBegin(1)));

  EXPECT_TRUE(m.HeadRows(2).empty());
  EXPECT_EQ(m.RunBegin(2), 0);
  EXPECT_EQ(m.Run(2).size(), static_cast<std::size_t>(kRows));

  // Head {2} + run 30..39 (92 bytes) ties head {2, 30, 31} + run 33..39;
  // the longer run wins. Row 32 is fill.
  EXPECT_EQ(std::vector<NodeId>(m.HeadRows(3).begin(), m.HeadRows(3).end()),
            std::vector<NodeId>{2});
  EXPECT_EQ(m.RunBegin(3), 30);
  EXPECT_EQ(m.Run(3).size(), 10u);
  EXPECT_EQ(m.Run(3)[2], 0.0);
  EXPECT_EQ(ColumnBytes(m, 3), 92);

  // Spread entries: a head of three and a one-slot run (44 bytes). A last
  // nonzero always costs less as a run slot than as a head entry, so only
  // an empty column has no run.
  EXPECT_EQ(m.HeadRows(4).size(), 3u);
  EXPECT_EQ(m.RunBegin(4), 39);
  EXPECT_EQ(ColumnBytes(m, 4), 44);

  // 5..8 then 20: a run over 5..20 costs 128 bytes, all head 60, and the
  // head 5..8 + a one-slot run at 20 only 56 (the head is always a prefix).
  EXPECT_EQ(m.HeadRows(5).size(), 4u);
  EXPECT_EQ(m.RunBegin(5), 20);
  EXPECT_EQ(ColumnBytes(m, 5), 56);
}

TEST(HeadRunMatrixTest, SplitIsByteMinimal) {
  // Brute force over every cut of small random columns: the chosen one
  // costs no more than any other, and among equal costs is the longest run.
  Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const auto rows = static_cast<NodeId>(1 + rng.NextBounded(24));
    const std::vector<NodeId> pattern = RandomPattern(rows, rng);
    const HeadRunMatrix m =
        HeadRunMatrix::FromCsc(FromPatterns(rows, {pattern}, rng), 1);
    const std::size_t chosen = m.HeadRows(0).size();
    Index best = std::numeric_limits<Index>::max();
    std::size_t first_best = 0;
    for (std::size_t s = 0; s <= pattern.size(); ++s) {
      const Index run =
          s == pattern.size() ? 0 : pattern.back() - pattern[s] + 1;
      const Index bytes =
          kHeadEntryBytes * static_cast<Index>(s) + kRunSlotBytes * run;
      if (bytes < best) {
        best = bytes;
        first_best = s;
      }
    }
    EXPECT_EQ(ColumnBytes(m, 0), best) << "trial " << trial;
    EXPECT_EQ(chosen, first_best) << "trial " << trial;
  }
}

// Σ column·x in long double, ascending rows, and Σ |column|·|x|.
void NaiveDot(const CscMatrix& csc, NodeId col, const std::vector<Scalar>& x,
              long double* dot, long double* magnitude) {
  *dot = 0.0L;
  *magnitude = 0.0L;
  for (Index k = csc.ColBegin(col); k < csc.ColEnd(col); ++k) {
    const long double term = static_cast<long double>(csc.Value(k)) *
                             x[static_cast<std::size_t>(csc.RowIndex(k))];
    *dot += term;
    *magnitude += std::fabs(term);
  }
}

// Σ column(r)·x[r] over r in x_rows, ascending, into one accumulator: the
// order ColumnDotSparse adds its terms in.
Scalar AscendingSparseDot(const CscMatrix& csc, NodeId col,
                          const std::vector<Scalar>& x,
                          const std::vector<NodeId>& x_rows) {
  Scalar acc = 0.0;
  for (const NodeId r : x_rows) {
    const Scalar value = csc.At(r, col);
    if (value != 0.0) acc += value * x[static_cast<std::size_t>(r)];
  }
  return acc;
}

TEST(HeadRunMatrixTest, DotsAgreeWithNaiveDenseDot) {
  constexpr NodeId kRows = 64;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const CscMatrix csc =
        RandomMatrix(kRows, 50, 100 + seed, /*mixed_signs=*/true);
    const HeadRunMatrix m = HeadRunMatrix::FromCsc(csc, 1);
    Rng rng(seed);
    // x dense for ColumnDot; x_sparse zero outside a random support.
    std::vector<Scalar> x(static_cast<std::size_t>(kRows));
    for (Scalar& v : x) v = rng.NextDouble() - 0.3;
    std::vector<Scalar> x_sparse(static_cast<std::size_t>(kRows), 0.0);
    std::vector<NodeId> support;
    for (NodeId r = 0; r < kRows; ++r) {
      if (rng.NextBounded(4) == 0) {
        support.push_back(r);
        x_sparse[static_cast<std::size_t>(r)] = x[static_cast<std::size_t>(r)];
      }
    }
    for (NodeId col = 0; col < csc.cols(); ++col) {
      long double dot = 0.0L, magnitude = 0.0L;
      NaiveDot(csc, col, x, &dot, &magnitude);
      EXPECT_LE(std::fabs(static_cast<long double>(m.ColumnDot(col, x)) - dot),
                1e-15L * magnitude)
          << "seed " << seed << " col " << col;
      NaiveDot(csc, col, x_sparse, &dot, &magnitude);
      EXPECT_LE(std::fabs(static_cast<long double>(
                              m.ColumnDotSparse(col, x_sparse, support)) -
                          dot),
                1e-15L * magnitude)
          << "seed " << seed << " col " << col;
      // The sparse walk skips the run's fill and adds the stored terms in
      // ascending row order.
      EXPECT_EQ(m.ColumnDotSparse(col, x_sparse, support),
                AscendingSparseDot(csc, col, x_sparse, support));
    }
  }
}

TEST(HeadRunMatrixTest, RunDotCoversEveryLengthInOrder) {
  // Every length 0..40 (whole blocks, leftover pairs, an odd last element)
  // on integer-valued inputs, where every order of summation is exact.
  std::vector<Scalar> a(40), b(40);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Scalar>(i % 7) - 3.0;
    b[i] = static_cast<Scalar>(i % 5) + 1.0;
  }
  for (Index n = 0; n <= 40; ++n) {
    Scalar expected = 0.0;
    for (Index i = 0; i < n; ++i) {
      const auto at = static_cast<std::size_t>(i);
      expected += a[at] * b[at];
    }
    EXPECT_EQ(RunDot(a.data(), b.data(), n), expected) << "n " << n;
  }
}

TEST(HeadRunMatrixTest, SmallExampleDots) {
  //   [ 1  0  2 ]
  //   [ 0  3  0 ]
  //   [ 4  0  5 ]
  const CscMatrix csc(3, 3, {0, 2, 3, 5}, {0, 2, 1, 0, 2},
                      {1.0, 4.0, 3.0, 2.0, 5.0});
  const HeadRunMatrix m = HeadRunMatrix::FromCsc(csc, 1);
  const std::vector<Scalar> x{1.0, 2.0, 3.0};
  EXPECT_EQ(m.ColumnDot(0, x), 1.0 * 1 + 4.0 * 3);
  EXPECT_EQ(m.ColumnDot(1, x), 3.0 * 2);
  EXPECT_EQ(m.ColumnDot(2, x), 2.0 * 1 + 5.0 * 3);
  // Empty support, a support disjoint from the column, and one covering
  // every row.
  EXPECT_EQ(m.ColumnDotSparse(0, x, {}), 0.0);
  EXPECT_EQ(m.ColumnDotSparse(1, x, {0, 2}), 0.0);
  EXPECT_EQ(m.ColumnDotSparse(2, x, {0, 1, 2}), m.ColumnDot(2, x));
  // x zero off a support {0, 2}: both kernels agree.
  const std::vector<Scalar> x_sparse{1.0, 0.0, 3.0};
  for (NodeId col = 0; col < 3; ++col) {
    EXPECT_EQ(m.ColumnDotSparse(col, x_sparse, {0, 2}),
              m.ColumnDot(col, x_sparse))
        << "col " << col;
  }
}

TEST(HeadRunMatrixTest, ScatterColumnIsExact) {
  const CscMatrix csc = RandomMatrix(80, 40, 5, /*mixed_signs=*/true);
  const HeadRunMatrix m = HeadRunMatrix::FromCsc(csc, 1);
  std::vector<Scalar> want(80), got(80, 9.0);
  for (NodeId col = 0; col < csc.cols(); ++col) {
    std::fill(want.begin(), want.end(), 0.0);
    for (Index k = csc.ColBegin(col); k < csc.ColEnd(col); ++k) {
      want[static_cast<std::size_t>(csc.RowIndex(k))] = csc.Value(k);
    }
    m.ScatterColumn(col, got);
    EXPECT_EQ(got, want) << "col " << col;
  }
}

TEST(HeadRunMatrixTest, KeepColumnsMatchesConvertingTheKeptCsc) {
  Rng rng(3);
  std::vector<std::vector<NodeId>> patterns;
  for (int c = 0; c < 60; ++c) patterns.push_back(RandomPattern(70, rng));
  const CscMatrix csc = FromPatterns(70, patterns, rng);
  std::vector<bool> keep(60);
  for (std::size_t c = 0; c < keep.size(); ++c) keep[c] = c % 3 != 1;

  // The same values with the dropped columns emptied.
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  for (NodeId col = 0; col < csc.cols(); ++col) {
    if (keep[static_cast<std::size_t>(col)]) {
      for (Index k = csc.ColBegin(col); k < csc.ColEnd(col); ++k) {
        row_idx.push_back(csc.RowIndex(k));
        values.push_back(csc.Value(k));
      }
    }
    col_ptr.push_back(static_cast<Index>(row_idx.size()));
  }
  const CscMatrix kept(70, 60, std::move(col_ptr), std::move(row_idx),
                       std::move(values));
  EXPECT_EQ(HeadRunMatrix::FromCsc(csc, 1).KeepColumns(keep),
            HeadRunMatrix::FromCsc(kept, 1));
}

}  // namespace
}  // namespace kdash::sparse
