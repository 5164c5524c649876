#include "sparse/head_run_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "head_run_csc.h"
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
    const HeadRunMatrix m = test::FromCsc(csc);
    EXPECT_EQ(test::ToCsc(m), csc) << "seed " << seed;
    EXPECT_EQ(m.nnz(), csc.nnz());
    EXPECT_EQ(m.col_ptr(), csc.col_ptr());
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
  const HeadRunMatrix m = test::FromCsc(csc);
  EXPECT_EQ(test::ToCsc(m), csc);

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
        test::FromCsc(FromPatterns(rows, {pattern}, rng));
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

// Restores `m` from the arrays it stores, as the index loader does.
Result<HeadRunMatrix> Restore(const HeadRunMatrix& m) {
  return HeadRunMatrix::FromStored(m.rows(), m.ColumnExtents(), m.head_rows(),
                                   m.head_values(), m.run_values(), "test");
}

TEST(HeadRunMatrixTest, FromStoredRestoresWhatFromCscBuilt) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const HeadRunMatrix m = test::FromCsc(RandomMatrix(90, 70, seed));
    const auto restored = Restore(m);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(*restored, m) << "seed " << seed;
    std::vector<bool> keep(70);
    for (std::size_t c = 0; c < keep.size(); ++c) keep[c] = c % 4 == 0;
    const auto kept = Restore(m.KeepColumns(keep));
    ASSERT_TRUE(kept.ok()) << kept.status();
    EXPECT_EQ(*kept, m.KeepColumns(keep)) << "seed " << seed;
  }
}

TEST(HeadRunMatrixTest, FromStoredAcceptsOnlyTheByteMinimalCut) {
  // Store a random column cut at each of its nonzeros in turn: only the
  // cut FromCsc chooses loads, and it loads to FromCsc's matrix.
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const auto rows = static_cast<NodeId>(1 + rng.NextBounded(24));
    const std::vector<NodeId> pattern = RandomPattern(rows, rng);
    if (pattern.empty()) continue;
    const CscMatrix csc = FromPatterns(rows, {pattern}, rng);
    const HeadRunMatrix m = test::FromCsc(csc);
    for (std::size_t s = 0; s < pattern.size(); ++s) {
      const ColumnExtent extent{
          static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(pattern[s]),
          static_cast<std::uint32_t>(pattern.back() - pattern[s] + 1)};
      StoredArray<Scalar> run(extent.run_size, 0.0);
      for (std::size_t k = s; k < pattern.size(); ++k) {
        run[static_cast<std::size_t>(pattern[k] - pattern[s])] = csc.values()[k];
      }
      const auto stored = HeadRunMatrix::FromStored(
          rows, std::vector<ColumnExtent>{extent},
          {pattern.begin(), pattern.begin() + static_cast<std::ptrdiff_t>(s)},
          {csc.values().begin(), csc.values().begin() + static_cast<std::ptrdiff_t>(s)},
          std::move(run), "test");
      if (s == m.HeadRows(0).size()) {
        ASSERT_TRUE(stored.ok()) << "trial " << trial << ": " << stored.status();
        EXPECT_EQ(*stored, m) << "trial " << trial;
      } else {
        ASSERT_FALSE(stored.ok()) << "trial " << trial << " cut " << s;
        EXPECT_NE(stored.status().message().find("fewest bytes"),
                  std::string::npos)
            << stored.status();
      }
    }
  }
}

TEST(HeadRunMatrixTest, FromStoredRejectsMalformedColumns) {
  // Column 0 is empty, column 1 is head {0, 2} + run 7..9, column 2 is a
  // one-slot run at row 3.
  Rng rng(17);
  const HeadRunMatrix m =
      test::FromCsc(FromPatterns(10, {{}, {0, 2, 7, 8, 9}, {3}}, rng));
  ASSERT_EQ(m.HeadRows(1).size(), 2u);
  ASSERT_EQ(m.RunBegin(1), 7);
  struct Stored {
    std::vector<ColumnExtent> extents;
    StoredArray<NodeId> head_rows;
    StoredArray<Scalar> head_values;
    StoredArray<Scalar> run_values;
  };
  const Stored base{m.ColumnExtents(), m.head_rows(), m.head_values(),
                    m.run_values()};
  const auto expect_refused = [&](const Stored& stored, const std::string& why) {
    const auto restored = HeadRunMatrix::FromStored(
        10, stored.extents, stored.head_rows, stored.head_values,
        stored.run_values, "matrix");
    ASSERT_FALSE(restored.ok()) << why;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(restored.status().message().find(why), std::string::npos)
        << "want \"" << why << "\" in: " << restored.status();
  };
  {
    Stored s = base;
    std::swap(s.head_rows[0], s.head_rows[1]);
    expect_refused(s, "matrix: column 1 has head rows not strictly ascending");
  }
  {
    Stored s = base;
    s.head_rows[1] = 7;  // inside the run
    expect_refused(s, "column 1 has head rows not strictly ascending below");
  }
  {
    Stored s = base;
    s.head_values[0] = 0.0;
    expect_refused(s, "column 1 stores an exact zero");
  }
  {
    Stored s = base;
    s.run_values[2] = 0.0;  // the run's last value
    expect_refused(s, "column 1 has a run that starts or ends in a zero");
  }
  {
    Stored s = base;
    s.extents[2].run_begin = 10;
    expect_refused(s, "column 2 has a run outside [0, rows)");
  }
  {
    Stored s = base;
    s.extents[0].run_begin = 0;
    expect_refused(s, "column 0 has no run but a head or a run begin");
  }
  {
    Stored s = base;
    s.run_values.push_back(1.0);
    expect_refused(s, "arrays disagree with the extents");
  }
  {
    Stored s = base;
    s.extents[2].run_size = 2;
    expect_refused(s, "arrays disagree with the extents");
  }
  {
    Stored s = base;
    s.head_values.pop_back();
    expect_refused(s, "arrays disagree with the extents");
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
    const HeadRunMatrix m = test::FromCsc(csc);
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
  const HeadRunMatrix m = test::FromCsc(csc);
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
  EXPECT_EQ(test::FromCsc(csc).KeepColumns(keep),
            test::FromCsc(kept));
}

}  // namespace
}  // namespace kdash::sparse
