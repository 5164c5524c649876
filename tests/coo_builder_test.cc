#include "sparse/coo_builder.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace kdash::sparse {
namespace {

TEST(CooBuilderTest, EmptyBuild) {
  CooBuilder builder(3, 3);
  const CscMatrix m = builder.BuildCsc();
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.rows(), 3);
  m.Validate();
}

TEST(CooBuilderTest, DuplicatesAreSummed) {
  CooBuilder builder(2, 2);
  builder.Add(0, 1, 1.5);
  builder.Add(0, 1, 2.5);
  builder.Add(1, 0, 1.0);
  const CscMatrix m = builder.BuildCsc();
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 1.0);
}

TEST(CooBuilderTest, ColumnsSortedWithinEachColumn) {
  CooBuilder builder(5, 2);
  builder.Add(4, 0, 1.0);
  builder.Add(0, 0, 1.0);
  builder.Add(2, 0, 1.0);
  builder.Add(3, 1, 1.0);
  builder.Add(1, 1, 1.0);
  const CscMatrix m = builder.BuildCsc();
  m.Validate();  // enforces sorted rows per column
  EXPECT_EQ(m.RowIndex(m.ColBegin(0)), 0);
  EXPECT_EQ(m.RowIndex(m.ColBegin(0) + 1), 2);
  EXPECT_EQ(m.RowIndex(m.ColBegin(0) + 2), 4);
}

TEST(CooBuilderTest, EmptyColumnsInMiddle) {
  CooBuilder builder(3, 5);
  builder.Add(0, 0, 1.0);
  builder.Add(2, 4, 1.0);
  const CscMatrix m = builder.BuildCsc();
  m.Validate();
  EXPECT_EQ(m.ColNnz(0), 1);
  EXPECT_EQ(m.ColNnz(1), 0);
  EXPECT_EQ(m.ColNnz(2), 0);
  EXPECT_EQ(m.ColNnz(3), 0);
  EXPECT_EQ(m.ColNnz(4), 1);
}

TEST(CooBuilderTest, RandomizedCscMatchesDenseAccumulation) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId rows = static_cast<NodeId>(1 + rng.NextBounded(12));
    const NodeId cols = static_cast<NodeId>(1 + rng.NextBounded(12));
    CooBuilder builder(rows, cols);
    std::vector<Scalar> dense(static_cast<std::size_t>(rows * cols), 0.0);
    std::vector<bool> touched(dense.size(), false);
    const int adds = static_cast<int>(rng.NextBounded(50));
    for (int e = 0; e < adds; ++e) {
      // Dyadic weights keep duplicate summation exact regardless of the
      // order the build and the dense reference visit triplets in.
      const NodeId row = rng.NextNode(rows);
      const NodeId col = rng.NextNode(cols);
      const Scalar value = 0.125 * static_cast<Scalar>(rng.NextInt(-40, 40));
      builder.Add(row, col, value);
      const auto cell = static_cast<std::size_t>(col * rows + row);
      dense[cell] += value;
      touched[cell] = true;
    }
    const CscMatrix csc = builder.BuildCsc();
    csc.Validate();
    Index touched_cells = 0;
    for (NodeId col = 0; col < cols; ++col) {
      for (NodeId row = 0; row < rows; ++row) {
        const auto cell = static_cast<std::size_t>(col * rows + row);
        touched_cells += touched[cell] ? 1 : 0;
        EXPECT_EQ(csc.At(row, col), dense[cell])
            << "trial " << trial << " (" << row << ", " << col << ")";
      }
    }
    // One stored entry per distinct (row, col), even where it sums to zero.
    EXPECT_EQ(csc.nnz(), touched_cells) << "trial " << trial;
  }
}

}  // namespace
}  // namespace kdash::sparse
