#include "sparse/permute.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/random.h"
#include "sparse/coo_builder.h"
#include "test_util.h"

namespace kdash::sparse {
namespace {

TEST(PermuteTest, InversePermutationRoundTrip) {
  const std::vector<NodeId> p{2, 0, 3, 1};
  const auto inv = InversePermutation(p);
  ASSERT_EQ(inv.size(), 4u);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(p[i])], static_cast<NodeId>(i));
  }
  const auto back = InversePermutation(inv);
  EXPECT_EQ(back, p);
}

TEST(PermuteTest, IdentityPermutationIsNoOp) {
  CooBuilder builder(3, 3);
  builder.Add(0, 1, 2.0);
  builder.Add(2, 2, 3.0);
  const CscMatrix m = builder.BuildCsc();
  const std::vector<NodeId> identity{0, 1, 2};
  EXPECT_EQ(PermuteSymmetric(m, identity), m);
}

TEST(PermuteTest, EntriesMoveTogether) {
  // A(i, j) must land at A'(p[i], p[j]).
  CooBuilder builder(4, 4);
  builder.Add(0, 1, 1.0);
  builder.Add(1, 2, 2.0);
  builder.Add(3, 3, 3.0);
  builder.Add(2, 0, 4.0);
  const CscMatrix m = builder.BuildCsc();
  const std::vector<NodeId> p{3, 1, 0, 2};
  const CscMatrix pm = PermuteSymmetric(m, p);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(pm.At(p[static_cast<std::size_t>(i)],
                             p[static_cast<std::size_t>(j)]),
                       m.At(i, j))
          << i << "," << j;
    }
  }
}

TEST(PermuteTest, RandomPermutationPreservesValuesMultiset) {
  Rng rng(5);
  CooBuilder builder(30, 30);
  for (int e = 0; e < 120; ++e) {
    builder.Add(rng.NextNode(30), rng.NextNode(30), rng.NextDouble() + 0.01);
  }
  const CscMatrix m = builder.BuildCsc();
  std::vector<NodeId> p(30);
  std::iota(p.begin(), p.end(), 0);
  rng.Shuffle(p);
  const CscMatrix pm = PermuteSymmetric(m, p);
  EXPECT_EQ(pm.nnz(), m.nnz());

  auto values_a = m.values();
  auto values_b = pm.values();
  std::sort(values_a.begin(), values_a.end());
  std::sort(values_b.begin(), values_b.end());
  EXPECT_EQ(values_a, values_b);
}

TEST(PermuteTest, InversePermutationUndoesPermute) {
  Rng rng(6);
  CooBuilder builder(20, 20);
  for (int e = 0; e < 50; ++e) {
    builder.Add(rng.NextNode(20), rng.NextNode(20), rng.NextDouble());
  }
  const CscMatrix m = builder.BuildCsc();
  std::vector<NodeId> p(20);
  std::iota(p.begin(), p.end(), 0);
  rng.Shuffle(p);
  const CscMatrix round = PermuteSymmetric(PermuteSymmetric(m, p),
                                           InversePermutation(p));
  EXPECT_EQ(round, m);
}

// P·A·Pᵀ equals the COO assembly of the moved entries, bit for bit, on
// random matrices with empty columns, diagonal entries and summed duplicates.
TEST(PermuteTest, MatchesCooAssemblyOfMovedEntries) {
  Rng rng(7);
  for (const NodeId n : {1, 2, 9, 40, 150}) {
    CooBuilder builder(n, n);
    const int entries = static_cast<int>(n) * 3;
    for (int e = 0; e < entries; ++e) {
      // Columns past n / 2 stay empty unless a diagonal entry lands there.
      const NodeId row = rng.NextNode(n);
      const NodeId col =
          rng.NextBounded(4) == 0 ? row : rng.NextNode(n / 2 + 1);
      builder.Add(row, col, rng.NextDouble() - 0.5);
    }
    const CscMatrix m = builder.BuildCsc();
    std::vector<NodeId> p(static_cast<std::size_t>(n));
    std::iota(p.begin(), p.end(), 0);
    rng.Shuffle(p);

    CooBuilder oracle(n, n);
    for (NodeId col = 0; col < n; ++col) {
      for (Index k = m.ColBegin(col); k < m.ColEnd(col); ++k) {
        oracle.Add(p[static_cast<std::size_t>(m.RowIndex(k))],
                   p[static_cast<std::size_t>(col)], m.Value(k));
      }
    }
    EXPECT_TRUE(test::SameCscBits(PermuteSymmetric(m, p), oracle.BuildCsc()))
        << "n = " << n;
  }
}

TEST(PermuteTest, ValidatePermutationAcceptsValid) {
  ValidatePermutation({1, 0, 2});  // must not abort
}

}  // namespace
}  // namespace kdash::sparse
