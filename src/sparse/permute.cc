#include "sparse/permute.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace kdash::sparse {

namespace {

// The matrix whose column j is column old_of_new[j] of `m`, rows and values
// as they are: m·Pᵀ for the permutation P with inverse old_of_new.
CscMatrix PermuteColumns(const CscMatrix& m,
                         const std::vector<NodeId>& old_of_new) {
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  for (const NodeId col : old_of_new) {
    row_idx.insert(row_idx.end(), m.row_idx().begin() + m.ColBegin(col),
                   m.row_idx().begin() + m.ColEnd(col));
    values.insert(values.end(), m.values().begin() + m.ColBegin(col),
                  m.values().begin() + m.ColEnd(col));
    col_ptr.push_back(static_cast<Index>(row_idx.size()));
  }
  return CscMatrix(m.rows(), m.cols(), std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

}  // namespace

void ValidatePermutation(const std::vector<NodeId>& p) {
  std::vector<bool> seen(p.size(), false);
  for (const NodeId v : p) {
    KDASH_CHECK(v >= 0 && static_cast<std::size_t>(v) < p.size())
        << "permutation value " << v << " out of range";
    KDASH_CHECK(!seen[static_cast<std::size_t>(v)])
        << "duplicate permutation value " << v;
    seen[static_cast<std::size_t>(v)] = true;
  }
}

std::vector<NodeId> InversePermutation(const std::vector<NodeId>& p) {
  std::vector<NodeId> inv(p.size(), kInvalidNode);
  for (std::size_t i = 0; i < p.size(); ++i) {
    inv[static_cast<std::size_t>(p[i])] = static_cast<NodeId>(i);
  }
  return inv;
}

CscMatrix PermuteSymmetric(const CscMatrix& a,
                           const std::vector<NodeId>& new_of_old) {
  KDASH_CHECK_EQ(a.rows(), a.cols());
  KDASH_CHECK_EQ(new_of_old.size(), static_cast<std::size_t>(a.cols()));
  ValidatePermutation(new_of_old);
  // P·A·Pᵀ = ((A·Pᵀ)ᵀ·Pᵀ)ᵀ: moving a column keeps its rows ascending and a
  // transpose emits them ascending, so nothing is sorted (the
  // double-transpose of Davis, Direct Methods for Sparse Linear Systems).
  const std::vector<NodeId> old_of_new = InversePermutation(new_of_old);
  return PermuteColumns(PermuteColumns(a, old_of_new).Transposed(), old_of_new)
      .Transposed();
}

}  // namespace kdash::sparse
