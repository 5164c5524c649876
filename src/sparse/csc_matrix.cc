#include "sparse/csc_matrix.h"

#include <algorithm>

namespace kdash::sparse {

CscMatrix::CscMatrix(NodeId rows, NodeId cols, std::vector<Index> col_ptr,
                     std::vector<NodeId> row_idx, std::vector<Scalar> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  KDASH_CHECK_EQ(col_ptr_.size(), static_cast<std::size_t>(cols_) + 1);
  KDASH_CHECK_EQ(row_idx_.size(), values_.size());
#ifndef NDEBUG
  Validate();
#endif
}

Scalar CscMatrix::At(NodeId row, NodeId col) const {
  KDASH_DCHECK(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  const auto begin = row_idx_.begin() + static_cast<std::ptrdiff_t>(ColBegin(col));
  const auto end = row_idx_.begin() + static_cast<std::ptrdiff_t>(ColEnd(col));
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return 0.0;
  return values_[static_cast<std::size_t>(it - row_idx_.begin())];
}

void CscMatrix::MultiplyVector(const std::vector<Scalar>& x,
                               std::vector<Scalar>& y, Scalar alpha,
                               Scalar beta) const {
  KDASH_CHECK_EQ(x.size(), static_cast<std::size_t>(cols_));
  y.resize(static_cast<std::size_t>(rows_), 0.0);
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    for (auto& v : y) v *= beta;
  }
  for (NodeId col = 0; col < cols_; ++col) {
    const Scalar xv = alpha * x[static_cast<std::size_t>(col)];
    if (xv == 0.0) continue;
    const Index end = ColEnd(col);
    for (Index k = ColBegin(col); k < end; ++k) {
      y[static_cast<std::size_t>(RowIndex(k))] += Value(k) * xv;
    }
  }
}

void CscMatrix::MultiplyTransposeVector(const std::vector<Scalar>& x,
                                        std::vector<Scalar>& y, Scalar alpha,
                                        Scalar beta) const {
  KDASH_CHECK_EQ(x.size(), static_cast<std::size_t>(rows_));
  y.resize(static_cast<std::size_t>(cols_), 0.0);
  for (NodeId col = 0; col < cols_; ++col) {
    Scalar acc = 0.0;
    const Index end = ColEnd(col);
    for (Index k = ColBegin(col); k < end; ++k) {
      acc += Value(k) * x[static_cast<std::size_t>(RowIndex(k))];
    }
    auto& slot = y[static_cast<std::size_t>(col)];
    slot = alpha * acc + (beta == 0.0 ? 0.0 : beta * slot);
  }
}

Scalar CscMatrix::MaxValue() const {
  Scalar best = 0.0;
  for (const Scalar v : values_) best = std::max(best, v);
  return best;
}

std::vector<Scalar> CscMatrix::ColumnMax() const {
  std::vector<Scalar> best(static_cast<std::size_t>(cols_), 0.0);
  for (NodeId col = 0; col < cols_; ++col) {
    Scalar m = 0.0;
    const Index end = ColEnd(col);
    for (Index k = ColBegin(col); k < end; ++k) m = std::max(m, Value(k));
    best[static_cast<std::size_t>(col)] = m;
  }
  return best;
}

std::vector<Scalar> CscMatrix::Diagonal() const {
  const NodeId n = std::min(rows_, cols_);
  std::vector<Scalar> diag(static_cast<std::size_t>(n), 0.0);
  for (NodeId col = 0; col < n; ++col) {
    diag[static_cast<std::size_t>(col)] = At(col, col);
  }
  return diag;
}

namespace {

// Converts (outer_ptr, inner_idx, values) compressed storage into the
// transposed compression: the kernel of Transposed(), which is also how the
// index turns U⁻¹ into the CSC of its transpose (the row-major layout of U⁻¹
// that per-node proximities read).
void SwapCompression(NodeId outer_count, NodeId inner_count,
                     const std::vector<Index>& outer_ptr,
                     const std::vector<NodeId>& inner_idx,
                     const std::vector<Scalar>& values,
                     std::vector<Index>& new_ptr,
                     std::vector<NodeId>& new_idx,
                     std::vector<Scalar>& new_values) {
  const Index nnz = outer_ptr.empty() ? 0 : outer_ptr.back();
  new_ptr.assign(static_cast<std::size_t>(inner_count) + 1, 0);
  for (Index k = 0; k < nnz; ++k) {
    ++new_ptr[static_cast<std::size_t>(inner_idx[static_cast<std::size_t>(k)]) + 1];
  }
  for (std::size_t i = 1; i < new_ptr.size(); ++i) new_ptr[i] += new_ptr[i - 1];
  new_idx.resize(static_cast<std::size_t>(nnz));
  new_values.resize(static_cast<std::size_t>(nnz));
  std::vector<Index> cursor(new_ptr.begin(), new_ptr.end() - 1);
  for (NodeId outer = 0; outer < outer_count; ++outer) {
    const Index end = outer_ptr[static_cast<std::size_t>(outer) + 1];
    for (Index k = outer_ptr[static_cast<std::size_t>(outer)]; k < end; ++k) {
      const auto inner = static_cast<std::size_t>(inner_idx[static_cast<std::size_t>(k)]);
      const Index dst = cursor[inner]++;
      new_idx[static_cast<std::size_t>(dst)] = outer;
      new_values[static_cast<std::size_t>(dst)] = values[static_cast<std::size_t>(k)];
    }
  }
  // Iterating outer ascending guarantees the new inner indices come out
  // sorted, preserving the sortedness invariant.
}

}  // namespace

CscMatrix CscMatrix::Transposed() const {
  std::vector<Index> ptr;
  std::vector<NodeId> idx;
  std::vector<Scalar> vals;
  SwapCompression(cols_, rows_, col_ptr_, row_idx_, values_, ptr, idx, vals);
  return CscMatrix(cols_, rows_, std::move(ptr), std::move(idx), std::move(vals));
}

void CscMatrix::Validate() const {
  KDASH_CHECK_EQ(col_ptr_.size(), static_cast<std::size_t>(cols_) + 1);
  KDASH_CHECK_EQ(col_ptr_.front(), 0);
  KDASH_CHECK_EQ(col_ptr_.back(), static_cast<Index>(row_idx_.size()));
  KDASH_CHECK_EQ(row_idx_.size(), values_.size());
  for (NodeId col = 0; col < cols_; ++col) {
    KDASH_CHECK_LE(ColBegin(col), ColEnd(col));
    for (Index k = ColBegin(col); k < ColEnd(col); ++k) {
      const NodeId row = RowIndex(k);
      KDASH_CHECK(row >= 0 && row < rows_) << "row " << row << " out of range";
      if (k > ColBegin(col)) {
        KDASH_CHECK_LT(RowIndex(k - 1), row)
            << "unsorted/duplicate rows in column " << col;
      }
    }
  }
}

}  // namespace kdash::sparse
