// Compressed sparse column (CSC) matrix.
//
// The general compressed format of the library: the column-normalized
// adjacency matrix A and the factors L and U are stored CSC. The explicit
// inverses L⁻¹ and U⁻¹ᵀ are not: the inverse builder writes them straight
// into head + run form (sparse/head_run_matrix.h). Within each column, row
// indices are kept sorted ascending; several kernels (triangular solves,
// Crout-order reasoning in the paper's Eq. 4–7) rely on that invariant, and
// `Validate()` enforces it.
#ifndef KDASH_SPARSE_CSC_MATRIX_H_
#define KDASH_SPARSE_CSC_MATRIX_H_

#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"

namespace kdash::sparse {

// The structural invariants of raw CSC arrays: non-negative dimensions;
// `col_ptr` of cols + 1 entries, from 0 up to the length of `row_idx`,
// never decreasing; `row_idx` and `values` of equal length; and within each
// column, rows in [0, rows), ascending and unique. On the first violation
// returns kDataLoss "<what> <violated invariant>"; CscMatrix::Validate
// aborts on it. No loader reads CSC arrays: an index file holds the
// inverses in head + run form, which HeadRunMatrix::FromStored checks.
Status CheckCscArrays(std::string_view what, NodeId rows, NodeId cols,
                      const std::vector<Index>& col_ptr,
                      const std::vector<NodeId>& row_idx,
                      const std::vector<Scalar>& values);

class CscMatrix {
 public:
  CscMatrix() = default;

  // An all-zero matrix of the given shape.
  CscMatrix(NodeId rows, NodeId cols)
      : rows_(rows), cols_(cols), col_ptr_(static_cast<std::size_t>(cols) + 1, 0) {
    KDASH_CHECK(rows >= 0 && cols >= 0);
  }

  // Takes ownership of raw CSC arrays. `col_ptr` must have cols+1 entries,
  // be non-decreasing, and row indices must be in range and sorted within
  // each column (checked by Validate in debug builds).
  CscMatrix(NodeId rows, NodeId cols, std::vector<Index> col_ptr,
            std::vector<NodeId> row_idx, std::vector<Scalar> values);

  NodeId rows() const { return rows_; }
  NodeId cols() const { return cols_; }
  Index nnz() const { return col_ptr_.empty() ? 0 : col_ptr_.back(); }

  Index ColBegin(NodeId col) const { return col_ptr_[static_cast<std::size_t>(col)]; }
  Index ColEnd(NodeId col) const { return col_ptr_[static_cast<std::size_t>(col) + 1]; }
  Index ColNnz(NodeId col) const { return ColEnd(col) - ColBegin(col); }

  NodeId RowIndex(Index k) const { return row_idx_[static_cast<std::size_t>(k)]; }
  Scalar Value(Index k) const { return values_[static_cast<std::size_t>(k)]; }

  const std::vector<Index>& col_ptr() const { return col_ptr_; }
  const std::vector<NodeId>& row_idx() const { return row_idx_; }
  const std::vector<Scalar>& values() const { return values_; }

  // O(log nnz(col)) random access; returns 0 for structural zeros.
  Scalar At(NodeId row, NodeId col) const;

  // y = alpha * A * x + beta * y.
  void MultiplyVector(const std::vector<Scalar>& x, std::vector<Scalar>& y,
                      Scalar alpha = 1.0, Scalar beta = 0.0) const;

  // Largest value in the matrix (0 for an empty matrix). The paper's Amax.
  Scalar MaxValue() const;

  // Per-column maximum value (0 for empty columns). The paper's Amax(u):
  // the largest transition probability out of node u.
  std::vector<Scalar> ColumnMax() const;

  // The diagonal as a dense vector (structural zeros read as 0).
  std::vector<Scalar> Diagonal() const;

  // Transpose, i.e., reinterpret this CSC matrix as CSR of the transpose and
  // materialize it back as CSC. O(nnz + rows + cols).
  CscMatrix Transposed() const;

  // Checks structural invariants (CheckCscArrays); aborts on violation.
  // Used by tests and by constructors in debug builds.
  void Validate() const;

  friend bool operator==(const CscMatrix& a, const CscMatrix& b) = default;

 private:
  NodeId rows_ = 0;
  NodeId cols_ = 0;
  std::vector<Index> col_ptr_;   // size cols_ + 1
  std::vector<NodeId> row_idx_;  // size nnz
  std::vector<Scalar> values_;   // size nnz
};

}  // namespace kdash::sparse

#endif  // KDASH_SPARSE_CSC_MATRIX_H_
