// Minimal dense matrix type and kernels for NB_LIN and the updatable engine.
//
// NB_LIN (Tong et al., ICDM'06) works with O(n·r) dense factors from a
// truncated SVD plus a small r×r dense inverse; the updatable engine
// (core/dynamic.h) keeps its Woodbury correction as an n×d and a d×d dense
// matrix. This module provides exactly the dense operations they need; the
// static K-dash path never touches it.
#ifndef KDASH_LINALG_DENSE_MATRIX_H_
#define KDASH_LINALG_DENSE_MATRIX_H_

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::linalg {

// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0) {
    KDASH_CHECK(rows >= 0 && cols >= 0);
  }

  static DenseMatrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  Scalar operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }
  Scalar& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(j)];
  }

  const std::vector<Scalar>& data() const { return data_; }

  DenseMatrix Transposed() const;

  // Frobenius norm.
  Scalar FrobeniusNorm() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<Scalar> data_;
};

// C = A · B.
DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b);

// C = Aᵀ · B.
DenseMatrix TransposeMatMul(const DenseMatrix& a, const DenseMatrix& b);

// y = A · x.
std::vector<Scalar> MatVec(const DenseMatrix& a, const std::vector<Scalar>& x);

// Y = S · X where S is sparse CSC (rows n) and X is dense (n × k).
DenseMatrix SparseDenseMatMul(const sparse::CscMatrix& s, const DenseMatrix& x);

// Y = Sᵀ · X.
DenseMatrix SparseTransposeDenseMatMul(const sparse::CscMatrix& s,
                                       const DenseMatrix& x);

// In-place modified Gram–Schmidt with one re-orthogonalization pass.
// Columns that are (numerically) linearly dependent are replaced by zero
// columns. Returns the numerical rank.
int OrthonormalizeColumns(DenseMatrix& y);

// Inverse of a small square matrix via Gauss–Jordan with partial pivoting.
// Aborts on singular input.
DenseMatrix InvertDense(const DenseMatrix& a);

// Symmetric eigendecomposition by the cyclic Jacobi method.
// Returns eigenvalues (descending) and the matching orthonormal
// eigenvectors as columns.
struct SymmetricEigen {
  std::vector<Scalar> eigenvalues;
  DenseMatrix eigenvectors;
};
SymmetricEigen JacobiEigenSymmetric(const DenseMatrix& s, int max_sweeps = 64);

}  // namespace kdash::linalg

#endif  // KDASH_LINALG_DENSE_MATRIX_H_
