#include "linalg/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kdash::linalg {

DenseMatrix DenseMatrix::Identity(int n) {
  DenseMatrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix t(cols_, rows_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Scalar DenseMatrix::FrobeniusNorm() const {
  Scalar sum = 0.0;
  for (const Scalar v : data_) sum += v * v;
  return std::sqrt(sum);
}

DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  KDASH_CHECK_EQ(a.cols(), b.rows());
  DenseMatrix c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const Scalar aik = a(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

DenseMatrix TransposeMatMul(const DenseMatrix& a, const DenseMatrix& b) {
  KDASH_CHECK_EQ(a.rows(), b.rows());
  DenseMatrix c(a.cols(), b.cols());
  for (int k = 0; k < a.rows(); ++k) {
    for (int i = 0; i < a.cols(); ++i) {
      const Scalar aki = a(k, i);
      if (aki == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += aki * b(k, j);
    }
  }
  return c;
}

std::vector<Scalar> MatVec(const DenseMatrix& a, const std::vector<Scalar>& x) {
  KDASH_CHECK_EQ(x.size(), static_cast<std::size_t>(a.cols()));
  std::vector<Scalar> y(static_cast<std::size_t>(a.rows()), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    Scalar acc = 0.0;
    for (int j = 0; j < a.cols(); ++j) acc += a(i, j) * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

DenseMatrix SparseDenseMatMul(const sparse::CscMatrix& s, const DenseMatrix& x) {
  KDASH_CHECK_EQ(s.cols(), x.rows());
  DenseMatrix y(s.rows(), x.cols());
  for (NodeId col = 0; col < s.cols(); ++col) {
    const Index end = s.ColEnd(col);
    for (Index t = s.ColBegin(col); t < end; ++t) {
      const int row = s.RowIndex(t);
      const Scalar v = s.Value(t);
      for (int j = 0; j < x.cols(); ++j) {
        y(row, j) += v * x(static_cast<int>(col), j);
      }
    }
  }
  return y;
}

DenseMatrix SparseTransposeDenseMatMul(const sparse::CscMatrix& s,
                                       const DenseMatrix& x) {
  KDASH_CHECK_EQ(s.rows(), x.rows());
  DenseMatrix y(s.cols(), x.cols());
  for (NodeId col = 0; col < s.cols(); ++col) {
    const Index end = s.ColEnd(col);
    for (Index t = s.ColBegin(col); t < end; ++t) {
      const int row = s.RowIndex(t);
      const Scalar v = s.Value(t);
      for (int j = 0; j < x.cols(); ++j) {
        y(static_cast<int>(col), j) += v * x(row, j);
      }
    }
  }
  return y;
}

int OrthonormalizeColumns(DenseMatrix& y) {
  const int n = y.rows();
  const int k = y.cols();
  int rank = 0;
  for (int j = 0; j < k; ++j) {
    // Two MGS passes for numerical robustness.
    for (int pass = 0; pass < 2; ++pass) {
      for (int p = 0; p < j; ++p) {
        Scalar dot = 0.0;
        for (int i = 0; i < n; ++i) dot += y(i, p) * y(i, j);
        if (dot == 0.0) continue;
        for (int i = 0; i < n; ++i) y(i, j) -= dot * y(i, p);
      }
    }
    Scalar norm = 0.0;
    for (int i = 0; i < n; ++i) norm += y(i, j) * y(i, j);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      for (int i = 0; i < n; ++i) y(i, j) = 0.0;
      continue;
    }
    for (int i = 0; i < n; ++i) y(i, j) /= norm;
    ++rank;
  }
  return rank;
}

DenseMatrix InvertDense(const DenseMatrix& a) {
  KDASH_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  DenseMatrix work = a;
  DenseMatrix inv = DenseMatrix::Identity(n);
  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot_row = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::abs(work(r, col)) > std::abs(work(pivot_row, col))) pivot_row = r;
    }
    KDASH_CHECK(std::abs(work(pivot_row, col)) > 1e-300)
        << "singular matrix in InvertDense at column " << col;
    if (pivot_row != col) {
      for (int j = 0; j < n; ++j) {
        std::swap(work(col, j), work(pivot_row, j));
        std::swap(inv(col, j), inv(pivot_row, j));
      }
    }
    const Scalar pivot = work(col, col);
    for (int j = 0; j < n; ++j) {
      work(col, j) /= pivot;
      inv(col, j) /= pivot;
    }
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      const Scalar factor = work(r, col);
      if (factor == 0.0) continue;
      for (int j = 0; j < n; ++j) {
        work(r, j) -= factor * work(col, j);
        inv(r, j) -= factor * inv(col, j);
      }
    }
  }
  return inv;
}

SymmetricEigen JacobiEigenSymmetric(const DenseMatrix& s, int max_sweeps) {
  KDASH_CHECK_EQ(s.rows(), s.cols());
  const int n = s.rows();
  DenseMatrix a = s;
  DenseMatrix v = DenseMatrix::Identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    Scalar off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (off < 1e-28 * std::max<Scalar>(1.0, a.FrobeniusNorm())) break;

    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const Scalar apq = a(p, q);
        if (std::abs(apq) < 1e-300) continue;
        const Scalar app = a(p, p);
        const Scalar aqq = a(q, q);
        const Scalar tau = (aqq - app) / (2.0 * apq);
        const Scalar t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const Scalar cos = 1.0 / std::sqrt(1.0 + t * t);
        const Scalar sin = t * cos;

        for (int i = 0; i < n; ++i) {
          const Scalar aip = a(i, p);
          const Scalar aiq = a(i, q);
          a(i, p) = cos * aip - sin * aiq;
          a(i, q) = sin * aip + cos * aiq;
        }
        for (int j = 0; j < n; ++j) {
          const Scalar apj = a(p, j);
          const Scalar aqj = a(q, j);
          a(p, j) = cos * apj - sin * aqj;
          a(q, j) = sin * apj + cos * aqj;
        }
        for (int i = 0; i < n; ++i) {
          const Scalar vip = v(i, p);
          const Scalar viq = v(i, q);
          v(i, p) = cos * vip - sin * viq;
          v(i, q) = sin * vip + cos * viq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return a(x, x) > a(y, y); });

  SymmetricEigen result;
  result.eigenvalues.resize(static_cast<std::size_t>(n));
  result.eigenvectors = DenseMatrix(n, n);
  for (int j = 0; j < n; ++j) {
    const int src = order[static_cast<std::size_t>(j)];
    result.eigenvalues[static_cast<std::size_t>(j)] = a(src, src);
    for (int i = 0; i < n; ++i) result.eigenvectors(i, j) = v(i, src);
  }
  return result;
}

}  // namespace kdash::linalg
