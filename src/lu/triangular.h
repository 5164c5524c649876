// Sparse triangular solves and explicit sparse triangular inverses.
//
// The paper's Eq. 3 computes proximities as p = c · U⁻¹ L⁻¹ q. K-dash
// precomputes the inverse factors explicitly (Eq. 4–5 give the column
// recurrences); at query time the column L⁻¹(:, q) and single rows of U⁻¹
// are all that is touched. This header provides:
//   * dense forward/backward substitution (reference + tests),
//   * the exact explicit inverse builders.
//
// The builders run one elimination order and write one orientation:
// backward substitution on an upper triangular T, where solve j is
// T x = e_j at a cost proportional to its nonzeros, bit for bit
// SolveUpperInPlace applied to e_j, and solve j is written as row j of the
// output, which is T⁻¹ᵀ. So
//   * InvertUpperTriangular(U) solves on U itself and returns U⁻¹ᵀ, the
//     form the index stores (no transposed copy of the factor);
//   * InvertLowerTriangular(X) solves on Xᵀ and returns X⁻¹, because
//     (Xᵀ)⁻¹ᵀ = X⁻¹.
// The orientation decides the cost. In hybrid order the factors end in a
// dense border of b nodes. Every column of L⁻¹ reaches the border, so
// forward substitution column by column costs O(n·b²); a row of L⁻¹,
// solved backward on Lᵀ, stays inside its own block unless it is a border
// row, which costs O(b³) over all border rows.
//
// The builders solve blocks of 16 consecutive j in one pass over the union
// of their patterns, so neighbouring solves that reach the same dense tail
// of T read each of its columns once per block instead of once per solve.
// Each solve's nonzero updates are applied in the same order as in the
// dense solve, so the blocking does not change a bit. The output is built
// straight into head + run form (sparse/head_run_matrix.h) by one parallel
// fill over chunks of whole blocks, of about equal Σ nnz(T(:, j)), on a
// thread pool (one thread runs the same chunks inline); triangular.cc
// describes its stages. Every solve depends only on j and every cut only
// on its column, so the output is identical at every thread count.
#ifndef KDASH_LU_TRIANGULAR_H_
#define KDASH_LU_TRIANGULAR_H_

#include <vector>

#include "common/types.h"
#include "sparse/csc_matrix.h"
#include "sparse/head_run_matrix.h"

namespace kdash::lu {

// Solves L x = b in place (forward substitution). `lower` must be lower
// triangular CSC with the diagonal stored first in each column.
void SolveLowerInPlace(const sparse::CscMatrix& lower, std::vector<Scalar>& b);

// Solves U x = b in place (backward substitution). `upper` must be upper
// triangular CSC with the diagonal stored last in each column.
void SolveUpperInPlace(const sparse::CscMatrix& upper, std::vector<Scalar>& b);

// Explicit inverse of a lower triangular matrix, in head + run form: row j
// is SolveUpperInPlace(lowerᵀ, e_j), keeping every numerically nonzero
// entry (exact). num_threads picks the pool as SelectPool
// (common/parallel.h) does; 1 runs inline on the caller. The output is
// identical for every thread count.
sparse::HeadRunMatrix InvertLowerTriangular(const sparse::CscMatrix& lower,
                                            int num_threads = 0);

// U⁻¹ᵀ, the explicit inverse of an upper triangular matrix *transposed*,
// in head + run form: column j of the result is row j of U⁻¹, and row j is
// SolveUpperInPlace(upper, e_j). Solved on `upper` itself, so it makes no
// transposed copy of the factor. KDashIndex::upper_inverse() holds exactly
// this matrix. Otherwise as InvertLowerTriangular.
sparse::HeadRunMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                            int num_threads = 0);

}  // namespace kdash::lu

#endif  // KDASH_LU_TRIANGULAR_H_
