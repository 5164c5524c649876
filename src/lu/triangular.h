// Sparse triangular solves and explicit sparse triangular inverses.
//
// The paper's Eq. 3 computes proximities as p = c · U⁻¹ L⁻¹ q. K-dash
// precomputes the inverse factors explicitly (Eq. 4–5 give the column
// recurrences); at query time the column L⁻¹(:, q) and single rows of U⁻¹
// are all that is touched. This header provides:
//   * dense forward/backward substitution (reference + tests),
//   * the exact explicit inverse builders.
//
// Column j of an inverse is the sparse solve of L x = e_j (U x = e_j), at a
// cost proportional to its nonzeros, and it equals SolveLowerInPlace
// (SolveUpperInPlace) applied to e_j bit for bit. The builders solve blocks
// of 16 consecutive columns in one pass over the union of their patterns,
// so neighbouring columns that reach the same dense tail of the factor (the
// hybrid reorder's border) read each factor column once per block instead
// of once per column. Each column's nonzero updates are applied in the
// same order as in the dense solve, so the blocking does not change a bit.
//
// Blocks are computed on a thread pool into per-chunk buffers and then
// assembled into one CSC matrix with a two-pass scheme (per-column nnz
// counts → exact offsets → parallel fill). One thread runs the same chunks
// inline. Every column's values depend only on the column, so the output
// is identical at every thread count.
#ifndef KDASH_LU_TRIANGULAR_H_
#define KDASH_LU_TRIANGULAR_H_

#include <vector>

#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::lu {

// Solves L x = b in place (forward substitution). `lower` must be lower
// triangular CSC with the diagonal stored first in each column.
void SolveLowerInPlace(const sparse::CscMatrix& lower, std::vector<Scalar>& b);

// Solves U x = b in place (backward substitution). `upper` must be upper
// triangular CSC with the diagonal stored last in each column.
void SolveUpperInPlace(const sparse::CscMatrix& upper, std::vector<Scalar>& b);

// Explicit inverse of a lower triangular matrix: column j is
// SolveLowerInPlace(e_j), computed in blocks of columns, keeping every
// numerically nonzero entry (exact). num_threads picks the pool as
// SelectPool (common/parallel.h) does; 1 runs inline on the caller. The
// output is identical for every thread count.
sparse::CscMatrix InvertLowerTriangular(const sparse::CscMatrix& lower,
                                        int num_threads = 0);

// Explicit inverse of an upper triangular matrix: column j is
// SolveUpperInPlace(e_j); otherwise as InvertLowerTriangular.
sparse::CscMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                        int num_threads = 0);

}  // namespace kdash::lu

#endif  // KDASH_LU_TRIANGULAR_H_
