// Sparse triangular solves and explicit sparse triangular inverses.
//
// The paper's Eq. 3 computes proximities as p = c · U⁻¹ L⁻¹ q. K-dash
// precomputes the inverse factors explicitly (Eq. 4–5 give the column
// recurrences); at query time the column L⁻¹(:, q) and single rows of U⁻¹
// are all that is touched. This header provides:
//   * dense forward/backward substitution (reference + tests),
//   * the exact explicit inverse builders.
//
// The builders run one elimination order: backward substitution on an
// upper triangular T, where solve j is T x = e_j at a cost proportional to
// its nonzeros, bit for bit SolveUpperInPlace applied to e_j. The solved
// column is written either as an output column or as an output row:
//   * InvertUpperTriangular(U) writes solve j as column j of U⁻¹;
//   * InvertUpperTriangularTransposed(U) writes it as row j, which gives
//     U⁻¹ᵀ, the form the index stores;
//   * InvertLowerTriangular(X) solves on Xᵀ and writes solve j as row j,
//     which is row j of X⁻¹ because (Xᵀ)⁻¹ = X⁻¹ᵀ.
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
// fill: chunks of whole blocks, of about equal Σ nnz(T(:, j)), are solved
// on a thread pool (one thread runs the same chunks inline), and each
// chunk keeps its solves until they are placed. Written as rows, a chunk
// keeps each solved block as block rows, in buffers sized exactly: per
// pattern row i, a mask of the lanes l whose x_i is nonzero and those
// values. They are output column i's entries at rows j0 + l, so each block
// row is counted into, and later placed through, one tally of its column.
// Written as columns, a solve is a whole output column, cut as it is
// gathered into a head and a run. A prefix over (column, chunk) then gives
// every column its cut and every chunk its place in it, and each chunk
// places its own entries, freeing each block once placed.
// Every solve depends only on j and every cut only on its column, so the
// output is identical at every thread count.
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

// Explicit inverse of an upper triangular matrix, in head + run form:
// column j is SolveUpperInPlace(upper, e_j); otherwise as
// InvertLowerTriangular.
sparse::HeadRunMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                            int num_threads = 0);

// U⁻¹ᵀ, the transpose of InvertUpperTriangular(upper), bit for bit: row j
// is SolveUpperInPlace(upper, e_j). Solved on `upper` itself, so it makes
// no transposed copy of the factor.
sparse::HeadRunMatrix InvertUpperTriangularTransposed(
    const sparse::CscMatrix& upper, int num_threads = 0);

}  // namespace kdash::lu

#endif  // KDASH_LU_TRIANGULAR_H_
