// Sparse LU factorization without pivoting.
//
// K-dash factors W = I - (1-c)A into W = LU (Eq. 3 of the paper). A is
// column-substochastic and c ∈ (0, 1), so W is strictly column diagonally
// dominant; LU without pivoting therefore exists and is numerically stable,
// and — crucially for the paper — the node reordering chosen in Section
// 4.2.2 is preserved exactly (pivoting would permute it away).
//
// The implementation is left-looking Gilbert–Peierls: for each column j it
// solves the sparse triangular system L x = W(:, j) with a symbolic DFS that
// discovers the nonzero pattern first, so total work is proportional to
// arithmetic operations (not to n²).
//
// The factorization is sequential. The hybrid reorder puts the dense border
// partition last, so the column elimination DAG is essentially one chain:
// on the paper's Social graph it has 983 levels and its critical path
// carries 98% of the column-update work, which caps column-level
// parallelism at 1.02x (at most 1.01x on Dictionary, Internet and
// Citation). The parallel precompute stages are the reorder and the
// explicit inverses (lu/triangular.h).
#ifndef KDASH_LU_SPARSE_LU_H_
#define KDASH_LU_SPARSE_LU_H_

#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::lu {

struct LuFactors {
  // Unit lower triangular (diagonal entries of exactly 1 are stored).
  sparse::CscMatrix lower;
  // Upper triangular, diagonal (the pivots) stored.
  sparse::CscMatrix upper;
};

// Factors the square matrix `w` as w = lower * upper. Aborts if a pivot is
// exactly zero (cannot happen for RWR matrices; see header comment).
LuFactors FactorizeLu(const sparse::CscMatrix& w);

// Builds W = I - (1-c) * A from a normalized adjacency matrix.
sparse::CscMatrix BuildRwrSystemMatrix(const sparse::CscMatrix& a,
                                       Scalar restart_prob);

}  // namespace kdash::lu

#endif  // KDASH_LU_SPARSE_LU_H_
