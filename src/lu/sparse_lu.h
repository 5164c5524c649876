// Sparse LU factorization without pivoting.
//
// K-dash factors W = I - (1-c)A into W = LU (Eq. 3 of the paper). A is
// column-substochastic and c ∈ (0, 1), so W is strictly column diagonally
// dominant; LU without pivoting therefore exists and is numerically stable,
// and — crucially for the paper — the node reordering chosen in Section
// 4.2.2 is preserved exactly (pivoting would permute it away).
//
// The leading columns are factored left-looking, Gilbert–Peierls: for each
// column j a symbolic DFS over the partial L discovers the nonzero pattern
// of the sparse triangular solve L x = W(:, j), so the work is proportional
// to the arithmetic (not to n²).
//
// The hybrid reorder puts the dense border partition last, and nearly all
// of the elimination work lands in that trailing block, where a DFS per
// column walks near-dense patterns. So the factorization finishes densely.
// After column j it switches when the shape alone says so: L(j+1:n, j)
// holds nonzeros in at least a quarter of the n-j-1 remaining rows, at
// least 64 rows remain, and an (n-j-1)² array of doubles fits a fixed
// 512 MiB cap. From the switch column s on:
//   1. each trailing column is eliminated with the sparse columns < s only;
//      its rows < s are U(0:s, j), its rows >= s go to one column-major
//      array S = W₂₂ - L₂₁U₁₂ (the Schur complement);
//   2. S is factored in place by a blocked right-looking dense LU, again
//      without pivoting: every Schur complement of a strictly column
//      diagonally dominant matrix is one too;
//   3. S is scattered back into the CSC factors, dropping exact zeros.
// Any switch column gives a correct factorization; the rule only decides
// speed. Graphs whose factor never turns dense, such as the unreordered
// Email stand-in, never switch.
//
// Steps 1 and 2 run on a thread pool: the trailing columns of step 1 are
// independent, and step 2 factors 64-column panels and splits each
// trailing update into fixed 256-row × 16-column tiles. Every entry of L
// and U receives the same sequence of updates (ascending pivot order,
// exact zeros of U skipped) whatever the thread count, so the factors are
// bit-identical for every `num_threads`.
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
  // The first column factored by the dense tail; n when every column was
  // factored sparsely.
  NodeId dense_begin = 0;
};

// Factors the square matrix `w` as w = lower * upper. Aborts if a pivot is
// exactly zero (cannot happen for RWR matrices; see header comment).
// num_threads drives the dense tail: 0 = the shared pool
// (KDASH_NUM_THREADS or hardware concurrency), 1 = sequential, T > 1 = a
// pool of T workers. The factors are identical for every thread count.
LuFactors FactorizeLu(const sparse::CscMatrix& w, int num_threads = 0);

// Builds W = I - (1-c) * A from a normalized adjacency matrix, one linear
// pass over A's sorted columns, no sort.
sparse::CscMatrix BuildRwrSystemMatrix(const sparse::CscMatrix& a,
                                       Scalar restart_prob);

}  // namespace kdash::lu

#endif  // KDASH_LU_SPARSE_LU_H_
