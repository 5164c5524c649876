// Symmetric permutation of sparse matrices.
//
// Node reordering (Section 4.2.2 / Algorithms 1–3 of the paper) is a
// simultaneous permutation of the rows and columns of the normalized
// adjacency matrix: A′ = P A Pᵀ, where P is the permutation that maps old
// node u to new position new_of_old[u].
#ifndef KDASH_SPARSE_PERMUTE_H_
#define KDASH_SPARSE_PERMUTE_H_

#include <vector>

#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::sparse {

// Returns A′ with A′(new_of_old[i], new_of_old[j]) = A(i, j), moving the
// values by linear passes (no sort). `new_of_old` must be a permutation of
// [0, n); validated.
CscMatrix PermuteSymmetric(const CscMatrix& a,
                           const std::vector<NodeId>& new_of_old);

// Checks that `p` is a permutation of [0, n); aborts otherwise.
void ValidatePermutation(const std::vector<NodeId>& p);

// Returns q with q[p[i]] = i.
std::vector<NodeId> InversePermutation(const std::vector<NodeId>& p);

}  // namespace kdash::sparse

#endif  // KDASH_SPARSE_PERMUTE_H_
