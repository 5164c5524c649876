// Randomized truncated SVD (Halko–Martinsson–Tropp).
//
// NB_LIN approximates the adjacency matrix by a rank-r SVD. The paper's
// authors used exact SVD and report multi-week precompute times; we
// substitute the standard randomized range-finder with power iterations,
// which has the same approximation role: an exact SVD of the paper's graphs
// would put the baseline's precompute out of reach of an offline benchmark
// run.
#ifndef KDASH_LINALG_RANDOMIZED_SVD_H_
#define KDASH_LINALG_RANDOMIZED_SVD_H_

#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "linalg/dense_matrix.h"
#include "sparse/csc_matrix.h"

namespace kdash::linalg {

struct SvdOptions {
  int rank = 100;
  int oversample = 10;     // extra sketch columns beyond the target rank
  int power_iterations = 2;
};

// A ≈ U · diag(singular_values) · Vᵀ with U: n×rank, V: n×rank.
struct SvdResult {
  DenseMatrix u;
  std::vector<Scalar> singular_values;
  DenseMatrix v;
};

SvdResult RandomizedSvd(const sparse::CscMatrix& a, const SvdOptions& options,
                        Rng& rng);

}  // namespace kdash::linalg

#endif  // KDASH_LINALG_RANDOMIZED_SVD_H_
