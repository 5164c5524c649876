// Direct (factorization-based) RWR solver: p = c · U⁻¹ L⁻¹ q via triangular
// substitution on the LU factors, without materializing the explicit
// inverses. This is the exact reference implementation of Eq. 2–3 and the
// cross-check for both the power iteration and the K-dash index.
#ifndef KDASH_RWR_DIRECT_SOLVER_H_
#define KDASH_RWR_DIRECT_SOLVER_H_

#include <vector>

#include "common/types.h"
#include "lu/sparse_lu.h"
#include "sparse/csc_matrix.h"

namespace kdash::rwr {

class DirectRwrSolver {
 public:
  // Factors W = I - (1-c)A once; Solve() then costs two triangular solves.
  DirectRwrSolver(const sparse::CscMatrix& a, Scalar restart_prob);

  // Full proximity vector for query node q: Solve(c · e_q).
  std::vector<Scalar> Solve(NodeId query) const;

  // x = W⁻¹ rhs, one forward and one backward triangular solve.
  std::vector<Scalar> Solve(std::vector<Scalar> rhs) const;

  Scalar restart_prob() const { return restart_prob_; }
  const lu::LuFactors& factors() const { return factors_; }

 private:
  Scalar restart_prob_;
  NodeId num_nodes_;
  lu::LuFactors factors_;
};

}  // namespace kdash::rwr

#endif  // KDASH_RWR_DIRECT_SOLVER_H_
