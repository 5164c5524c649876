#include "rwr/direct_solver.h"

#include "common/check.h"
#include "lu/triangular.h"

namespace kdash::rwr {

DirectRwrSolver::DirectRwrSolver(const sparse::CscMatrix& a,
                                 Scalar restart_prob)
    : restart_prob_(restart_prob),
      num_nodes_(a.rows()),
      factors_(lu::FactorizeLu(lu::BuildRwrSystemMatrix(a, restart_prob))) {}

std::vector<Scalar> DirectRwrSolver::Solve(NodeId query) const {
  KDASH_CHECK(query >= 0 && query < num_nodes_);
  std::vector<Scalar> p(static_cast<std::size_t>(num_nodes_), 0.0);
  p[static_cast<std::size_t>(query)] = restart_prob_;  // c · q
  lu::SolveLowerInPlace(factors_.lower, p);
  lu::SolveUpperInPlace(factors_.upper, p);
  return p;
}

}  // namespace kdash::rwr
