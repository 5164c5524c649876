#include "rwr/direct_solver.h"

#include <utility>

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
  std::vector<Scalar> rhs(static_cast<std::size_t>(num_nodes_), 0.0);
  rhs[static_cast<std::size_t>(query)] = restart_prob_;  // c · q
  return Solve(std::move(rhs));
}

std::vector<Scalar> DirectRwrSolver::Solve(std::vector<Scalar> rhs) const {
  KDASH_CHECK(rhs.size() == static_cast<std::size_t>(num_nodes_));
  lu::SolveLowerInPlace(factors_.lower, rhs);
  lu::SolveUpperInPlace(factors_.upper, rhs);
  return rhs;
}

}  // namespace kdash::rwr
