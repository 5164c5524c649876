#include "core/estimator.h"

#include <algorithm>

namespace kdash::core {

Scalar ProximityEstimator::EstimateDirect(
    NodeId u, NodeId layer, const std::vector<Selected>& selected, Scalar amax,
    Scalar restart_prob, const std::vector<Scalar>& amax_of_node,
    const std::vector<Scalar>& c_prime_of_node) {
  // Definition 1, term by term, with the dangling-node charge on term 3
  // and term 3 floored at 0.
  const Scalar dangling_charge = DanglingCharge(restart_prob);
  Scalar term1 = 0.0;  // selected nodes one layer above u
  Scalar term2 = 0.0;  // selected nodes on u's layer (visited before u)
  Scalar selected_mass = 0.0;  // Σ charge(v)·p(v)
  for (const Selected& s : selected) {
    const Scalar amax_of_v = amax_of_node[static_cast<std::size_t>(s.node)];
    selected_mass += s.proximity * (amax_of_v == 0.0 ? dangling_charge : 1.0);
    const Scalar contribution = s.proximity * amax_of_v;
    if (s.layer == layer - 1) {
      term1 += contribution;
    } else if (s.layer == layer) {
      term2 += contribution;
    }
  }
  const Scalar term3 = std::max((1.0 - selected_mass) * amax, 0.0);
  return c_prime_of_node[static_cast<std::size_t>(u)] * (term1 + term2 + term3);
}

Scalar OwnedScoreBound(NodeId begin, NodeId end, Scalar amax,
                       const std::vector<Scalar>& c_prime_of_node) {
  KDASH_CHECK(begin >= 0 && begin <= end &&
              static_cast<std::size_t>(end) <= c_prime_of_node.size());
  Scalar max_c_prime = 0.0;
  for (NodeId u = begin; u < end; ++u) {
    max_c_prime =
        std::max(max_c_prime, c_prime_of_node[static_cast<std::size_t>(u)]);
  }
  // Proximities are probabilities; never report a bound above 1 even for a
  // pathological Amax · c′ product.
  return std::min(1.0, amax * max_c_prime);
}

std::vector<Scalar> ComputeCPrime(const std::vector<Scalar>& a_diagonal,
                                  Scalar restart_prob) {
  std::vector<Scalar> c_prime(a_diagonal.size(), 0.0);
  const Scalar c = restart_prob;
  for (std::size_t u = 0; u < a_diagonal.size(); ++u) {
    const Scalar auu = a_diagonal[u];
    c_prime[u] = (1.0 - c) / (1.0 - auu + c * auu);
  }
  return c_prime;
}

}  // namespace kdash::core
