// The breadth-first-tree proximity estimator of Section 4.3.
//
// While K-dash visits nodes in ascending BFS-layer order, this class
// maintains the three terms of the upper-bound estimate p̄(u) (Definition 1)
// incrementally in O(1) per node (Definition 2 / Lemma 3). Lemma 1
// guarantees p̄(u) ≥ p(u); Lemma 2 guarantees p̄ is non-increasing along the
// visit order, which makes the early termination of Algorithm 4 exact.
//
// Protocol per query:
//   estimator.Reset();
//   for each layer-0 root r (the query node, or every restart source):
//     estimator.RecordQuery(r, exact proximity of r);   // p̄(r) = 1
//   for each later node u in BFS order:
//     p_bar = estimator.EstimateNext(u, layer(u));
//     if (p_bar < theta) stop;                 // prune
//     estimator.RecordSelected(u, exact proximity of u);
//
// Paper erratum: Definition 2's u′ = q base case prints the third term as
// (1 - p_q)·Amax(u); Definition 1 requires the global Amax, which is what we
// implement, since Lemma 1 needs the remainder bounded for every node
// (checked by EstimatorPropertyTest.Definition2EqualsDefinition1).
//
// Walk mass lost at dangling nodes. Definition 1 charges every unvisited
// node at Amax·(1 − Σ_selected p), as if the proximities summed to 1. They
// do not when the graph has dangling nodes (no out-edges; column v of A is
// all zero, every other column sums to 1): from W·p = c·q, 1ᵀq = 1 and
// 1ᵀA = 1ᵀ − dᵀ (d marks the dangling nodes),
//
//     Σ_v p(v) = 1 − λ·Σ_{v dangling} p(v),   λ = (1 − c)/c,
//
// so the unvisited mass is at most 1 − Σ_sel p − λ·Σ_{sel, dangling} p.
// The estimator therefore charges each selected node's proximity against
// the remainder at charge(v) = 1 + λ when v is dangling, 1 otherwise:
//
//     term3 = Amax·(1 − Σ_sel charge(v)·p(v)).
//
// It still bounds every unvisited node's share (Lemma 1), it is pointwise
// ≤ the paper's term, and each update still only lowers p̄ (Lemma 2, since
// Amax(v) ≤ Amax ≤ charge(v)·Amax), so the early stop stays exact and never
// fires later than without the charge. Without it, the remainder can never
// fall below the leaked mass and a query whose θ sits under that floor
// scores every reachable node.
//   - Dangling test: v is dangling iff Amax(v) = 0 — a column with positive
//     out-weight has a positive entry (edge weights are > 0).
//   - Rounding: the charge uses λ·(1 − kLeakChargeSlack). Computed
//     proximities carry a relative error near 1e-13, far inside the 1e-6
//     slack, so rounding never over-charges.
//   - Restart sets: the identity needs only 1ᵀq = 1, which the weighted
//     roots of a personalized query satisfy; roots are charged in
//     RecordQuery like any selected node.
//   - Shards: a non-owned node is recorded at proximity 0 and so charges
//     nothing — a shard takes off only the leak it actually computed.
//   - Floor: term 3 is taken as max(term3, 0). Once the unvisited mass
//     falls under an ulp of 1 (on a directed cycle at c = 0.95, after about
//     a dozen nodes), the computed charged mass reaches 1 and the repeated
//     subtraction leaves term 3 a few ulps below 0. A negative p̄ would then
//     stop the search at `p̄ < θ` even while θ = 0, before the heap is full.
//     The true remainder is never negative, so the floored bound stays
//     admissible (Lemma 1); the floor only raises p̄, so it never makes a
//     search stop earlier.
#ifndef KDASH_CORE_ESTIMATOR_H_
#define KDASH_CORE_ESTIMATOR_H_

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace kdash::core {

class ProximityEstimator {
 public:
  // `amax` = max element of A; `restart_prob` = c; `amax_of_node[v]` = max
  // element of column v (both precomputed, Section 4.3.1; 0 marks a
  // dangling node); `c_prime_of_node[u]` = (1-c) / (1 - A(u,u) + c·A(u,u))
  // (Definition 1).
  ProximityEstimator(Scalar amax, Scalar restart_prob,
                     const std::vector<Scalar>* amax_of_node,
                     const std::vector<Scalar>* c_prime_of_node)
      : amax_(amax),
        dangling_charge_(DanglingCharge(restart_prob)),
        amax_of_node_(amax_of_node),
        c_prime_of_node_(c_prime_of_node) {
    KDASH_CHECK(amax_of_node != nullptr && c_prime_of_node != nullptr);
  }

  // Starts a new query. The query node itself has p̄ = 1 by definition and
  // must be recorded with RecordQuery() after its exact proximity is known.
  void Reset() {
    has_query_ = false;
    prev_is_query_ = false;
    pending_record_ = false;
    sum1_ = sum2_ = sum3_ = 0.0;
    root_contribution_ = 0.0;
    root_mass_ = 0.0;
    prev_node_ = kInvalidNode;
    prev_layer_ = -1;
    prev_proximity_ = 0.0;
  }

  // Records a layer-0 root as selected with its exact proximity. For a
  // plain top-k query there is exactly one root (the query node, p̄ = 1 by
  // Definition 1); a personalized restart-set query records every source
  // node before the first EstimateNext — the Definition-1 terms then sum
  // over all of them (multi-source BFS keeps Lemma 1's layer property).
  void RecordQuery(NodeId query, Scalar proximity) {
    KDASH_CHECK(!pending_record_);
    has_query_ = true;
    prev_is_query_ = true;
    const Scalar amax_root = (*amax_of_node_)[static_cast<std::size_t>(query)];
    root_contribution_ += proximity * amax_root;
    root_mass_ += proximity * Charge(amax_root);
    prev_node_ = query;
    prev_layer_ = 0;
    prev_proximity_ = proximity;
  }

  // Upper bound p̄(u) for the next node in BFS order (u ≠ query). `layer`
  // must equal the previous node's layer or exceed it by exactly 1.
  Scalar EstimateNext(NodeId u, NodeId layer) {
    KDASH_CHECK(has_query_) << "RecordQuery must run first";
    const Scalar amax_prev = (*amax_of_node_)[static_cast<std::size_t>(prev_node_)];
    if (prev_is_query_) {
      // Definition 2, u′ = q, generalized to a root set: the first term
      // gathers every layer-0 root's contribution.
      KDASH_DCHECK_EQ(layer, 1);
      sum1_ = root_contribution_;
      sum2_ = 0.0;
      sum3_ = (1.0 - root_mass_) * amax_;  // global Amax (see erratum)
    } else if (layer == prev_layer_) {
      sum2_ += prev_proximity_ * amax_prev;
      sum3_ -= prev_proximity_ * Charge(amax_prev) * amax_;
    } else {
      KDASH_DCHECK_EQ(layer, prev_layer_ + 1);
      sum1_ = sum2_ + prev_proximity_ * amax_prev;
      sum2_ = 0.0;
      sum3_ -= prev_proximity_ * Charge(amax_prev) * amax_;
    }
    prev_is_query_ = false;
    prev_node_ = u;
    prev_layer_ = layer;
    prev_proximity_ = 0.0;  // filled in by RecordSelected
    pending_record_ = true;
    return (*c_prime_of_node_)[static_cast<std::size_t>(u)] *
           (sum1_ + sum2_ + std::max(sum3_, 0.0));
  }

  // Records the exact proximity of the node just estimated. Must follow
  // every EstimateNext whose node was not pruned.
  void RecordSelected(NodeId u, Scalar proximity) {
    KDASH_CHECK(pending_record_ && u == prev_node_)
        << "RecordSelected out of protocol";
    prev_proximity_ = proximity;
    pending_record_ = false;
  }

  // --- Reference implementation for tests --------------------------------

  // Direct O(|selected|) evaluation of Definition 1. `selected` are the
  // already-selected nodes with their layers and exact proximities.
  struct Selected {
    NodeId node;
    NodeId layer;
    Scalar proximity;
  };
  static Scalar EstimateDirect(NodeId u, NodeId layer,
                               const std::vector<Selected>& selected,
                               Scalar amax, Scalar restart_prob,
                               const std::vector<Scalar>& amax_of_node,
                               const std::vector<Scalar>& c_prime_of_node);

 private:
  // Relative slack taken off λ so rounding never over-charges (see the
  // header comment).
  static constexpr Scalar kLeakChargeSlack = 1e-6;

  // Remainder charge per unit proximity of a selected dangling node:
  // 1 + λ·(1 − kLeakChargeSlack), λ = (1 − c)/c.
  static Scalar DanglingCharge(Scalar restart_prob) {
    return 1.0 +
           (1.0 - restart_prob) / restart_prob * (1.0 - kLeakChargeSlack);
  }

  // charge(v) given Amax(v): a dangling node (Amax(v) = 0) also takes the
  // walk mass it leaks off the remainder.
  Scalar Charge(Scalar amax_of_v) const {
    return amax_of_v == 0.0 ? dangling_charge_ : 1.0;
  }

  Scalar amax_;
  Scalar dangling_charge_;
  const std::vector<Scalar>* amax_of_node_;
  const std::vector<Scalar>* c_prime_of_node_;

  bool has_query_ = false;
  bool prev_is_query_ = false;
  bool pending_record_ = false;
  Scalar sum1_ = 0.0, sum2_ = 0.0, sum3_ = 0.0;
  Scalar root_contribution_ = 0.0;  // Σ_roots p_r · Amax(r)
  Scalar root_mass_ = 0.0;          // Σ_roots charge(r) · p_r
  NodeId prev_node_ = kInvalidNode;
  NodeId prev_layer_ = -1;
  Scalar prev_proximity_ = 0.0;
};

// Computes the per-node c′ factors from the diagonal of A:
// c′(u) = (1-c) / (1 - A(u,u) + c·A(u,u)).
std::vector<Scalar> ComputeCPrime(const std::vector<Scalar>& a_diagonal,
                                  Scalar restart_prob);

// Query-independent upper bound on the proximity ANY query can assign to a
// non-source node in the window [begin, end): min(1, Amax · max c′(u)).
//
// Why it is admissible: Definition 1's three terms sum Σ p·Amax(v) over
// selected nodes plus (1 − Σp)·Amax over the remainder, and the total
// selected mass never exceeds 1 (proximities are a sub-probability), so
// the parenthesized sum is ≤ Amax for every node at every point of the
// visit. Lemma 1 says the per-node estimate p̄(u) = c′(u)·(sums) bounds the
// true proximity p(u) from above — so p(u) ≤ c′(u)·Amax for every u that
// is not itself a restart source (a source has p̄ = 1 by definition and can
// hold up to its full restart mass). The bound therefore applies to a
// whole ownership window only when the window owns no query source; the
// sharded fan-out always searches source-owning shards unconditionally.
Scalar OwnedScoreBound(NodeId begin, NodeId end, Scalar amax,
                       const std::vector<Scalar>& c_prime_of_node);

}  // namespace kdash::core

#endif  // KDASH_CORE_ESTIMATOR_H_
