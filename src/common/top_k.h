// Bounded top-k accumulator over (score, node) pairs.
//
// Used by every search engine in the library (K-dash, power iteration,
// NB_LIN, Basic Push) so that tie-breaking is identical everywhere:
// higher score wins; on equal scores the smaller node id wins. Deterministic
// tie-breaking is what lets the exactness tests compare engines node-by-node.
#ifndef KDASH_COMMON_TOP_K_H_
#define KDASH_COMMON_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace kdash {

// A node together with its RWR proximity score.
struct ScoredNode {
  NodeId node = kInvalidNode;
  Scalar score = 0.0;

  friend bool operator==(const ScoredNode&, const ScoredNode&) = default;
};

// Ranking order: by descending score, ties broken by ascending node id.
inline bool RanksHigher(const ScoredNode& a, const ScoredNode& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

// Keeps the k highest-ranked entries pushed so far. Push is O(log k).
class TopKHeap {
 public:
  explicit TopKHeap(std::size_t k) : k_(k) { KDASH_CHECK(k > 0); }

  // Current K-th highest score (the pruning threshold θ in Algorithm 4).
  // Zero while fewer than k entries are held, matching the paper's device of
  // seeding the candidate set with K dummy nodes of proximity 0.
  Scalar Threshold() const {
    if (heap_.size() < k_) return 0.0;
    return heap_.front().score;
  }

  bool Full() const { return heap_.size() >= k_; }
  std::size_t Size() const { return heap_.size(); }

  // Offers a candidate; keeps it only if it ranks above the current K-th.
  void Push(NodeId node, Scalar score) {
    const ScoredNode entry{node, score};
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end(), RanksHigher);
      return;
    }
    if (RanksHigher(entry, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), RanksHigher);
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end(), RanksHigher);
    }
  }

  // Returns the held entries ranked best-first. Does not modify the heap.
  std::vector<ScoredNode> Sorted() const {
    std::vector<ScoredNode> result = heap_;
    std::sort(result.begin(), result.end(), RanksHigher);
    return result;
  }

 private:
  std::size_t k_;
  // Min-heap on RanksHigher: front() is the worst held entry.
  std::vector<ScoredNode> heap_;
};

// Convenience: the top-k entries of a full score vector, ranked best-first.
std::vector<ScoredNode> TopKOfVector(const std::vector<Scalar>& scores,
                                     std::size_t k);

}  // namespace kdash

#endif  // KDASH_COMMON_TOP_K_H_
