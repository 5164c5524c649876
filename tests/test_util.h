// Shared helpers for the test suite.
#ifndef KDASH_TESTS_TEST_UTIL_H_
#define KDASH_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "core/query.h"
#include "graph/graph.h"
#include "linalg/dense_matrix.h"
#include "obs/metrics.h"
#include "sparse/csc_matrix.h"

namespace kdash::test {

// Small deterministic directed graph used across unit tests:
//
//      0 → 1 → 3
//      0 → 2 → 3 → 4
//      4 → 0        (cycle back)
//      2 → 1
inline graph::Graph SmallDirectedGraph() {
  graph::GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  builder.AddEdge(2, 1);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 0);
  return std::move(builder).Build();
}

// The example graph of Figure 8 in the paper (u1..u7 → ids 0..6), matching
// the appendix walk-through: BFS from u1 puts u2,u3 on layer 1, u4,u5 on
// layer 2, u6,u7 on layer 3, and u5's in-edges come from u2, u4, u6 only
// (A52, A54, A56 ≠ 0; A51, A53, A57 = 0).
inline graph::Graph Figure8Graph() {
  graph::GraphBuilder builder(7);
  builder.AddEdge(0, 1);  // u1→u2 (layer 1)
  builder.AddEdge(0, 2);  // u1→u3 (layer 1)
  builder.AddEdge(1, 3);  // u2→u4 (layer 2)
  builder.AddEdge(1, 4);  // u2→u5 (layer 2), A52 ≠ 0
  builder.AddEdge(2, 3);  // u3→u4
  builder.AddEdge(3, 5);  // u4→u6 (layer 3)
  builder.AddEdge(3, 4);  // u4→u5, same-layer non-tree edge, A54 ≠ 0
  builder.AddEdge(5, 4);  // u6→u5, upward non-tree edge,   A56 ≠ 0
  builder.AddEdge(4, 6);  // u5→u7 (layer 3)
  return std::move(builder).Build();
}

// Uniform random directed graph (simple, no self loops) for property tests.
// Each node but 0 is, with probability `sink_fraction`, dangling: it gets
// no out-edges, so the walk loses its mass there. Sinks come from their own
// stream, so sink_fraction = 0 gives the plain graph of every seed.
inline graph::Graph RandomDirectedGraph(NodeId n, Index m, std::uint64_t seed,
                                        double sink_fraction = 0.0) {
  std::vector<bool> sink(static_cast<std::size_t>(n), false);
  Rng sink_rng(seed ^ 0x5eed51c4ULL);
  for (NodeId u = 1; u < n; ++u) {  // node 0 always keeps its out-edges
    sink[static_cast<std::size_t>(u)] = sink_rng.NextDouble() < sink_fraction;
  }
  Rng rng(seed);
  graph::GraphBuilder builder(n);
  Index added = 0;
  while (added < m) {
    const NodeId u = rng.NextNode(n);
    const NodeId v = rng.NextNode(n);
    if (u == v || sink[static_cast<std::size_t>(u)]) continue;
    builder.AddEdge(u, v, 0.25 + rng.NextDouble());
    ++added;
  }
  return std::move(builder).Build();
}

// Dense materialization of a sparse matrix for reference comparisons.
inline linalg::DenseMatrix ToDense(const sparse::CscMatrix& a) {
  linalg::DenseMatrix d(a.rows(), a.cols());
  for (NodeId col = 0; col < a.cols(); ++col) {
    for (Index k = a.ColBegin(col); k < a.ColEnd(col); ++k) {
      d(a.RowIndex(k), static_cast<int>(col)) = a.Value(k);
    }
  }
  return d;
}

// Max |A - B| entrywise.
inline Scalar MaxAbsDiff(const linalg::DenseMatrix& a,
                         const linalg::DenseMatrix& b) {
  Scalar worst = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

// Success iff `a` and `b` have the same shape, col_ptr and row_idx, and
// values equal bit for bit (so 0.0 and -0.0 differ). The form for checking
// an assembly against its sparse::CooBuilder oracle.
inline ::testing::AssertionResult SameCscBits(const sparse::CscMatrix& a,
                                              const sparse::CscMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  if (a.col_ptr() != b.col_ptr()) {
    return ::testing::AssertionFailure() << "col_ptr differs";
  }
  if (a.row_idx() != b.row_idx()) {
    return ::testing::AssertionFailure() << "row_idx differs";
  }
  for (Index k = 0; k < a.nnz(); ++k) {
    if (std::bit_cast<std::uint64_t>(a.Value(k)) !=
        std::bit_cast<std::uint64_t>(b.Value(k))) {
      return ::testing::AssertionFailure()
             << "value " << k << ": " << a.Value(k) << " vs " << b.Value(k);
    }
  }
  return ::testing::AssertionSuccess();
}

// Growth of one process-global registry counter since construction. The
// registry never resets and every component in the process adds to it, so
// tests assert on deltas: construct before the component under test starts
// counting, read once every other counting component in the test is idle.
class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name)
      : counter_(obs::MetricRegistry::Global().GetCounter(name)),
        start_(counter_.Value()) {}

  std::uint64_t operator()() const { return counter_.Value() - start_; }

 private:
  const obs::Counter& counter_;
  const std::uint64_t start_;
};

// Success iff every result of a batch is OK; otherwise names the first
// failing query and its status:  ASSERT_TRUE(test::AllOk(batch));
inline ::testing::AssertionResult AllOk(
    const std::vector<Result<SearchResult>>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return ::testing::AssertionFailure()
             << "query " << i << ": " << results[i].status();
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace kdash::test

#endif  // KDASH_TESTS_TEST_UTIL_H_
