#include "lu/sparse_lu.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sparse/coo_builder.h"

namespace kdash::lu {

sparse::CscMatrix BuildRwrSystemMatrix(const sparse::CscMatrix& a,
                                       Scalar restart_prob) {
  KDASH_CHECK_EQ(a.rows(), a.cols());
  KDASH_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  const Scalar damp = 1.0 - restart_prob;
  const NodeId n = a.rows();
  sparse::CooBuilder builder(n, n);
  builder.Reserve(static_cast<std::size_t>(a.nnz() + n));
  for (NodeId col = 0; col < n; ++col) {
    builder.Add(col, col, 1.0);
    const Index end = a.ColEnd(col);
    for (Index k = a.ColBegin(col); k < end; ++k) {
      builder.Add(a.RowIndex(k), col, -damp * a.Value(k));
    }
  }
  return builder.BuildCsc();
}

namespace {

// Iterative DFS computing the reach of `roots` in the DAG whose node k has
// out-edges to the stored below-diagonal row indices of L(:, k), restricted
// to k < pivot_limit (columns of L not yet factored act as identity).
// Emits visited nodes in reverse-topological order into `topo` (so iterating
// `topo` backwards gives a valid elimination order).
class ReachDfs {
 public:
  explicit ReachDfs(NodeId n)
      : visited_(static_cast<std::size_t>(n), false) {}

  // l_ptr/l_rows describe the below-diagonal structure of the partial L.
  void Run(const std::vector<Index>& l_ptr, const std::vector<NodeId>& l_rows,
           NodeId pivot_limit, const std::vector<NodeId>& roots,
           std::vector<NodeId>& topo) {
    topo.clear();
    for (const NodeId root : roots) {
      if (visited_[static_cast<std::size_t>(root)]) continue;
      // Each stack frame is (node, next child offset to examine).
      stack_.clear();
      stack_.emplace_back(root, root < pivot_limit
                                    ? l_ptr[static_cast<std::size_t>(root)]
                                    : Index{-1});
      visited_[static_cast<std::size_t>(root)] = true;
      while (!stack_.empty()) {
        auto& [node, next] = stack_.back();
        bool descended = false;
        if (node < pivot_limit) {
          const Index end = l_ptr[static_cast<std::size_t>(node) + 1];
          while (next < end) {
            const NodeId child = l_rows[static_cast<std::size_t>(next)];
            ++next;
            if (!visited_[static_cast<std::size_t>(child)]) {
              visited_[static_cast<std::size_t>(child)] = true;
              stack_.emplace_back(child,
                                  child < pivot_limit
                                      ? l_ptr[static_cast<std::size_t>(child)]
                                      : Index{-1});
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          topo.push_back(node);
          stack_.pop_back();
        }
      }
    }
    // Reset visited flags for the next call (touch only what we visited).
    for (const NodeId v : topo) visited_[static_cast<std::size_t>(v)] = false;
  }

 private:
  std::vector<bool> visited_;
  std::vector<std::pair<NodeId, Index>> stack_;
};

}  // namespace

LuFactors FactorizeLu(const sparse::CscMatrix& w) {
  KDASH_CHECK_EQ(w.rows(), w.cols());
  const NodeId n = w.rows();

  // Growing CSC arrays. L stores only below-diagonal entries during
  // factorization (unit diagonal implicit); U stores diagonal + above.
  std::vector<Index> l_ptr{0}, u_ptr{0};
  std::vector<NodeId> l_rows, u_rows;
  std::vector<Scalar> l_vals, u_vals;
  l_ptr.reserve(static_cast<std::size_t>(n) + 1);
  u_ptr.reserve(static_cast<std::size_t>(n) + 1);

  ReachDfs dfs(n);
  std::vector<NodeId> roots, topo;
  std::vector<Scalar> x(static_cast<std::size_t>(n), 0.0);

  for (NodeId j = 0; j < n; ++j) {
    // Scatter W(:, j) and collect its row pattern as DFS roots.
    roots.clear();
    const Index col_end = w.ColEnd(j);
    for (Index k = w.ColBegin(j); k < col_end; ++k) {
      roots.push_back(w.RowIndex(k));
      x[static_cast<std::size_t>(w.RowIndex(k))] = w.Value(k);
    }

    dfs.Run(l_ptr, l_rows, /*pivot_limit=*/j, roots, topo);

    // Numeric sparse solve L(0:j-1, 0:j-1) part: process in topological
    // order (reverse of the DFS postorder output).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeId k = *it;
      if (k >= j) continue;  // not an eliminated column yet
      const Scalar xk = x[static_cast<std::size_t>(k)];
      if (xk == 0.0) continue;
      const Index end = l_ptr[static_cast<std::size_t>(k) + 1];
      for (Index t = l_ptr[static_cast<std::size_t>(k)]; t < end; ++t) {
        x[static_cast<std::size_t>(l_rows[static_cast<std::size_t>(t)])] -=
            l_vals[static_cast<std::size_t>(t)] * xk;
      }
    }

    // Gather: U(0..j, j) and L(j+1.., j). `topo` holds the full pattern.
    const Scalar pivot = x[static_cast<std::size_t>(j)];
    KDASH_CHECK(pivot != 0.0) << "zero pivot at column " << j
                              << " (matrix not diagonally dominant?)";
    std::sort(topo.begin(), topo.end());
    for (const NodeId i : topo) {
      const Scalar xi = x[static_cast<std::size_t>(i)];
      x[static_cast<std::size_t>(i)] = 0.0;  // clear for next column
      if (xi == 0.0) continue;               // numerically cancelled
      if (i <= j) {
        u_rows.push_back(i);
        u_vals.push_back(xi);
      } else {
        l_rows.push_back(i);
        l_vals.push_back(xi / pivot);
      }
    }
    // Guarantee the diagonal of U is present even if it cancelled to the
    // pivot check above (pivot != 0 so it was emitted).
    l_ptr.push_back(static_cast<Index>(l_rows.size()));
    u_ptr.push_back(static_cast<Index>(u_rows.size()));
  }

  // Assemble final L with explicit unit diagonal.
  std::vector<Index> lf_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> lf_rows;
  std::vector<Scalar> lf_vals;
  lf_rows.reserve(l_rows.size() + static_cast<std::size_t>(n));
  lf_vals.reserve(l_vals.size() + static_cast<std::size_t>(n));
  for (NodeId j = 0; j < n; ++j) {
    lf_rows.push_back(j);
    lf_vals.push_back(1.0);
    const Index end = l_ptr[static_cast<std::size_t>(j) + 1];
    for (Index k = l_ptr[static_cast<std::size_t>(j)]; k < end; ++k) {
      lf_rows.push_back(l_rows[static_cast<std::size_t>(k)]);
      lf_vals.push_back(l_vals[static_cast<std::size_t>(k)]);
    }
    lf_ptr[static_cast<std::size_t>(j) + 1] = static_cast<Index>(lf_rows.size());
  }

  LuFactors factors;
  factors.lower = sparse::CscMatrix(n, n, std::move(lf_ptr), std::move(lf_rows),
                                    std::move(lf_vals));
  factors.upper =
      sparse::CscMatrix(n, n, std::move(u_ptr), std::move(u_rows), std::move(u_vals));
  return factors;
}

}  // namespace kdash::lu
