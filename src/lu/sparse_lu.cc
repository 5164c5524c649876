#include "lu/sparse_lu.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace kdash::lu {

sparse::CscMatrix BuildRwrSystemMatrix(const sparse::CscMatrix& a,
                                       Scalar restart_prob) {
  KDASH_CHECK_EQ(a.rows(), a.cols());
  KDASH_CHECK(restart_prob > 0.0 && restart_prob < 1.0);
  const Scalar damp = 1.0 - restart_prob;
  const NodeId n = a.rows();
  // The identity's 1 is merged into each sorted column of A, so nothing is
  // sorted; a self-loop's diagonal is the two-term sum 1 + (−damp·a_jj).
  std::vector<Index> col_ptr{0};
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  const auto append = [&](NodeId row, Scalar value) {
    row_idx.push_back(row);
    values.push_back(value);
  };
  for (NodeId col = 0; col < n; ++col) {
    const Index end = a.ColEnd(col);
    Index k = a.ColBegin(col);
    for (; k < end && a.RowIndex(k) < col; ++k) {
      append(a.RowIndex(k), -damp * a.Value(k));
    }
    Scalar diagonal = 1.0;
    if (k < end && a.RowIndex(k) == col) diagonal += -damp * a.Value(k++);
    append(col, diagonal);
    for (; k < end; ++k) append(a.RowIndex(k), -damp * a.Value(k));
    col_ptr.push_back(static_cast<Index>(row_idx.size()));
  }
  return sparse::CscMatrix(n, n, std::move(col_ptr), std::move(row_idx),
                           std::move(values));
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

// Dense-tail switch rule (see the header comment).
constexpr NodeId kMinDenseTail = 64;
constexpr std::size_t kMaxDenseTailBytes = std::size_t{512} << 20;

// Dense LU blocking. Panels are factored sequentially; the row blocks of U
// to their right are solved in chunks of kTileCols columns and the trailing
// update runs in kTileRows × kTileCols tiles, both on the pool.
constexpr Index kPanelWidth = 64;
constexpr Index kTileRows = 256;
constexpr Index kTileCols = 16;
// Rows per register block inside a tile.
constexpr Index kMicroRows = 8;
// Trailing columns per chunk while the Schur complement is formed.
constexpr Index kSchurGrain = 8;

// True when the factorization should go dense after a column whose
// below-diagonal L has `lower_nnz` entries, with `remaining` columns left.
bool StartsDenseTail(Index lower_nnz, NodeId remaining) {
  const auto rows = static_cast<std::size_t>(remaining);
  return remaining >= kMinDenseTail && 4 * lower_nnz >= remaining &&
         rows * rows * sizeof(Scalar) <= kMaxDenseTailBytes;
}

// CSC arrays of a factor, grown one column at a time.
struct GrowingCsc {
  std::vector<Index> ptr{0};
  std::vector<NodeId> rows;
  std::vector<Scalar> vals;
};

// Scratch of one sparse column elimination; one per pool rank.
struct ColumnWorkspace {
  explicit ColumnWorkspace(NodeId n)
      : dfs(n), x(static_cast<std::size_t>(n), 0.0) {}
  ReachDfs dfs;
  std::vector<NodeId> roots;
  std::vector<NodeId> topo;
  std::vector<Scalar> x;  // zero outside the current column's pattern
};

// Eliminates the L columns < pivot_limit (`l` holds their below-diagonal
// parts) from W(:, j): on return ws.x holds the result on the ascending
// pattern ws.topo and is zero elsewhere.
void EliminateColumn(const sparse::CscMatrix& w, NodeId j, NodeId pivot_limit,
                     const GrowingCsc& l, ColumnWorkspace& ws) {
  std::vector<Scalar>& x = ws.x;
  // Scatter W(:, j) and collect its row pattern as DFS roots.
  ws.roots.clear();
  const Index col_end = w.ColEnd(j);
  for (Index k = w.ColBegin(j); k < col_end; ++k) {
    ws.roots.push_back(w.RowIndex(k));
    x[static_cast<std::size_t>(w.RowIndex(k))] = w.Value(k);
  }

  ws.dfs.Run(l.ptr, l.rows, pivot_limit, ws.roots, ws.topo);

  // Numeric sparse solve: process in topological order (reverse of the DFS
  // postorder output).
  for (auto it = ws.topo.rbegin(); it != ws.topo.rend(); ++it) {
    const NodeId k = *it;
    if (k >= pivot_limit) continue;  // not an eliminated column
    const Scalar xk = x[static_cast<std::size_t>(k)];
    if (xk == 0.0) continue;
    const Index end = l.ptr[static_cast<std::size_t>(k) + 1];
    for (Index t = l.ptr[static_cast<std::size_t>(k)]; t < end; ++t) {
      x[static_cast<std::size_t>(l.rows[static_cast<std::size_t>(t)])] -=
          l.vals[static_cast<std::size_t>(t)] * xk;
    }
  }
  std::sort(ws.topo.begin(), ws.topo.end());
}

// a(r0:r1, q) -= a(r0:r1, k0:k1) · a(k0:k1, q) for every q in [q0, q1) of
// the column-major m×m array `a`: one pivot at a time in ascending order,
// skipping the pivots whose U entry a(p, q) is exactly zero.
void UpdateTile(Scalar* a, Index m, Index k0, Index k1, Index r0, Index r1,
                Index q0, Index q1) {
  Index pivots[kPanelWidth];
  Scalar u[kPanelWidth];
  for (Index q = q0; q < q1; ++q) {
    Scalar* const column = a + q * m;
    Index count = 0;
    for (Index p = k0; p < k1; ++p) {
      if (column[p] == 0.0) continue;
      pivots[count] = p;
      u[count++] = column[p];
    }
    if (count == 0) continue;
    Index i = r0;
    for (; i + kMicroRows <= r1; i += kMicroRows) {
      Scalar acc[kMicroRows];
      for (Index r = 0; r < kMicroRows; ++r) acc[r] = column[i + r];
      for (Index t = 0; t < count; ++t) {
        const Scalar* const lower = a + pivots[t] * m + i;
        const Scalar ut = u[t];
        for (Index r = 0; r < kMicroRows; ++r) acc[r] -= lower[r] * ut;
      }
      for (Index r = 0; r < kMicroRows; ++r) column[i + r] = acc[r];
    }
    for (; i < r1; ++i) {
      Scalar acc = column[i];
      for (Index t = 0; t < count; ++t) acc -= a[pivots[t] * m + i] * u[t];
      column[i] = acc;
    }
  }
}

// Factors the column-major m×m array `a` in place as L·U without pivoting:
// L (unit diagonal implicit) below the diagonal, U on and above it.
// Blocked right-looking. Every entry receives its updates in ascending
// pivot order at every thread count. `first_column` is a(0, 0)'s column in
// the whole matrix, for the zero-pivot message.
void FactorDense(Scalar* a, Index m, NodeId first_column, ThreadPool& pool) {
  for (Index k0 = 0; k0 < m; k0 += kPanelWidth) {
    const Index k1 = std::min(m, k0 + kPanelWidth);
    // The panel a(k0:m, k0:k1), column by column.
    for (Index p = k0; p < k1; ++p) {
      Scalar* const lower = a + p * m;
      const Scalar pivot = lower[p];
      KDASH_CHECK(pivot != 0.0)
          << "zero pivot at column " << first_column + p
          << " (matrix not diagonally dominant?)";
      for (Index i = p + 1; i < m; ++i) lower[i] /= pivot;
      for (Index q = p + 1; q < k1; ++q) {
        Scalar* const column = a + q * m;
        const Scalar u = column[p];
        if (u == 0.0) continue;
        for (Index i = p + 1; i < m; ++i) column[i] -= lower[i] * u;
      }
    }
    if (k1 == m) break;

    // U(k0:k1, k1:m): the unit lower solve with the panel's top block.
    pool.ParallelFor(k1, m, kTileCols, [&](Index q0, Index q1, int) {
      for (Index q = q0; q < q1; ++q) {
        Scalar* const column = a + q * m;
        for (Index p = k0; p < k1; ++p) {
          const Scalar u = column[p];
          if (u == 0.0) continue;
          const Scalar* const lower = a + p * m;
          for (Index i = p + 1; i < k1; ++i) column[i] -= lower[i] * u;
        }
      }
    });

    // a(k1:m, k1:m) -= L(k1:m, k0:k1) · U(k0:k1, k1:m), tile by tile.
    const Index row_tiles = (m - k1 + kTileRows - 1) / kTileRows;
    const Index col_tiles = (m - k1 + kTileCols - 1) / kTileCols;
    pool.ParallelFor(0, row_tiles * col_tiles, 1,
                     [&](Index t0, Index t1, int) {
      for (Index t = t0; t < t1; ++t) {
        const Index r0 = k1 + (t % row_tiles) * kTileRows;
        const Index q0 = k1 + (t / row_tiles) * kTileCols;
        UpdateTile(a, m, k0, k1, r0, std::min(m, r0 + kTileRows), q0,
                   std::min(m, q0 + kTileCols));
      }
    });
  }
}

// Factors columns dense_begin..n-1 of `w`, given the factors of the columns
// before (L below its diagonal in `l`, U in `u`), and appends them.
void FactorDenseTail(const sparse::CscMatrix& w, NodeId dense_begin,
                     int num_threads, GrowingCsc& l, GrowingCsc& u) {
  const NodeId n = w.rows();
  const NodeId s = dense_begin;
  const Index m = n - s;
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool& pool = SelectPool(num_threads, local_pool);

  // S = W₂₂ - L₂₁U₁₂, column by column, with U₁₂ kept per column.
  std::vector<Scalar> schur(static_cast<std::size_t>(m * m), 0.0);
  std::vector<std::vector<NodeId>> top_rows(static_cast<std::size_t>(m));
  std::vector<std::vector<Scalar>> top_vals(static_cast<std::size_t>(m));
  std::vector<std::unique_ptr<ColumnWorkspace>> workspaces(
      static_cast<std::size_t>(pool.num_threads()));
  pool.ParallelFor(s, n, kSchurGrain, [&](Index begin, Index end, int rank) {
    std::unique_ptr<ColumnWorkspace>& ws =
        workspaces[static_cast<std::size_t>(rank)];
    if (!ws) ws = std::make_unique<ColumnWorkspace>(n);
    for (Index j = begin; j < end; ++j) {
      const Index c = j - s;
      EliminateColumn(w, static_cast<NodeId>(j), s, l, *ws);
      Scalar* const column = schur.data() + c * m;
      for (const NodeId i : ws->topo) {
        Scalar& xi = ws->x[static_cast<std::size_t>(i)];
        if (i >= s) {
          column[i - s] = xi;
        } else if (xi != 0.0) {
          top_rows[static_cast<std::size_t>(c)].push_back(i);
          top_vals[static_cast<std::size_t>(c)].push_back(xi);
        }
        xi = 0.0;
      }
    }
  });
  workspaces.clear();

  FactorDense(schur.data(), m, s, pool);

  // Scatter back, dropping exact zeros. Sizing the arrays first is cheaper
  // than growing them entry by entry.
  const auto count_kept = [](const Scalar* begin, const Scalar* end) {
    return static_cast<std::size_t>(
        std::count_if(begin, end, [](Scalar v) { return v != 0.0; }));
  };
  std::size_t lower_nnz = l.rows.size();
  std::size_t upper_nnz = u.rows.size();
  for (Index c = 0; c < m; ++c) {
    const Scalar* const column = schur.data() + c * m;
    upper_nnz += top_rows[static_cast<std::size_t>(c)].size() +
                 count_kept(column, column + c + 1);
    lower_nnz += count_kept(column + c + 1, column + m);
  }
  l.rows.reserve(lower_nnz);
  l.vals.reserve(lower_nnz);
  u.rows.reserve(upper_nnz);
  u.vals.reserve(upper_nnz);
  for (Index c = 0; c < m; ++c) {
    const Scalar* const column = schur.data() + c * m;
    const auto& rows = top_rows[static_cast<std::size_t>(c)];
    const auto& vals = top_vals[static_cast<std::size_t>(c)];
    u.rows.insert(u.rows.end(), rows.begin(), rows.end());
    u.vals.insert(u.vals.end(), vals.begin(), vals.end());
    for (Index r = 0; r <= c; ++r) {
      if (column[r] == 0.0) continue;
      u.rows.push_back(static_cast<NodeId>(s + r));
      u.vals.push_back(column[r]);
    }
    for (Index r = c + 1; r < m; ++r) {
      if (column[r] == 0.0) continue;
      l.rows.push_back(static_cast<NodeId>(s + r));
      l.vals.push_back(column[r]);
    }
    l.ptr.push_back(static_cast<Index>(l.rows.size()));
    u.ptr.push_back(static_cast<Index>(u.rows.size()));
  }
}

}  // namespace

LuFactors FactorizeLu(const sparse::CscMatrix& w, int num_threads) {
  KDASH_CHECK_EQ(w.rows(), w.cols());
  const NodeId n = w.rows();

  // Growing CSC arrays. L stores only below-diagonal entries during
  // factorization (unit diagonal implicit); U stores diagonal + above.
  GrowingCsc l, u;
  l.ptr.reserve(static_cast<std::size_t>(n) + 1);
  u.ptr.reserve(static_cast<std::size_t>(n) + 1);

  ColumnWorkspace ws(n);
  NodeId dense_begin = n;
  for (NodeId j = 0; j < n; ++j) {
    EliminateColumn(w, j, /*pivot_limit=*/j, l, ws);

    // Gather: U(0..j, j) and L(j+1.., j). `topo` holds the full pattern.
    const Scalar pivot = ws.x[static_cast<std::size_t>(j)];
    KDASH_CHECK(pivot != 0.0) << "zero pivot at column " << j
                              << " (matrix not diagonally dominant?)";
    for (const NodeId i : ws.topo) {
      const Scalar xi = ws.x[static_cast<std::size_t>(i)];
      ws.x[static_cast<std::size_t>(i)] = 0.0;  // clear for next column
      if (xi == 0.0) continue;                  // numerically cancelled
      if (i <= j) {
        u.rows.push_back(i);
        u.vals.push_back(xi);
      } else {
        l.rows.push_back(i);
        l.vals.push_back(xi / pivot);
      }
    }
    l.ptr.push_back(static_cast<Index>(l.rows.size()));
    u.ptr.push_back(static_cast<Index>(u.rows.size()));

    if (StartsDenseTail(l.ptr[static_cast<std::size_t>(j) + 1] -
                            l.ptr[static_cast<std::size_t>(j)],
                        n - j - 1)) {
      dense_begin = j + 1;
      FactorDenseTail(w, dense_begin, num_threads, l, u);
      break;
    }
  }

  // Assemble final L with explicit unit diagonal.
  std::vector<Index> lf_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> lf_rows;
  std::vector<Scalar> lf_vals;
  lf_rows.reserve(l.rows.size() + static_cast<std::size_t>(n));
  lf_vals.reserve(l.vals.size() + static_cast<std::size_t>(n));
  for (NodeId j = 0; j < n; ++j) {
    lf_rows.push_back(j);
    lf_vals.push_back(1.0);
    const Index end = l.ptr[static_cast<std::size_t>(j) + 1];
    for (Index k = l.ptr[static_cast<std::size_t>(j)]; k < end; ++k) {
      lf_rows.push_back(l.rows[static_cast<std::size_t>(k)]);
      lf_vals.push_back(l.vals[static_cast<std::size_t>(k)]);
    }
    lf_ptr[static_cast<std::size_t>(j) + 1] = static_cast<Index>(lf_rows.size());
  }

  LuFactors factors;
  factors.lower = sparse::CscMatrix(n, n, std::move(lf_ptr), std::move(lf_rows),
                                    std::move(lf_vals));
  factors.upper = sparse::CscMatrix(n, n, std::move(u.ptr), std::move(u.rows),
                                    std::move(u.vals));
  factors.dense_begin = dense_begin;
  return factors;
}

}  // namespace kdash::lu
