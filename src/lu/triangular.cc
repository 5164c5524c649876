#include "lu/triangular.h"

#include <algorithm>
#include <memory>
#include <ranges>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace kdash::lu {

void SolveLowerInPlace(const sparse::CscMatrix& lower, std::vector<Scalar>& b) {
  const NodeId n = lower.cols();
  KDASH_CHECK_EQ(b.size(), static_cast<std::size_t>(n));
  for (NodeId j = 0; j < n; ++j) {
    const Index begin = lower.ColBegin(j);
    const Index end = lower.ColEnd(j);
    KDASH_DCHECK(begin < end && lower.RowIndex(begin) == j)
        << "missing diagonal in lower factor at column " << j;
    const Scalar xj = b[static_cast<std::size_t>(j)] / lower.Value(begin);
    b[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (Index k = begin + 1; k < end; ++k) {
      b[static_cast<std::size_t>(lower.RowIndex(k))] -= lower.Value(k) * xj;
    }
  }
}

void SolveUpperInPlace(const sparse::CscMatrix& upper, std::vector<Scalar>& b) {
  const NodeId n = upper.cols();
  KDASH_CHECK_EQ(b.size(), static_cast<std::size_t>(n));
  for (NodeId j = static_cast<NodeId>(n - 1); j >= 0; --j) {
    const Index begin = upper.ColBegin(j);
    const Index end = upper.ColEnd(j);
    KDASH_DCHECK(begin < end && upper.RowIndex(end - 1) == j)
        << "missing diagonal in upper factor at column " << j;
    const Scalar xj = b[static_cast<std::size_t>(j)] / upper.Value(end - 1);
    b[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (Index k = begin; k < end - 1; ++k) {
      b[static_cast<std::size_t>(upper.RowIndex(k))] -= upper.Value(k) * xj;
    }
  }
}

namespace {

// Solves computed per pass of the blocked kernel. A touched row owns 16
// contiguous accumulators (128 bytes), one per solve of the block.
constexpr NodeId kBlockWidth = 16;
constexpr NodeId kNoSlot = -1;

// Explicit inverse builder: backward substitution on an upper triangular T.
//
// Solve j is T x = e_j, i.e. column j of T⁻¹. Its nonzero pattern is the set
// of nodes reachable from j in the DAG "k → rows above the diagonal of
// T(:, k)", and processing discovered nodes in descending row order is a
// valid elimination order (all updates flow strictly upward). Each solved
// column is written either as column j of the output (T⁻¹) or as row j
// (T⁻¹ᵀ); nothing else depends on the orientation.
//
// Solves are computed in aligned blocks of kBlockWidth, together over the
// union of their patterns: each column of T is streamed once per block and
// updates all lanes with a branch-free loop. For every solve the nonzero
// updates arrive in the same elimination order as in SolveUpperInPlace; a
// lane whose x_k is zero subtracts ±0, which leaves every nonzero value
// unchanged, and zeros (including cancelled values) are dropped at gather,
// so the result is the exact inverse. Neighbouring solves that reach the
// same dense tail of T share most of their patterns, so each tail column is
// read once per block instead of up to 16 times.
//
// Build() farms out fixed chunks of whole blocks to a thread pool (a pool of
// 1 runs them inline); each worker owns a workspace and appends its chunk's
// solves to a per-chunk buffer. One sequential assembly loop then visits
// the solves in ascending j, first to count each output column's entries
// and then to place them, so every output column comes out in ascending
// row order. Every solve depends only on j, so the result is bit-identical
// for any thread count.
class TriangularInverter {
 public:
  TriangularInverter(const sparse::CscMatrix& upper, bool write_rows)
      : m_(upper), write_rows_(write_rows) {
    KDASH_CHECK_EQ(m_.rows(), m_.cols());
  }

  sparse::CscMatrix Build(int num_threads) {
    std::unique_ptr<ThreadPool> local_pool;
    return BuildParallel(SelectPool(num_threads, local_pool));
  }

 private:
  // Per-worker scratch, sized on a worker's first chunk. `slot` is restored
  // after each block, so a block costs O(pattern) rather than O(n).
  struct Workspace {
    // Row → slot; slot s owns acc[s·B, (s+1)·B).
    std::vector<NodeId> slot;
    std::vector<Scalar> acc;
    std::vector<NodeId> pattern;
    // Max-heap worklist: every row enters once, and rows leave it in
    // descending order, the elimination order.
    std::vector<NodeId> heap;
  };

  // Solves j ∈ [j0, j0 + width) in one pass over the union of their
  // patterns, appends them solve after solve (ascending rows) to rows/vals
  // and stores their kept nnz in solve_nnz[j].
  void ComputeBlock(NodeId j0, NodeId width, Workspace& ws,
                    std::vector<NodeId>& rows, std::vector<Scalar>& vals,
                    std::vector<Index>& solve_nnz) const {
    std::vector<NodeId>& slot = ws.slot;
    std::vector<Scalar>& acc = ws.acc;
    std::vector<NodeId>& pattern = ws.pattern;
    std::vector<NodeId>& heap = ws.heap;
    pattern.clear();
    heap.clear();
    acc.clear();

    // The accumulators of row i, given a zeroed slot on first touch.
    const auto lanes_of = [&](NodeId i) {
      NodeId& s = slot[static_cast<std::size_t>(i)];
      if (s == kNoSlot) {
        s = static_cast<NodeId>(acc.size() / kBlockWidth);
        acc.resize(acc.size() + kBlockWidth, 0.0);
        heap.push_back(i);
        std::push_heap(heap.begin(), heap.end());
      }
      return acc.data() + static_cast<std::size_t>(s) * kBlockWidth;
    };
    for (NodeId lane = 0; lane < width; ++lane) lanes_of(j0 + lane)[lane] = 1.0;

    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      const NodeId k = heap.back();
      heap.pop_back();
      pattern.push_back(k);

      const Index begin = m_.ColBegin(k);
      const Index end = m_.ColEnd(k);
      KDASH_DCHECK(begin < end && m_.RowIndex(end - 1) == k)
          << "missing diagonal";
      const Scalar diag = m_.Value(end - 1);
      Scalar* const lanes_k = lanes_of(k);
      // Separate lane loops: fused, GCC keeps x_k in scalar registers and
      // leaves the update loop below unvectorized.
      Scalar xk[kBlockWidth];
      for (NodeId lane = 0; lane < kBlockWidth; ++lane) {
        xk[lane] = lanes_k[lane] / diag;
      }
      for (NodeId lane = 0; lane < kBlockWidth; ++lane) {
        lanes_k[lane] = xk[lane];
      }

      for (Index t = begin; t < end - 1; ++t) {
        Scalar* const lanes_i = lanes_of(m_.RowIndex(t));
        const Scalar v = m_.Value(t);
        for (NodeId lane = 0; lane < kBlockWidth; ++lane) {
          lanes_i[lane] -= v * xk[lane];
        }
      }
    }

    // Gather: split the block back into solves. The pattern was popped in
    // descending order, so walking it backwards gives ascending rows.
    for (NodeId lane = 0; lane < width; ++lane) {
      Index kept = 0;
      for (const NodeId i : std::views::reverse(pattern)) {
        const Scalar xi =
            acc[static_cast<std::size_t>(slot[static_cast<std::size_t>(i)]) *
                    kBlockWidth +
                static_cast<std::size_t>(lane)];
        if (xi == 0.0) continue;
        rows.push_back(i);
        vals.push_back(xi);
        ++kept;
      }
      solve_nnz[static_cast<std::size_t>(j0 + lane)] = kept;
    }
    for (const NodeId i : pattern) slot[static_cast<std::size_t>(i)] = kNoSlot;
  }

  sparse::CscMatrix BuildParallel(ThreadPool& pool) {
    const int num_threads = pool.num_threads();
    const NodeId n = m_.rows();
    // Fixed chunks of whole blocks: small enough for load balance under the
    // dynamic scheduler, large enough to amortize the per-chunk buffers.
    // Boundaries do not affect the output (solves are independent), only
    // performance.
    const Index grain =
        kBlockWidth *
        std::clamp<Index>(static_cast<Index>(n) /
                              (static_cast<Index>(num_threads) * 8 * kBlockWidth),
                          1, 32);
    const Index num_chunks = (static_cast<Index>(n) + grain - 1) / grain;

    struct Chunk {
      std::vector<NodeId> rows;
      std::vector<Scalar> vals;
    };
    std::vector<Chunk> chunks(static_cast<std::size_t>(num_chunks));
    std::vector<Index> solve_nnz(static_cast<std::size_t>(n), 0);
    std::vector<Workspace> workspaces(static_cast<std::size_t>(num_threads));

    // Solve every column into its chunk's buffer (parallel).
    pool.ParallelFor(0, num_chunks, 1, [&](Index c_begin, Index c_end, int rank) {
      Workspace& ws = workspaces[static_cast<std::size_t>(rank)];
      if (ws.slot.empty()) ws.slot.assign(static_cast<std::size_t>(n), kNoSlot);
      for (Index c = c_begin; c < c_end; ++c) {
        Chunk& chunk = chunks[static_cast<std::size_t>(c)];
        const auto begin = static_cast<NodeId>(c * grain);
        const auto end =
            static_cast<NodeId>(std::min<Index>(n, (c + 1) * grain));
        for (NodeId j0 = begin; j0 < end; j0 += kBlockWidth) {
          ComputeBlock(j0, std::min<NodeId>(kBlockWidth, end - j0), ws,
                       chunk.rows, chunk.vals, solve_nnz);
        }
      }
    });

    // The assembly loop: visits every entry (i, x) of solve j, in ascending
    // j and then ascending i, as visit(column, row, x) of the output.
    const auto for_each_entry = [&](const auto& visit) {
      for (Index c = 0; c < num_chunks; ++c) {
        const Chunk& chunk = chunks[static_cast<std::size_t>(c)];
        std::size_t t = 0;
        const auto end =
            static_cast<NodeId>(std::min<Index>(n, (c + 1) * grain));
        for (auto j = static_cast<NodeId>(c * grain); j < end; ++j) {
          const std::size_t solve_end =
              t + static_cast<std::size_t>(
                      solve_nnz[static_cast<std::size_t>(j)]);
          for (; t < solve_end; ++t) {
            const NodeId i = chunk.rows[t];
            if (write_rows_) {
              visit(i, j, chunk.vals[t]);
            } else {
              visit(j, i, chunk.vals[t]);
            }
          }
        }
      }
    };

    // Count each output column's entries, turn the counts into offsets,
    // then place every entry at its column's cursor.
    std::vector<Index> ptr(static_cast<std::size_t>(n) + 1, 0);
    for_each_entry([&](NodeId col, NodeId, Scalar) {
      ++ptr[static_cast<std::size_t>(col) + 1];
    });
    for (std::size_t col = 1; col < ptr.size(); ++col) ptr[col] += ptr[col - 1];
    const Index total_nnz = ptr[static_cast<std::size_t>(n)];
    std::vector<NodeId> rows(static_cast<std::size_t>(total_nnz));
    std::vector<Scalar> vals(static_cast<std::size_t>(total_nnz));
    std::vector<Index> cursor(ptr.begin(), ptr.end() - 1);
    for_each_entry([&](NodeId col, NodeId row, Scalar x) {
      const auto dst =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(col)]++);
      rows[dst] = row;
      vals[dst] = x;
    });

    return sparse::CscMatrix(n, n, std::move(ptr), std::move(rows),
                             std::move(vals));
  }

  const sparse::CscMatrix& m_;
  bool write_rows_;
};

}  // namespace

sparse::CscMatrix InvertLowerTriangular(const sparse::CscMatrix& lower,
                                        int num_threads) {
  // Row j of L⁻¹ is the solve of Lᵀ y = e_j: column j of (Lᵀ)⁻¹, written as
  // row j.
  const sparse::CscMatrix lower_t = lower.Transposed();
  return TriangularInverter(lower_t, /*write_rows=*/true).Build(num_threads);
}

sparse::CscMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                        int num_threads) {
  return TriangularInverter(upper, /*write_rows=*/false).Build(num_threads);
}

}  // namespace kdash::lu
