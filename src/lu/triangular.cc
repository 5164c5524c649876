#include "lu/triangular.h"

#include <algorithm>
#include <memory>
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

// Inverse columns computed per pass of the blocked kernel. A touched row owns
// 16 contiguous accumulators (128 bytes), one per column of the block.
constexpr NodeId kBlockWidth = 16;
constexpr NodeId kNoSlot = -1;

// Explicit inverse builder.
//
// For the lower case, column j of L⁻¹ solves L x = e_j; the nonzero pattern
// is the set of nodes reachable from j in the DAG "k → rows below the
// diagonal of L(:, k)", and processing discovered nodes in ascending row
// order is a valid elimination order for a lower triangular matrix (all
// updates flow strictly downward). The upper case is the mirror image.
//
// Columns are computed in aligned blocks of kBlockWidth, solved together
// over the union of their patterns: each factor column is streamed once per
// block and updates all lanes with a branch-free loop. For every column the
// nonzero updates arrive in the same elimination order as in
// SolveLowerInPlace / SolveUpperInPlace; a lane whose x_k is zero subtracts
// ±0, which leaves every nonzero value unchanged, and zeros (including
// cancelled values) are dropped at gather, so the result is the exact
// inverse. Neighbouring columns of a factor with a dense tail (the hybrid
// reorder's border) share most of their patterns, so each tail column is
// read once per block instead of up to 16 times.
//
// Build() farms out fixed chunks of whole blocks to a thread pool (a pool of
// 1 runs them inline); each worker owns a workspace and appends its chunk's
// columns to a per-chunk buffer. Assembly is two passes: per-column nnz
// counts become exact offsets via a prefix sum, then chunks are copied into
// the final arrays in parallel. Every column's output depends only on the
// column, so the result is bit-identical for any thread count.
class TriangularInverter {
 public:
  TriangularInverter(const sparse::CscMatrix& matrix, bool lower)
      : m_(matrix), lower_(lower) {
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
    std::vector<NodeId> heap;
  };

  // Min-heap worklist keyed in elimination order: ascending rows for the
  // lower case, descending for the upper case (keys are mirrored so one
  // min-heap serves both). Every row enters the heap once, and rows leave
  // it strictly in elimination order.
  NodeId HeapKey(NodeId row) const {
    return lower_ ? row : static_cast<NodeId>(m_.rows() - 1 - row);
  }
  static bool HeapAfter(NodeId a, NodeId b) { return a > b; }
  void HeapPush(std::vector<NodeId>& heap, NodeId row) const {
    heap.push_back(HeapKey(row));
    std::push_heap(heap.begin(), heap.end(), HeapAfter);
  }
  NodeId HeapPop(std::vector<NodeId>& heap) const {
    std::pop_heap(heap.begin(), heap.end(), HeapAfter);
    const NodeId row = HeapKey(heap.back());  // the key map is an involution
    heap.pop_back();
    return row;
  }

  // Puts a pattern popped in elimination order into ascending row order.
  void IntoAscendingRows(std::vector<NodeId>& pattern) const {
    if (!lower_) std::reverse(pattern.begin(), pattern.end());
  }

  // Computes columns [j0, j0 + width) in one pass over the union of their
  // patterns, appends them column after column to rows/vals and stores
  // their kept nnz in col_nnz[j + 1].
  void ComputeBlock(NodeId j0, NodeId width, Workspace& ws,
                    std::vector<NodeId>& rows, std::vector<Scalar>& vals,
                    std::vector<Index>& col_nnz) const {
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
        HeapPush(heap, i);
      }
      return acc.data() + static_cast<std::size_t>(s) * kBlockWidth;
    };
    for (NodeId lane = 0; lane < width; ++lane) lanes_of(j0 + lane)[lane] = 1.0;

    while (!heap.empty()) {
      const NodeId k = HeapPop(heap);
      pattern.push_back(k);

      const Index begin = m_.ColBegin(k);
      const Index end = m_.ColEnd(k);
      const Index diag_pos = lower_ ? begin : end - 1;
      KDASH_DCHECK(m_.RowIndex(diag_pos) == k) << "missing diagonal";
      const Scalar diag = m_.Value(diag_pos);
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

      const Index lo = lower_ ? begin + 1 : begin;
      const Index hi = lower_ ? end : end - 1;
      for (Index t = lo; t < hi; ++t) {
        Scalar* const lanes_i = lanes_of(m_.RowIndex(t));
        const Scalar v = m_.Value(t);
        for (NodeId lane = 0; lane < kBlockWidth; ++lane) {
          lanes_i[lane] -= v * xk[lane];
        }
      }
    }

    // Gather: split the block back into columns (ascending rows).
    IntoAscendingRows(pattern);
    for (NodeId lane = 0; lane < width; ++lane) {
      const NodeId j = j0 + lane;
      Index kept = 0;
      for (const NodeId i : pattern) {
        const Scalar xi =
            acc[static_cast<std::size_t>(slot[static_cast<std::size_t>(i)]) *
                    kBlockWidth +
                static_cast<std::size_t>(lane)];
        if (xi == 0.0) continue;
        rows.push_back(i);
        vals.push_back(xi);
        ++kept;
      }
      col_nnz[static_cast<std::size_t>(j) + 1] = kept;
    }
    for (const NodeId i : pattern) slot[static_cast<std::size_t>(i)] = kNoSlot;
  }

  // Turns per-column counts in ptr[j + 1] into column offsets.
  static void PrefixSum(std::vector<Index>& ptr) {
    for (std::size_t j = 1; j < ptr.size(); ++j) ptr[j] += ptr[j - 1];
  }

  sparse::CscMatrix BuildParallel(ThreadPool& pool) {
    const int num_threads = pool.num_threads();
    const NodeId n = m_.rows();
    // Fixed chunks of whole blocks: small enough for load balance under the
    // dynamic scheduler, large enough to amortize the per-chunk buffers.
    // Boundaries do not affect the output (columns are independent), only
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
    std::vector<Index> ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<Workspace> workspaces(static_cast<std::size_t>(num_threads));

    // Pass 1 (parallel): compute every column into its chunk's buffer and
    // record per-column nnz counts in ptr[j + 1].
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
                       chunk.rows, chunk.vals, ptr);
        }
      }
    });

    // Pass 2a (sequential): per-column counts → exact offsets.
    PrefixSum(ptr);

    // Pass 2b (parallel): copy each chunk to its exact position. A chunk's
    // first column starts at ptr[chunk's first column].
    const Index total_nnz = ptr[static_cast<std::size_t>(n)];
    std::vector<NodeId> rows(static_cast<std::size_t>(total_nnz));
    std::vector<Scalar> vals(static_cast<std::size_t>(total_nnz));
    pool.ParallelFor(0, num_chunks, 1, [&](Index c_begin, Index c_end, int) {
      for (Index c = c_begin; c < c_end; ++c) {
        const Chunk& chunk = chunks[static_cast<std::size_t>(c)];
        const Index offset = ptr[static_cast<std::size_t>(c * grain)];
        std::copy(chunk.rows.begin(), chunk.rows.end(),
                  rows.begin() + static_cast<std::ptrdiff_t>(offset));
        std::copy(chunk.vals.begin(), chunk.vals.end(),
                  vals.begin() + static_cast<std::ptrdiff_t>(offset));
      }
    });

    return sparse::CscMatrix(n, n, std::move(ptr), std::move(rows),
                             std::move(vals));
  }

  const sparse::CscMatrix& m_;
  bool lower_;
};

}  // namespace

sparse::CscMatrix InvertLowerTriangular(const sparse::CscMatrix& lower,
                                        int num_threads) {
  return TriangularInverter(lower, /*lower=*/true).Build(num_threads);
}

sparse::CscMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                        int num_threads) {
  return TriangularInverter(upper, /*lower=*/false).Build(num_threads);
}

}  // namespace kdash::lu
