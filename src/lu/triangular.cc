#include "lu/triangular.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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

using sparse::CutCost;

// Solves computed per pass of the blocked kernel. A touched row owns 16
// contiguous accumulators (128 bytes), one per solve of the block.
constexpr NodeId kBlockWidth = 16;
constexpr NodeId kNoSlot = -1;
// Chunks per pool thread, so the dynamic scheduler can even out the last
// ones.
constexpr Index kChunksPerThread = 8;

// Chunk boundaries over the solves of T: whole blocks, with a new chunk at
// the first block boundary where Σ nnz(T(:, j)) before it reaches the next
// of `targets` equal shares. In hybrid order the solves at the end reach
// the dense border and hold most of the work, so chunks of equal width
// would leave the last few holding most of it. The boundaries affect only
// the speed.
std::vector<NodeId> ChunkBounds(const sparse::CscMatrix& t, Index targets) {
  const NodeId n = t.cols();
  std::vector<NodeId> bounds{0};
  for (NodeId j = kBlockWidth; j < n; j += kBlockWidth) {
    const auto next = static_cast<Index>(bounds.size());
    if (t.ColBegin(j) * targets >= next * t.nnz()) bounds.push_back(j);
  }
  bounds.push_back(n);
  return bounds;
}

// Explicit inverse builder: backward substitution on an upper triangular T.
//
// Solve j is T x = e_j, i.e. column j of T⁻¹. Its nonzero pattern is the set
// of nodes reachable from j in the DAG "k → rows above the diagonal of
// T(:, k)", and processing discovered nodes in descending row order is a
// valid elimination order (all updates flow strictly upward). Each solve is
// written as row j of the output, which is T⁻¹ᵀ, in head + run form
// (sparse/head_run_matrix.h).
//
// Solves are computed in aligned blocks of kBlockWidth, together over the
// union of their patterns: each column of T is streamed once per block and
// updates all lanes with a branch-free loop. For every solve the nonzero
// updates arrive in the same elimination order as in SolveUpperInPlace; a
// lane whose x_k is zero subtracts ±0, which leaves every nonzero value
// unchanged, and zeros (including cancelled values) are dropped when the
// output is filled, so the result is the exact inverse. Neighbouring solves
// that reach the same dense tail of T share most of their patterns, so each
// tail column is read once per block instead of up to 16 times.
//
// Build() fills the output in three stages over the chunks of ChunkBounds,
// the first and last on a thread pool (a pool of 1 runs them inline):
//   1. Solve. Each chunk keeps a Tally per output column it reaches, and
//      keeps its solves until they are placed. Lane l of pattern row i of a
//      block is output column i's entry at row j0 + l, so a chunk keeps
//      each block as its pattern rows' nonzero lanes, one Block sized
//      exactly, and counts each row into one tally.
//   2. Shape (sequential, O(n + tallies)). Each column's tallies, in chunk
//      order, give its count and its cut, the first of least CutCost over
//      all of its entries, and give each chunk its first index in the
//      column. Prefix sums over the columns then give the output's
//      pointers.
//   3. Place. Each chunk writes its entries into the output's heads and
//      runs at its cursors, freeing its solves as it goes.
// Chunks cover ascending j, so every output column comes out in ascending
// row order, and the output is bit-identical at every thread count.
class TriangularInverter {
 public:
  explicit TriangularInverter(const sparse::CscMatrix& upper) : m_(upper) {
    KDASH_CHECK_EQ(m_.rows(), m_.cols());
  }

  sparse::HeadRunMatrix Build(int num_threads);

 private:
  // One pattern row i of a solved block: the chunk's tally of output column
  // i, and the lanes l whose x_i is nonzero (bit l).
  struct BlockRow {
    std::uint32_t tally;
    std::uint32_t lanes;
  };

  // A solved block's pattern rows that hold a nonzero, and their nonzeros,
  // row after row in ascending lanes, each sized exactly.
  struct Block {
    std::vector<BlockRow> rows;
    std::vector<Scalar> values;
  };

  // Per-worker solve scratch, sized on a worker's first chunk. `slot` is
  // restored after each block and `tally_of` after each chunk, so a block
  // costs O(pattern) rather than O(n).
  struct Workspace {
    // Row → slot; slot s owns acc[s·B, (s+1)·B).
    std::vector<NodeId> slot;
    std::vector<Scalar> acc;
    std::vector<NodeId> pattern;
    // Max-heap worklist: every row enters once, and rows leave it in
    // descending order, the elimination order.
    std::vector<NodeId> heap;
    // Output column → its tally in the current chunk, and the block being
    // kept.
    std::vector<NodeId> tally_of;
    Block block;
  };

  // One output column's entries within one chunk, in ascending rows: how
  // many, the index (within the chunk) and row of the first of least
  // CutCost among them, and the last row. Shape turns `count` into the
  // chunk's first index in the column, the cursor Place advances.
  struct Tally {
    NodeId col = 0;
    std::uint32_t count = 0;
    std::uint32_t cut = 0;
    NodeId cut_row = 0;
    NodeId last_row = 0;

    // Counts the column's next entry, at `row`.
    void Add(NodeId row) {
      if (count == 0 || CutCost(count, row) < CutCost(cut, cut_row)) {
        cut = count;
        cut_row = row;
      }
      last_row = row;
      ++count;
    }
  };

  // The solves [begin, end) and, until placed, their entries: one Block per
  // block of solves.
  struct Chunk {
    NodeId begin = 0;
    NodeId end = 0;
    std::vector<Block> blocks;
    std::vector<Tally> tallies;
  };

  // Solves j ∈ [j0, j0 + width) in one pass over the union of their
  // patterns. Afterwards lane l's x_i sits at ws.acc[ws.slot[i]·B + l] for
  // every i in ws.pattern, which lists the touched rows in descending
  // order.
  void SolveBlock(NodeId j0, NodeId width, Workspace& ws) const {
    std::vector<NodeId>& slot = ws.slot;
    std::vector<Scalar>& acc = ws.acc;
    std::vector<NodeId>& heap = ws.heap;
    ws.pattern.clear();
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
      ws.pattern.push_back(k);

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
  }

  // Stage 1 for one chunk: solves its blocks and keeps each as block rows.
  // `tally_of` is all kNoSlot between chunks.
  void Solve(Chunk& chunk, Workspace& ws) const {
    for (NodeId j0 = chunk.begin; j0 < chunk.end; j0 += kBlockWidth) {
      const NodeId width = std::min<NodeId>(kBlockWidth, chunk.end - j0);
      SolveBlock(j0, width, ws);
      KeepBlockRows(chunk, j0, width, ws);
      for (const NodeId i : ws.pattern) {
        ws.slot[static_cast<std::size_t>(i)] = kNoSlot;
      }
    }
    for (const Tally& tally : chunk.tallies) {
      ws.tally_of[static_cast<std::size_t>(tally.col)] = kNoSlot;
    }
    chunk.tallies.shrink_to_fit();
  }

  // Keeps the solved block's nonzeros by pattern row, and counts row i's
  // nonzero lanes l, in ascending l, into the tally of column i at rows
  // j0 + l.
  void KeepBlockRows(Chunk& chunk, NodeId j0, NodeId width,
                     Workspace& ws) const {
    ws.block.rows.clear();
    ws.block.values.clear();
    for (const NodeId i : ws.pattern) {
      const Scalar* const lanes =
          ws.acc.data() +
          static_cast<std::size_t>(ws.slot[static_cast<std::size_t>(i)]) *
              kBlockWidth;
      std::uint32_t nonzero = 0;
      for (NodeId lane = 0; lane < width; ++lane) {
        nonzero |= static_cast<std::uint32_t>(lanes[lane] != 0.0) << lane;
      }
      if (nonzero == 0) continue;  // every lane cancelled to zero
      NodeId& at = ws.tally_of[static_cast<std::size_t>(i)];
      if (at == kNoSlot) {
        at = static_cast<NodeId>(chunk.tallies.size());
        chunk.tallies.push_back({i});
      }
      Tally& tally = chunk.tallies[static_cast<std::size_t>(at)];
      for (std::uint32_t rest = nonzero; rest != 0; rest &= rest - 1) {
        const int lane = std::countr_zero(rest);
        tally.Add(j0 + lane);
        ws.block.values.push_back(lanes[lane]);
      }
      ws.block.rows.push_back({static_cast<std::uint32_t>(at), nonzero});
    }
    chunk.blocks.push_back(ws.block);
  }

  // Stage 2. Merges every column's tallies in chunk order into its extent
  // and nonzero count, and each chunk's first index in it, then sets the
  // output's pointers. A chunk's candidate is the column's entry (earlier
  // chunks' count + its `cut`) overall, and it wins only at a strictly
  // lower CutCost, so the cut is the first of least cost. An empty column
  // keeps no head, no run and run begin n.
  void Shape() {
    const auto cols = static_cast<std::size_t>(m_.cols());
    std::vector<sparse::ColumnExtent> extents(
        cols, {0, static_cast<std::uint32_t>(cols), 0});
    col_ptr_.assign(cols + 1, 0);
    for (Chunk& chunk : chunks_) {
      for (Tally& tally : chunk.tallies) {
        const auto col = static_cast<std::size_t>(tally.col);
        const Index seen = col_ptr_[col + 1];
        sparse::ColumnExtent& extent = extents[col];
        const Index cut = seen + tally.cut;
        if (seen == 0 || CutCost(cut, tally.cut_row) <
                             CutCost(extent.head_size, extent.run_begin)) {
          extent.head_size = static_cast<std::uint32_t>(cut);
          extent.run_begin = static_cast<std::uint32_t>(tally.cut_row);
        }
        extent.run_size =
            static_cast<std::uint32_t>(tally.last_row - extent.run_begin + 1);
        col_ptr_[col + 1] = seen + tally.count;
        tally.count = static_cast<std::uint32_t>(seen);
      }
    }
    head_ptr_.assign(cols + 1, 0);
    run_ptr_.assign(cols + 1, 0);
    run_begin_.resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      col_ptr_[c + 1] += col_ptr_[c];
      head_ptr_[c + 1] = head_ptr_[c] + extents[c].head_size;
      run_ptr_[c + 1] = run_ptr_[c] + extents[c].run_size;
      run_begin_[c] = static_cast<NodeId>(extents[c].run_begin);
    }
  }

  // Stage 3 for one chunk. Lane l of a block row of block j0 is its
  // column's next entry: it lands in the head while the chunk's cursor
  // there is before the cut, else at row j0 + l of the run. Each block is
  // freed once placed.
  void Place(Chunk& chunk, std::vector<NodeId>& head_rows,
             std::vector<Scalar>& head_values,
             std::vector<Scalar>& run_values) const {
    NodeId j0 = chunk.begin;
    for (Block& block : chunk.blocks) {
      const Scalar* x = block.values.data();
      for (const BlockRow& row : block.rows) {
        Tally& tally = chunk.tallies[row.tally];
        const auto col = static_cast<std::size_t>(tally.col);
        for (std::uint32_t rest = row.lanes; rest != 0; rest &= rest - 1) {
          const NodeId j = j0 + std::countr_zero(rest);
          const Index at = head_ptr_[col] + tally.count++;
          if (at < head_ptr_[col + 1]) {
            head_rows[static_cast<std::size_t>(at)] = j;
            head_values[static_cast<std::size_t>(at)] = *x++;
          } else {
            run_values[static_cast<std::size_t>(run_ptr_[col] + j -
                                                run_begin_[col])] = *x++;
          }
        }
      }
      block = {};
      j0 += kBlockWidth;
    }
  }

  const sparse::CscMatrix& m_;
  std::vector<Chunk> chunks_;
  // The output's pointers (col_ptr_ counts per column until Shape's prefix
  // sum) and run begins.
  std::vector<Index> col_ptr_;
  std::vector<Index> head_ptr_;
  std::vector<Index> run_ptr_;
  std::vector<NodeId> run_begin_;
};

sparse::HeadRunMatrix TriangularInverter::Build(int num_threads) {
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool& pool = SelectPool(num_threads, local_pool);
  const NodeId n = m_.rows();
  const auto cols = static_cast<std::size_t>(n);
  const std::vector<NodeId> bounds =
      ChunkBounds(m_, pool.num_threads() * kChunksPerThread);
  chunks_.resize(bounds.size() - 1);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    chunks_[c].begin = bounds[c];
    chunks_[c].end = bounds[c + 1];
  }
  const auto num_chunks = static_cast<Index>(chunks_.size());

  // Stage 1: solve. The scratch is freed before the output takes its
  // room.
  {
    std::vector<Workspace> workspaces(
        static_cast<std::size_t>(pool.num_threads()));
    pool.ParallelFor(
        0, num_chunks, 1, [&](Index c_begin, Index c_end, int rank) {
          Workspace& ws = workspaces[static_cast<std::size_t>(rank)];
          if (ws.slot.empty()) {
            ws.slot.assign(cols, kNoSlot);
            ws.tally_of.assign(cols, kNoSlot);
          }
          for (Index c = c_begin; c < c_end; ++c) {
            Solve(chunks_[static_cast<std::size_t>(c)], ws);
          }
        });
  }

  // Stage 2: shape.
  Shape();
  std::vector<NodeId> head_rows(static_cast<std::size_t>(head_ptr_[cols]));
  std::vector<Scalar> head_values(head_rows.size());
  std::vector<Scalar> run_values(static_cast<std::size_t>(run_ptr_[cols]),
                                 0.0);

  // Stage 3: place.
  pool.ParallelFor(0, num_chunks, 1, [&](Index c_begin, Index c_end, int) {
    for (Index c = c_begin; c < c_end; ++c) {
      Chunk& chunk = chunks_[static_cast<std::size_t>(c)];
      Place(chunk, head_rows, head_values, run_values);
      chunk = {};
    }
  });

  return sparse::HeadRunMatrix(n, std::move(col_ptr_), std::move(head_ptr_),
                               std::move(head_rows), std::move(head_values),
                               std::move(run_begin_), std::move(run_ptr_),
                               std::move(run_values));
}

}  // namespace

sparse::HeadRunMatrix InvertLowerTriangular(const sparse::CscMatrix& lower,
                                            int num_threads) {
  // Row j of L⁻¹ is the solve of Lᵀ y = e_j, column j of (Lᵀ)⁻¹.
  const sparse::CscMatrix lower_t = lower.Transposed();
  return TriangularInverter(lower_t).Build(num_threads);
}

sparse::HeadRunMatrix InvertUpperTriangular(const sparse::CscMatrix& upper,
                                            int num_threads) {
  return TriangularInverter(upper).Build(num_threads);
}

}  // namespace kdash::lu
