#include "lu/triangular.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"

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
// unchanged, and zeros (including cancelled values) are dropped, so the
// result is the exact inverse. Neighbouring solves that reach the same
// dense tail of T share most of their patterns, so each tail column is read
// once per block instead of up to 16 times.
//
// Build() fills the output in three stages over the chunks of ChunkBounds,
// all but the shape on a thread pool (a pool of 1 runs them inline), and
// no stage keeps a solved value:
//   1. Masks. Lane l of pattern row i of a block is output column i's entry
//      at row j0 + l. Each chunk keeps each block as its pattern rows, one
//      Block of BlockRows sized exactly, each row a mask of its lanes, and
//      keeps a Tally per output column it reaches, counting each row into
//      one tally. The masks come from T's pattern alone (MaskBlock): a lane
//      is masked when it reaches the row.
//   2. Shape (sequential, O(n + tallies)). Each column's tallies, in chunk
//      order, give its count and its cut, the first of least CutCost over
//      all of its entries, and give each chunk its first index in the
//      column. Prefix sums over the columns then give the output's
//      pointers, which size its value arrays without writing them
//      (sparse::StoredArray). The pool then zeroes the runs in contiguous
//      slices, so the caller does not first-touch them alone.
//   3. Values. Each chunk solves its blocks again and writes every masked
//      lane straight into the output's heads and runs at its cursors. The
//      masked lanes are every entry of the output, so every head slot is
//      written here, and a run slot no lane writes keeps its zero.
// A reached lane can still be zero, by cancellation or underflow. Then the
// masks overcounted, and Build reruns all three stages with masks taken
// from the solved values (SolveBlock, keeping the lanes that are nonzero),
// which stage 3 then meets exactly; lu.inverse_retries counts these reruns.
// Chunks cover ascending j, so every output column comes out in ascending
// row order, and the output is bit-identical at every thread count.
class TriangularInverter {
 public:
  explicit TriangularInverter(const sparse::CscMatrix& upper) : m_(upper) {
    KDASH_CHECK_EQ(m_.rows(), m_.cols());
  }

  sparse::HeadRunMatrix Build(int num_threads);

 private:
  // One pattern row i of a block: the chunk's tally of output column i, and
  // its masked lanes l (bit l).
  struct BlockRow {
    std::uint32_t tally;
    std::uint32_t lanes;
  };

  // A block's masked pattern rows, in pattern order.
  using Block = std::vector<BlockRow>;

  // Per-worker solve scratch, sized on a worker's first chunk. `slot`,
  // `mask` and `queued` are restored after each block and `tally_of` after
  // each chunk, so a block costs O(pattern) rather than O(n).
  struct Workspace {
    // Row → slot in a solve; slot s owns acc[s·B, (s+1)·B).
    std::vector<NodeId> slot;
    std::vector<Scalar> acc;
    // Row → the lanes that reach it in MaskBlock, 0 between blocks.
    std::vector<std::uint32_t> mask;
    std::vector<NodeId> pattern;
    // The worklist, a bitmap over T's rows. Every row enters once, below
    // the rows already popped, and rows leave it in descending order, the
    // elimination order, so a scan runs down from word `top` to word `low`,
    // the lowest that may hold a row.
    std::vector<std::uint64_t> queued;
    std::size_t top = 0;
    std::size_t low = 0;
    // Output column → its tally in the current chunk, and the block being
    // kept.
    std::vector<NodeId> tally_of;
    Block block;
  };

  // One output column's entries within one chunk, in ascending rows: how
  // many, the index (within the chunk) and row of the first of least
  // CutCost among them, and the last row. Shape turns `count` into the
  // chunk's first index in the column, the cursor stage 3 advances.
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

  // The solves [begin, end) and, until their values are written, their
  // masks: one Block per block of solves.
  struct Chunk {
    NodeId begin = 0;
    NodeId end = 0;
    std::vector<Block> blocks;
    std::vector<Tally> tallies;
  };

  // The output's value arrays, sized but not written by Shape.
  struct Values {
    sparse::StoredArray<NodeId> head_rows;
    sparse::StoredArray<Scalar> head_values;
    sparse::StoredArray<Scalar> run_values;
  };

  // Queues row i, which must be below every row popped so far.
  static void Queue(NodeId i, Workspace& ws) {
    const auto word = static_cast<std::size_t>(i) / 64;
    ws.queued[word] |= std::uint64_t{1} << (i % 64);
    ws.low = std::min(ws.low, word);
  }

  // Starts an empty worklist and pattern for the block whose highest row
  // is `last`.
  static void StartBlock(NodeId last, Workspace& ws) {
    ws.top = ws.low = static_cast<std::size_t>(last) / 64;
    ws.pattern.clear();
  }

  // Pops the worklist's highest row k, the next in elimination order, onto
  // the pattern, and sets [begin, end) to T(:, k), its diagonal last. False
  // once the worklist is empty.
  bool Pop(Workspace& ws, Index& begin, Index& end) const {
    while (ws.queued[ws.top] == 0) {
      if (ws.top == ws.low) return false;
      --ws.top;
    }
    std::uint64_t& word = ws.queued[ws.top];
    const int bit = 63 - std::countl_zero(word);
    word ^= std::uint64_t{1} << bit;
    const auto k =
        static_cast<NodeId>(ws.top * 64 + static_cast<std::size_t>(bit));
    ws.pattern.push_back(k);
    begin = m_.ColBegin(k);
    end = m_.ColEnd(k);
    KDASH_DCHECK(begin < end && m_.RowIndex(end - 1) == k)
        << "missing diagonal";
    return true;
  }

  // Solves j ∈ [j0, j0 + width) in one pass over the union of their
  // patterns. Afterwards lane l's x_i sits at ws.acc[ws.slot[i]·B + l] for
  // every i in ws.pattern, which lists the touched rows in descending
  // order.
  void SolveBlock(NodeId j0, NodeId width, Workspace& ws) const {
    std::vector<Scalar>& acc = ws.acc;
    StartBlock(j0 + width - 1, ws);
    acc.clear();
    // The accumulators of row i, given a zeroed slot on first touch.
    const auto lanes_of = [&](NodeId i) {
      NodeId& s = ws.slot[static_cast<std::size_t>(i)];
      if (s == kNoSlot) {
        s = static_cast<NodeId>(acc.size() / kBlockWidth);
        acc.resize(acc.size() + kBlockWidth, 0.0);
        Queue(i, ws);
      }
      return acc.data() + static_cast<std::size_t>(s) * kBlockWidth;
    };
    for (NodeId lane = 0; lane < width; ++lane) lanes_of(j0 + lane)[lane] = 1.0;

    Index begin = 0;
    Index end = 0;
    while (Pop(ws, begin, end)) {
      const Scalar diag = m_.Value(end - 1);
      Scalar* const lanes_k = lanes_of(ws.pattern.back());
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

  // SolveBlock's pattern, from T's pattern alone: the same worklist, with
  // a mask of the lanes that reach each row instead of its values. Row
  // j0 + l starts with bit l, and popping row k ors its mask into every row
  // above the diagonal of T(:, k). Afterwards row i's mask is ws.mask[i]
  // for every i in ws.pattern, which lists the same rows as SolveBlock's,
  // in the same order.
  void MaskBlock(NodeId j0, NodeId width, Workspace& ws) const {
    StartBlock(j0 + width - 1, ws);
    const auto reach = [&ws](NodeId i, std::uint32_t lanes) {
      std::uint32_t& mask = ws.mask[static_cast<std::size_t>(i)];
      if (mask == 0) Queue(i, ws);
      mask |= lanes;
    };
    for (NodeId lane = 0; lane < width; ++lane) {
      reach(j0 + lane, std::uint32_t{1} << lane);
    }
    Index begin = 0;
    Index end = 0;
    while (Pop(ws, begin, end)) {
      const std::uint32_t lanes =
          ws.mask[static_cast<std::size_t>(ws.pattern.back())];
      for (Index t = begin; t < end - 1; ++t) reach(m_.RowIndex(t), lanes);
    }
  }

  // Stage 1 for one chunk: masks its blocks and keeps each as block rows,
  // from T's pattern, or from the solved values when `numeric`.
  // `tally_of` is all kNoSlot between chunks.
  void Mask(Chunk& chunk, bool numeric, Workspace& ws) const {
    for (NodeId j0 = chunk.begin; j0 < chunk.end; j0 += kBlockWidth) {
      const NodeId width = std::min<NodeId>(kBlockWidth, chunk.end - j0);
      if (numeric) {
        SolveBlock(j0, width, ws);
      } else {
        MaskBlock(j0, width, ws);
      }
      KeepBlockRows(chunk, j0, width, numeric, ws);
    }
    for (const Tally& tally : chunk.tallies) {
      ws.tally_of[static_cast<std::size_t>(tally.col)] = kNoSlot;
    }
    chunk.tallies.shrink_to_fit();
  }

  // Keeps the block's masked lanes by pattern row, and counts row i's lanes
  // l, in ascending l, into the tally of column i at rows j0 + l. A numeric
  // mask holds the lanes whose solved x_i is nonzero.
  void KeepBlockRows(Chunk& chunk, NodeId j0, NodeId width, bool numeric,
                     Workspace& ws) const {
    ws.block.clear();
    for (const NodeId i : ws.pattern) {
      std::uint32_t lanes = 0;
      if (numeric) {
        NodeId& s = ws.slot[static_cast<std::size_t>(i)];
        const Scalar* const x =
            ws.acc.data() + static_cast<std::size_t>(s) * kBlockWidth;
        for (NodeId lane = 0; lane < width; ++lane) {
          lanes |= static_cast<std::uint32_t>(x[lane] != 0.0) << lane;
        }
        s = kNoSlot;
      } else {
        lanes = std::exchange(ws.mask[static_cast<std::size_t>(i)], 0);
      }
      if (lanes == 0) continue;  // every lane cancelled to zero
      NodeId& at = ws.tally_of[static_cast<std::size_t>(i)];
      if (at == kNoSlot) {
        at = static_cast<NodeId>(chunk.tallies.size());
        chunk.tallies.push_back({i});
      }
      Tally& tally = chunk.tallies[static_cast<std::size_t>(at)];
      for (std::uint32_t rest = lanes; rest != 0; rest &= rest - 1) {
        tally.Add(j0 + std::countr_zero(rest));
      }
      ws.block.push_back({static_cast<std::uint32_t>(at), lanes});
    }
    chunk.blocks.push_back(ws.block);
  }

  // Stage 2. Merges every column's tallies in chunk order into its extent
  // and nonzero count, and each chunk's first index in it, then sets the
  // output's pointers and sizes its value arrays, leaving them unwritten.
  // A chunk's candidate is the column's entry (earlier chunks' count + its
  // `cut`) overall, and it wins only at a strictly lower CutCost, so the cut
  // is the first of least cost. An empty column keeps no head, no run and
  // run begin n.
  Values Shape() {
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
    Values out;
    out.head_rows.resize(static_cast<std::size_t>(head_ptr_[cols]));
    out.head_values.resize(out.head_rows.size());
    out.run_values.resize(static_cast<std::size_t>(run_ptr_[cols]));
    return out;
  }

  // Stage 3 for one chunk. Solves each block again; lane l of a block row
  // of block j0 is its column's next entry, and lands in the head while the
  // chunk's cursor there is before the cut, else at row j0 + l of the run.
  // Returns false if a masked lane is zero: the masks overcounted, and this
  // output is void.
  bool Place(Chunk& chunk, Values& out, Workspace& ws) const {
    NodeId j0 = chunk.begin;
    for (const Block& block : chunk.blocks) {
      SolveBlock(j0, std::min<NodeId>(kBlockWidth, chunk.end - j0), ws);
      bool zero = false;
      for (const BlockRow& row : block) {
        Tally& tally = chunk.tallies[row.tally];
        const auto col = static_cast<std::size_t>(tally.col);
        const Scalar* const x =
            ws.acc.data() +
            static_cast<std::size_t>(ws.slot[col]) * kBlockWidth;
        const Index head_end = head_ptr_[col + 1];
        Index at = head_ptr_[col] + tally.count;
        tally.count += static_cast<std::uint32_t>(std::popcount(row.lanes));
        const Index run_at = run_ptr_[col] + j0 - run_begin_[col];
        for (std::uint32_t rest = row.lanes; rest != 0; rest &= rest - 1) {
          const int lane = std::countr_zero(rest);
          const Scalar v = x[lane];
          zero |= v == 0.0;
          if (at < head_end) {
            out.head_rows[static_cast<std::size_t>(at)] = j0 + lane;
            out.head_values[static_cast<std::size_t>(at)] = v;
          } else {
            out.run_values[static_cast<std::size_t>(run_at + lane)] = v;
          }
          ++at;
        }
      }
      for (const NodeId i : ws.pattern) {
        ws.slot[static_cast<std::size_t>(i)] = kNoSlot;
      }
      if (zero) return false;
      j0 += kBlockWidth;
    }
    return true;
  }

  // Runs fn(chunk, workspace) on every chunk over the pool, with one
  // workspace per worker.
  template <typename Fn>
  void ForEachChunk(ThreadPool& pool, Fn fn) {
    std::vector<Workspace> workspaces(
        static_cast<std::size_t>(pool.num_threads()));
    pool.ParallelFor(0, static_cast<Index>(chunks_.size()), 1,
                     [&](Index c_begin, Index c_end, int rank) {
                       Workspace& ws =
                           workspaces[static_cast<std::size_t>(rank)];
                       if (ws.slot.empty()) {
                         const auto rows = static_cast<std::size_t>(m_.cols());
                         ws.slot.assign(rows, kNoSlot);
                         ws.mask.assign(rows, 0);
                         ws.queued.assign(rows / 64 + 1, 0);
                         ws.tally_of.assign(rows, kNoSlot);
                       }
                       for (Index c = c_begin; c < c_end; ++c) {
                         fn(chunks_[static_cast<std::size_t>(c)], ws);
                       }
                     });
  }

  // Stages 1–3 with masks from T's pattern, or from the solved values when
  // `numeric`. Empty when a masked lane came out zero.
  std::optional<sparse::HeadRunMatrix> TryBuild(
      ThreadPool& pool, const std::vector<NodeId>& bounds, bool numeric);

  const sparse::CscMatrix& m_;
  std::vector<Chunk> chunks_;
  // The output's pointers (col_ptr_ counts per column until Shape's prefix
  // sum) and run begins.
  std::vector<Index> col_ptr_;
  std::vector<Index> head_ptr_;
  std::vector<Index> run_ptr_;
  std::vector<NodeId> run_begin_;
};

std::optional<sparse::HeadRunMatrix> TriangularInverter::TryBuild(
    ThreadPool& pool, const std::vector<NodeId>& bounds, bool numeric) {
  chunks_.assign(bounds.size() - 1, {});
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    chunks_[c].begin = bounds[c];
    chunks_[c].end = bounds[c + 1];
  }

  // Stage 1: masks.
  ForEachChunk(pool, [numeric, this](Chunk& chunk, Workspace& ws) {
    Mask(chunk, numeric, ws);
  });

  // Stage 2: shape, then the runs' zeros in contiguous slices on the pool,
  // so each thread first-touches its own.
  Values out = Shape();
  const auto run_size = static_cast<Index>(out.run_values.size());
  const Index slices = pool.num_threads() * kChunksPerThread;
  pool.ParallelFor(0, run_size, (run_size + slices - 1) / slices,
                   [&out](Index begin, Index end, int) {
                     std::fill(out.run_values.begin() + begin,
                               out.run_values.begin() + end, 0.0);
                   });

  // Stage 3: values. Each chunk's masks are freed once it is written.
  std::atomic<bool> overcounted{false};
  ForEachChunk(pool, [&](Chunk& chunk, Workspace& ws) {
    if (!overcounted.load(std::memory_order_relaxed) &&
        !Place(chunk, out, ws)) {
      overcounted.store(true, std::memory_order_relaxed);
    }
    chunk = {};
  });
  if (overcounted.load()) return std::nullopt;

  return sparse::HeadRunMatrix(
      m_.rows(), std::move(col_ptr_), std::move(head_ptr_),
      std::move(out.head_rows), std::move(out.head_values),
      std::move(run_begin_), std::move(run_ptr_), std::move(out.run_values));
}

sparse::HeadRunMatrix TriangularInverter::Build(int num_threads) {
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool& pool = SelectPool(num_threads, local_pool);
  const std::vector<NodeId> bounds =
      ChunkBounds(m_, pool.num_threads() * kChunksPerThread);
  std::optional<sparse::HeadRunMatrix> out =
      TryBuild(pool, bounds, /*numeric=*/false);
  if (!out) {
    obs::MetricRegistry::Global().GetCounter("lu.inverse_retries").Add();
    out = TryBuild(pool, bounds, /*numeric=*/true);
    KDASH_CHECK(out.has_value()) << "numeric masks must match their solves";
  }
  return *std::move(out);
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
