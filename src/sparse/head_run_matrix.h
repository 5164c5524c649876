// Head + run sparse matrix: the storage of the explicit inverses L⁻¹ and
// U⁻¹ᵀ.
//
// The inverse of a triangular factor is reachability-dense: under the
// hybrid reordering almost every column's nonzeros sit in the trailing
// (border) block, where they fill most rows from their first one to the
// last. Column j is therefore stored as its stored nonzeros (ascending rows)
// cut in two:
//   * a sparse head — (row, value) pairs, as in CSC, then
//   * one dense run — every row from RunBegin(j) through the column's last
//     nonzero, the zeros between its nonzeros included.
// The cut is the one that minimizes the column's bytes: 12 per head entry
// (row id + value), 8 per run slot; among equal splits the longest run
// wins. It depends only on the column's own pattern, so every way of
// arriving at a column (FromCsc, a KeepColumns copy, a loaded file) gives
// the same form. A last nonzero costs less as a run slot than as a head
// entry, so only an empty column has no run: its Run() is empty and its
// RunBegin() is rows().
//
// The stored nonzeros are exactly the CSC ones: ToCsc() drops the run's
// zeros and gives back the CSC matrix FromCsc was given, provided that
// matrix stored no exact zero (the inverse builders never keep one, and
// the index loader refuses files that do). col_ptr() and nnz() keep their
// CSC meaning — the pointer array and count of the stored nonzeros.
//
// The run turns a row · dense-vector product into one contiguous dot with
// no row ids and no gathers: ColumnDot runs it with a fixed lane
// assignment, so a column's dot with a given vector is the same on every
// call.
#ifndef KDASH_SPARSE_HEAD_RUN_MATRIX_H_
#define KDASH_SPARSE_HEAD_RUN_MATRIX_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::sparse {

// Σ a[i]·b[i] over i < n, with a fixed summation order: eight lanes take
// i mod 8 over whole blocks of eight, the leftover pairs go to lanes 0–1,
// and an odd last element is added after the lanes are reduced. The lanes
// are independent, so GCC keeps them in vector registers at baseline SSE2
// without reassociating any sum.
inline Scalar RunDot(const Scalar* a, const Scalar* b, Index n) {
  Scalar lane[8] = {};
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
  }
  for (; i + 2 <= n; i += 2) {
    lane[0] += a[i] * b[i];
    lane[1] += a[i + 1] * b[i + 1];
  }
  Scalar total = ((lane[0] + lane[2]) + (lane[4] + lane[6])) +
                 ((lane[1] + lane[3]) + (lane[5] + lane[7]));
  if (i < n) total += a[i] * b[i];
  return total;
}

class HeadRunMatrix {
 public:
  HeadRunMatrix() = default;

  // The head + run form of `csc`, one column at a time on the pool that
  // `num_threads` selects (common/parallel.h's SelectPool; 1 runs inline).
  // The result does not depend on the thread count.
  static HeadRunMatrix FromCsc(const CscMatrix& csc, int num_threads);

  // The CSC matrix of the stored nonzeros (the run's zeros dropped).
  CscMatrix ToCsc() const;

  NodeId rows() const { return rows_; }
  NodeId cols() const { return cols_; }

  // Stored nonzeros, with their CSC meaning (run zeros are not counted).
  Index nnz() const { return col_ptr_.empty() ? 0 : col_ptr_.back(); }
  Index ColNnz(NodeId col) const {
    return col_ptr_[static_cast<std::size_t>(col) + 1] -
           col_ptr_[static_cast<std::size_t>(col)];
  }
  const std::vector<Index>& col_ptr() const { return col_ptr_; }

  std::span<const NodeId> HeadRows(NodeId col) const {
    return {head_rows_.data() + HeadBegin(col),
            head_rows_.data() + HeadEnd(col)};
  }
  std::span<const Scalar> HeadValues(NodeId col) const {
    return {head_values_.data() + HeadBegin(col),
            head_values_.data() + HeadEnd(col)};
  }
  // The run covers rows [RunBegin(col), RunBegin(col) + Run(col).size()).
  NodeId RunBegin(NodeId col) const {
    return run_begin_[static_cast<std::size_t>(col)];
  }
  std::span<const Scalar> Run(NodeId col) const {
    return {run_values_.data() + run_ptr_[static_cast<std::size_t>(col)],
            run_values_.data() + run_ptr_[static_cast<std::size_t>(col) + 1]};
  }

  // Column · dense vector; `x` must have size rows(). The head is gathered
  // with four accumulators, the run is one RunDot, and the result is
  // head + run — a fixed order, so reproducible run to run.
  Scalar ColumnDot(NodeId col, const std::vector<Scalar>& x) const {
    const Index begin = HeadBegin(col);
    const Index count = HeadEnd(col) - begin;
    const NodeId* rows = head_rows_.data() + begin;
    const Scalar* vals = head_values_.data() + begin;
    Scalar acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    Index k = 0;
    for (; k + 4 <= count; k += 4) {
      acc0 += vals[k] * x[static_cast<std::size_t>(rows[k])];
      acc1 += vals[k + 1] * x[static_cast<std::size_t>(rows[k + 1])];
      acc2 += vals[k + 2] * x[static_cast<std::size_t>(rows[k + 2])];
      acc3 += vals[k + 3] * x[static_cast<std::size_t>(rows[k + 3])];
    }
    for (; k < count; ++k) {
      acc0 += vals[k] * x[static_cast<std::size_t>(rows[k])];
    }
    const std::span<const Scalar> run = Run(col);
    return ((acc0 + acc1) + (acc2 + acc3)) +
           RunDot(run.data(), x.data() + RunBegin(col),
                  static_cast<Index>(run.size()));
  }

  // Column · sparse vector. `x_rows` must list the (candidate) nonzero
  // positions of the dense vector `x` in strictly ascending order. Rows
  // before the run are found in the head with a shrinking binary search,
  // rows inside it are indexed directly, and the walk stops past the run.
  // Terms are added in ascending row order into one accumulator; the run's
  // fill adds only zeros. The cost is O(nnz(x) · log(head)), a win over
  // ColumnDot when x is much sparser than the column is long.
  Scalar ColumnDotSparse(NodeId col, const std::vector<Scalar>& x,
                         const std::vector<NodeId>& x_rows) const {
    Scalar acc = 0.0;
    const NodeId* rows = head_rows_.data();
    Index lo = HeadBegin(col);
    const Index hi = HeadEnd(col);
    const NodeId run_begin = RunBegin(col);
    const std::span<const Scalar> run = Run(col);
    const auto run_end = static_cast<NodeId>(run_begin + run.size());
    for (const NodeId r : x_rows) {
      if (r < run_begin) {
        const NodeId* it = std::lower_bound(rows + lo, rows + hi, r);
        lo = static_cast<Index>(it - rows);
        if (lo < hi && *it == r) {
          acc += head_values_[static_cast<std::size_t>(lo)] *
                 x[static_cast<std::size_t>(r)];
          ++lo;
        }
      } else if (r < run_end) {
        acc += run[static_cast<std::size_t>(r - run_begin)] *
               x[static_cast<std::size_t>(r)];
      } else {
        break;
      }
    }
    return acc;
  }

  // Dense column extraction: out must have size rows(), is overwritten.
  void ScatterColumn(NodeId col, std::vector<Scalar>& out) const;

  // A copy that keeps column j iff keep[j] and empties every other column.
  // Kept columns are copied verbatim (same head, same run), which is what
  // FromCsc would derive for them.
  HeadRunMatrix KeepColumns(const std::vector<bool>& keep) const;

  friend bool operator==(const HeadRunMatrix& a,
                         const HeadRunMatrix& b) = default;

 private:
  Index HeadBegin(NodeId col) const {
    return head_ptr_[static_cast<std::size_t>(col)];
  }
  Index HeadEnd(NodeId col) const {
    return head_ptr_[static_cast<std::size_t>(col) + 1];
  }

  NodeId rows_ = 0;
  NodeId cols_ = 0;
  std::vector<Index> col_ptr_;       // cols_ + 1: CSC pointer of the nonzeros
  std::vector<Index> head_ptr_;      // cols_ + 1
  std::vector<NodeId> head_rows_;    // ascending within a column
  std::vector<Scalar> head_values_;  // nonzero
  std::vector<NodeId> run_begin_;    // cols_; rows_ for an empty column
  std::vector<Index> run_ptr_;       // cols_ + 1
  std::vector<Scalar> run_values_;   // first and last of each run nonzero
};

}  // namespace kdash::sparse

#endif  // KDASH_SPARSE_HEAD_RUN_MATRIX_H_
