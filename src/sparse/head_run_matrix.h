// Head + run sparse matrix: the storage of the explicit inverses L⁻¹ and
// U⁻¹ᵀ.
//
// The inverse of a triangular factor is reachability-dense: under the
// hybrid reordering almost every column's nonzeros sit in the trailing
// (border) block, where they fill most rows from their first one to the
// last. Column j is therefore stored as its nonzeros (ascending rows) cut
// in two:
//   * a sparse head — (row, value) pairs, as in CSC, then
//   * one dense run — every row from RunBegin(j) through the column's last
//     nonzero, the zeros between its nonzeros included.
// The cut is the one that minimizes the column's bytes (CutCost below). It
// depends only on the column's own pattern, so every way of arriving at a
// column (the inverse builders of lu/triangular.h, a KeepColumns copy, a
// loaded file) gives the same form: FromStored refuses any other cut. A
// last nonzero costs less as a run slot than as a head entry, so only an
// empty column has no run: its Run() is empty and its RunBegin() is
// rows(). No stored nonzero is an exact zero (the builders never keep one,
// and the index loader refuses files that do), so a run's zeros are its
// fill. col_ptr() and nnz() keep their CSC meaning — the pointer array and
// count of the nonzeros.
//
// The run turns a row · dense-vector product into one contiguous dot with
// no row ids and no gathers: ColumnDot runs it with a fixed lane
// assignment, so a column's dot with a given vector is the same on every
// call.
#ifndef KDASH_SPARSE_HEAD_RUN_MATRIX_H_
#define KDASH_SPARSE_HEAD_RUN_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

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

// How one column is stored: its head's entry count, then the rows its run
// covers, [run_begin, run_begin + run_size). The index file holds one per
// column, 12 bytes each.
struct ColumnExtent {
  std::uint32_t head_size = 0;
  std::uint32_t run_begin = 0;
  std::uint32_t run_size = 0;
};
static_assert(sizeof(ColumnExtent) == 12);

// The bytes of a head entry (row id + value) and of a run slot (value).
inline constexpr Index kHeadEntryBytes = sizeof(NodeId) + sizeof(Scalar);
inline constexpr Index kRunSlotBytes = sizeof(Scalar);

// The cut rule, shared by the builders and FromStored. A column whose
// nonzero rows are r_0 < r_1 < … < r_last, cut after s head entries, takes
// kHeadEntryBytes·s + kRunSlotBytes·(r_last − r_s + 1) bytes. r_last is
// fixed per column, so the cut is the first s of least CutCost(s, r_s):
// among equal splits the longest run wins.
constexpr Index CutCost(Index s, Index row_s) {
  return kHeadEntryBytes * s - kRunSlotBytes * row_s;
}

// std::allocator, except that a vector's resize(n) leaves the new elements
// default-initialized (so a double is left unwritten) instead of zeroing
// them. Only the construct without arguments is replaced: a construct with
// arguments matches no member, so std::allocator_traits does it as usual.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    std::uninitialized_default_construct_n(p, 1);
  }
};

// The type of a HeadRunMatrix's three stored arrays (head rows, head
// values, run values). Whoever sizes them writes every element afterwards,
// so a zeroing resize would only be written over: the inverse builders
// zero the runs on their thread pool, each thread first-touching its own
// slice instead of the caller zeroing them all alone, and the index loader
// reads every element from the file or fails.
template <typename T>
using StoredArray = std::vector<T, DefaultInitAllocator<T>>;

class HeadRunMatrix {
 public:
  HeadRunMatrix() = default;

  // The matrix of arrays already in this form (the inverse builders make
  // them; FromStored is the checked way in from a file). Column c's head is
  // head_rows and head_values over [head_ptr[c], head_ptr[c + 1]), its run
  // is run_values over [run_ptr[c], run_ptr[c + 1]) from row run_begin[c],
  // and it holds col_ptr[c + 1] − col_ptr[c] nonzeros.
  HeadRunMatrix(NodeId rows, std::vector<Index> col_ptr,
                std::vector<Index> head_ptr, StoredArray<NodeId> head_rows,
                StoredArray<Scalar> head_values, std::vector<NodeId> run_begin,
                std::vector<Index> run_ptr, StoredArray<Scalar> run_values);

  // The matrix stored as `extents` (one per column) over the heads' rows
  // and values and the runs' values, every column's back to back: the
  // arrays ColumnExtents(), head_rows(), head_values() and run_values()
  // give. The arrays come from an untrusted file, so every column is
  // checked and a bad one is kDataLoss, its message prefixed by `what`:
  // head rows strictly ascending below the run, a run inside [0, rows),
  // no exact zero in the head, nonzero first and last run values, an empty
  // column's run beginning at rows, and the cut CutCost picks. A matrix
  // that passes is one the builders could have made, so every ColumnDot
  // and ColumnDotSparse on it stays in bounds.
  static Result<HeadRunMatrix> FromStored(
      NodeId rows, std::span<const ColumnExtent> extents,
      StoredArray<NodeId> head_rows, StoredArray<Scalar> head_values,
      StoredArray<Scalar> run_values, const std::string& what);

  // One extent per column, and the stored arrays of all columns back to
  // back: what FromStored takes.
  std::vector<ColumnExtent> ColumnExtents() const;
  const StoredArray<NodeId>& head_rows() const { return head_rows_; }
  const StoredArray<Scalar>& head_values() const { return head_values_; }
  const StoredArray<Scalar>& run_values() const { return run_values_; }

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

  // A copy that keeps column j iff keep[j] and empties every other column.
  // Kept columns are copied verbatim (same head, same run): the cut of a
  // column depends on nothing else.
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
  StoredArray<NodeId> head_rows_;    // ascending within a column
  StoredArray<Scalar> head_values_;  // nonzero
  std::vector<NodeId> run_begin_;    // cols_; rows_ for an empty column
  std::vector<Index> run_ptr_;       // cols_ + 1
  StoredArray<Scalar> run_values_;   // first and last of each run nonzero
};

}  // namespace kdash::sparse

#endif  // KDASH_SPARSE_HEAD_RUN_MATRIX_H_
