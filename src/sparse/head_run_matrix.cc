#include "sparse/head_run_matrix.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace kdash::sparse {

HeadRunMatrix::HeadRunMatrix(NodeId rows, std::vector<Index> col_ptr,
                             std::vector<Index> head_ptr,
                             std::vector<NodeId> head_rows,
                             std::vector<Scalar> head_values,
                             std::vector<NodeId> run_begin,
                             std::vector<Index> run_ptr,
                             std::vector<Scalar> run_values)
    : rows_(rows),
      cols_(static_cast<NodeId>(run_begin.size())),
      col_ptr_(std::move(col_ptr)),
      head_ptr_(std::move(head_ptr)),
      head_rows_(std::move(head_rows)),
      head_values_(std::move(head_values)),
      run_begin_(std::move(run_begin)),
      run_ptr_(std::move(run_ptr)),
      run_values_(std::move(run_values)) {
  const auto cols = static_cast<std::size_t>(cols_) + 1;
  KDASH_CHECK(col_ptr_.size() == cols && head_ptr_.size() == cols &&
              run_ptr_.size() == cols);
  KDASH_CHECK(head_ptr_.back() == static_cast<Index>(head_rows_.size()) &&
              head_values_.size() == head_rows_.size() &&
              run_ptr_.back() == static_cast<Index>(run_values_.size()));
}

Result<HeadRunMatrix> HeadRunMatrix::FromStored(
    NodeId rows, std::span<const ColumnExtent> extents,
    std::vector<NodeId> head_rows, std::vector<Scalar> head_values,
    std::vector<Scalar> run_values, const std::string& what) {
  const auto corrupt = [&](std::size_t col, const char* why) {
    return Status::DataLoss(what + ": column " + std::to_string(col) + " " +
                            why);
  };
  const std::size_t cols = extents.size();
  std::vector<Index> col_ptr(cols + 1, 0), head_ptr(cols + 1, 0),
      run_ptr(cols + 1, 0);
  std::vector<NodeId> run_begins(cols, rows);
  if (rows < 0 || head_values.size() != head_rows.size()) {
    return Status::DataLoss(what + ": arrays disagree with the extents");
  }
  const auto head_total = static_cast<Index>(head_rows.size());
  const auto run_total = static_cast<Index>(run_values.size());
  for (std::size_t col = 0; col < cols; ++col) {
    const ColumnExtent& extent = extents[col];
    const Index head_begin = head_ptr[col];
    const Index run_at = run_ptr[col];
    const auto head_size = static_cast<Index>(extent.head_size);
    const auto run_size = static_cast<Index>(extent.run_size);
    const auto run_begin = static_cast<Index>(extent.run_begin);
    if (head_size > head_total - head_begin || run_size > run_total - run_at) {
      return Status::DataLoss(what + ": arrays disagree with the extents");
    }
    Index nonzeros = head_size;
    if (run_size == 0) {
      if (head_size != 0 || run_begin != rows) {
        return corrupt(col, "has no run but a head or a run begin");
      }
    } else {
      if (run_begin >= rows || run_size > rows - run_begin) {
        return corrupt(col, "has a run outside [0, rows)");
      }
      const Scalar* run = run_values.data() + run_at;
      if (run[0] == 0.0 || run[run_size - 1] == 0.0) {
        return corrupt(col, "has a run that starts or ends in a zero");
      }
      // The cut must be the first of least CutCost. Every head entry s
      // must cost more as the cut (on a tie the longer run would have
      // won), and the run's k-th nonzero, i slots in, must not cost less.
      const NodeId* head = head_rows.data() + head_begin;
      const Scalar* values = head_values.data() + head_begin;
      for (Index s = 0; s < head_size; ++s) {
        if (head[s] < 0 || head[s] >= run_begin ||
            (s > 0 && head[s] <= head[s - 1])) {
          return corrupt(col,
                         "has head rows not strictly ascending below its run");
        }
        if (values[s] == 0.0) return corrupt(col, "stores an exact zero");
        if (CutCost(s, head[s]) <= CutCost(head_size, run_begin)) {
          return corrupt(col, "is not cut where it takes the fewest bytes");
        }
      }
      Index k = 0;
      for (Index i = 0; i < run_size; ++i) {
        if (run[i] == 0.0) continue;
        if (CutCost(head_size + k, run_begin + i) <
            CutCost(head_size, run_begin)) {
          return corrupt(col, "is not cut where it takes the fewest bytes");
        }
        ++k;
      }
      nonzeros += k;
      run_begins[col] = static_cast<NodeId>(run_begin);
    }
    col_ptr[col + 1] = col_ptr[col] + nonzeros;
    head_ptr[col + 1] = head_begin + head_size;
    run_ptr[col + 1] = run_at + run_size;
  }
  if (head_ptr.back() != head_total || run_ptr.back() != run_total) {
    return Status::DataLoss(what + ": arrays disagree with the extents");
  }
  return HeadRunMatrix(rows, std::move(col_ptr), std::move(head_ptr),
                       std::move(head_rows), std::move(head_values),
                       std::move(run_begins), std::move(run_ptr),
                       std::move(run_values));
}

std::vector<ColumnExtent> HeadRunMatrix::ColumnExtents() const {
  std::vector<ColumnExtent> extents(static_cast<std::size_t>(cols_));
  for (NodeId col = 0; col < cols_; ++col) {
    extents[static_cast<std::size_t>(col)] = {
        static_cast<std::uint32_t>(HeadRows(col).size()),
        static_cast<std::uint32_t>(RunBegin(col)),
        static_cast<std::uint32_t>(Run(col).size())};
  }
  return extents;
}

HeadRunMatrix HeadRunMatrix::KeepColumns(const std::vector<bool>& keep) const {
  KDASH_CHECK_EQ(keep.size(), static_cast<std::size_t>(cols_));
  const auto cols = static_cast<std::size_t>(cols_);
  std::vector<Index> col_ptr(cols + 1, 0), head_ptr(cols + 1, 0),
      run_ptr(cols + 1, 0);
  std::vector<NodeId> run_begin(cols, rows_);
  std::size_t head_size = 0, run_size = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (!keep[c]) continue;
    head_size += HeadRows(static_cast<NodeId>(c)).size();
    run_size += Run(static_cast<NodeId>(c)).size();
  }
  std::vector<NodeId> head_rows;
  std::vector<Scalar> head_values, run_values;
  head_rows.reserve(head_size);
  head_values.reserve(head_size);
  run_values.reserve(run_size);
  for (std::size_t c = 0; c < cols; ++c) {
    const auto col = static_cast<NodeId>(c);
    if (keep[c]) {
      const std::span<const NodeId> rows = HeadRows(col);
      const std::span<const Scalar> values = HeadValues(col);
      const std::span<const Scalar> run = Run(col);
      head_rows.insert(head_rows.end(), rows.begin(), rows.end());
      head_values.insert(head_values.end(), values.begin(), values.end());
      run_values.insert(run_values.end(), run.begin(), run.end());
      run_begin[c] = run_begin_[c];
    }
    col_ptr[c + 1] = col_ptr[c] + (keep[c] ? ColNnz(col) : 0);
    head_ptr[c + 1] = static_cast<Index>(head_rows.size());
    run_ptr[c + 1] = static_cast<Index>(run_values.size());
  }
  return HeadRunMatrix(rows_, std::move(col_ptr), std::move(head_ptr),
                       std::move(head_rows), std::move(head_values),
                       std::move(run_begin), std::move(run_ptr),
                       std::move(run_values));
}

}  // namespace kdash::sparse
