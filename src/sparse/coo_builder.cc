#include "sparse/coo_builder.h"

#include <algorithm>
#include <numeric>

namespace kdash::sparse {

void CooBuilder::Add(NodeId row, NodeId col, Scalar value) {
  KDASH_CHECK(row >= 0 && row < rows_) << "row " << row;
  KDASH_CHECK(col >= 0 && col < cols_) << "col " << col;
  rows_idx_.push_back(row);
  cols_idx_.push_back(col);
  values_.push_back(value);
}

CscMatrix CooBuilder::BuildCsc() const {
  std::vector<std::size_t> order(values_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cols_idx_[a] != cols_idx_[b]) return cols_idx_[a] < cols_idx_[b];
    return rows_idx_[a] < rows_idx_[b];
  });

  // Merge duplicates into flat (col, row, value) runs.
  std::vector<NodeId> merged_cols;
  std::vector<NodeId> row_idx;
  std::vector<Scalar> values;
  merged_cols.reserve(values_.size());
  row_idx.reserve(values_.size());
  values.reserve(values_.size());
  for (const std::size_t t : order) {
    if (!merged_cols.empty() && merged_cols.back() == cols_idx_[t] &&
        row_idx.back() == rows_idx_[t]) {
      values.back() += values_[t];
    } else {
      merged_cols.push_back(cols_idx_[t]);
      row_idx.push_back(rows_idx_[t]);
      values.push_back(values_[t]);
    }
  }

  // Count per-column sizes and prefix-sum into col_ptr.
  std::vector<Index> col_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (const NodeId c : merged_cols) {
    ++col_ptr[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t c = 1; c < col_ptr.size(); ++c) {
    col_ptr[c] += col_ptr[c - 1];
  }
  return CscMatrix(rows_, cols_, std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

}  // namespace kdash::sparse
