// Triplet (COO) accumulator for assembling sparse matrices.
//
// Duplicate (row, col) entries are summed on build, which is the convention
// graph builders rely on for multi-edges.
#ifndef KDASH_SPARSE_COO_BUILDER_H_
#define KDASH_SPARSE_COO_BUILDER_H_

#include <vector>

#include "common/types.h"
#include "sparse/csc_matrix.h"

namespace kdash::sparse {

class CooBuilder {
 public:
  CooBuilder(NodeId rows, NodeId cols) : rows_(rows), cols_(cols) {}

  void Add(NodeId row, NodeId col, Scalar value);

  void Reserve(std::size_t nnz_hint) {
    rows_idx_.reserve(nnz_hint);
    cols_idx_.reserve(nnz_hint);
    values_.reserve(nnz_hint);
  }

  std::size_t Size() const { return values_.size(); }
  NodeId rows() const { return rows_; }
  NodeId cols() const { return cols_; }

  // Builds a CSC matrix with sorted columns and summed duplicates.
  CscMatrix BuildCsc() const;

 private:
  NodeId rows_;
  NodeId cols_;
  std::vector<NodeId> rows_idx_;
  std::vector<NodeId> cols_idx_;
  std::vector<Scalar> values_;
};

}  // namespace kdash::sparse

#endif  // KDASH_SPARSE_COO_BUILDER_H_
