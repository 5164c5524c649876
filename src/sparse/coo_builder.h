// Triplet (COO) accumulator: where a graph's edges are sorted and duplicate
// (row, col) entries summed. Its one library caller is graph::GraphBuilder;
// every later matrix is a linear pass over the sorted columns, and tests
// use this builder as those passes' oracle.
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
