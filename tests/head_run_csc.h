// Conversions between CSC and head + run form for tests. The library builds
// its inverses straight into head + run form (lu/triangular.h); the tests
// use these to compare that output with CSC oracles and to state matrices
// column by column.
#ifndef KDASH_TESTS_HEAD_RUN_CSC_H_
#define KDASH_TESTS_HEAD_RUN_CSC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sparse/csc_matrix.h"
#include "sparse/head_run_matrix.h"

namespace kdash::test {

// The head + run form of `csc`, which must store no exact zero: each
// column cut at the first of least sparse::CutCost, then checked by
// HeadRunMatrix::FromStored, as a loaded file is.
inline sparse::HeadRunMatrix FromCsc(const sparse::CscMatrix& csc) {
  std::vector<sparse::ColumnExtent> extents;
  std::vector<NodeId> head_rows;
  std::vector<Scalar> head_values;
  std::vector<Scalar> run_values;
  for (NodeId col = 0; col < csc.cols(); ++col) {
    const Index begin = csc.ColBegin(col);
    const Index end = csc.ColEnd(col);
    if (begin == end) {
      extents.push_back({0, static_cast<std::uint32_t>(csc.rows()), 0});
      continue;
    }
    Index cut = begin;
    for (Index k = begin + 1; k < end; ++k) {
      if (sparse::CutCost(k - begin, csc.RowIndex(k)) <
          sparse::CutCost(cut - begin, csc.RowIndex(cut))) {
        cut = k;
      }
    }
    const NodeId run_begin = csc.RowIndex(cut);
    extents.push_back(
        {static_cast<std::uint32_t>(cut - begin),
         static_cast<std::uint32_t>(run_begin),
         static_cast<std::uint32_t>(csc.RowIndex(end - 1) - run_begin + 1)});
    for (Index k = begin; k < cut; ++k) {
      head_rows.push_back(csc.RowIndex(k));
      head_values.push_back(csc.Value(k));
    }
    const std::size_t run_at = run_values.size();
    run_values.resize(run_at + extents.back().run_size, 0.0);
    for (Index k = cut; k < end; ++k) {
      run_values[run_at +
                 static_cast<std::size_t>(csc.RowIndex(k) - run_begin)] =
          csc.Value(k);
    }
  }
  Result<sparse::HeadRunMatrix> m = sparse::HeadRunMatrix::FromStored(
      csc.rows(), extents, std::move(head_rows), std::move(head_values),
      std::move(run_values), "FromCsc");
  KDASH_CHECK(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

// The CSC matrix of m's nonzeros (its runs' zeros dropped).
inline sparse::CscMatrix ToCsc(const sparse::HeadRunMatrix& m) {
  std::vector<NodeId> rows;
  std::vector<Scalar> values;
  for (NodeId col = 0; col < m.cols(); ++col) {
    const std::span<const NodeId> head_rows = m.HeadRows(col);
    const std::span<const Scalar> head_values = m.HeadValues(col);
    rows.insert(rows.end(), head_rows.begin(), head_rows.end());
    values.insert(values.end(), head_values.begin(), head_values.end());
    const std::span<const Scalar> run = m.Run(col);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i] == 0.0) continue;
      rows.push_back(m.RunBegin(col) + static_cast<NodeId>(i));
      values.push_back(run[i]);
    }
  }
  KDASH_CHECK_EQ(static_cast<Index>(rows.size()), m.nnz())
      << "a run holds an uncounted nonzero";
  return sparse::CscMatrix(m.rows(), m.cols(), m.col_ptr(), std::move(rows),
                           std::move(values));
}

// Whether a and b store the same columns with the same value bits.
inline bool SameBits(const sparse::HeadRunMatrix& a,
                     const sparse::HeadRunMatrix& b) {
  const auto same_bits = [](const std::vector<Scalar>& x,
                            const std::vector<Scalar>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(Scalar)) == 0);
  };
  return a == b && same_bits(a.head_values(), b.head_values()) &&
         same_bits(a.run_values(), b.run_values());
}

}  // namespace kdash::test

#endif  // KDASH_TESTS_HEAD_RUN_CSC_H_
