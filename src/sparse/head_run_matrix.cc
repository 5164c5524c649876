#include "sparse/head_run_matrix.h"

#include <limits>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"

namespace kdash::sparse {

namespace {

constexpr Index kHeadEntryBytes = sizeof(NodeId) + sizeof(Scalar);
constexpr Index kRunSlotBytes = sizeof(Scalar);

// Columns per ParallelFor chunk of the conversion.
constexpr Index kColumnGrain = 64;

// The byte-minimal cut of a nonempty column's ascending rows: the head
// keeps rows[0, s), the run spans rows[s] .. rows.back(). Among equal costs
// the smallest s (the longest run) wins. An all-head column is never
// minimal: its last row costs less as a one-slot run.
std::size_t ChooseSplit(std::span<const NodeId> rows) {
  std::size_t best = 0;
  Index best_bytes = std::numeric_limits<Index>::max();
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const Index bytes = kHeadEntryBytes * static_cast<Index>(s) +
                        kRunSlotBytes * (rows.back() - rows[s] + 1);
    if (bytes < best_bytes) {
      best = s;
      best_bytes = bytes;
    }
  }
  return best;
}

}  // namespace

HeadRunMatrix HeadRunMatrix::FromCsc(const CscMatrix& csc, int num_threads) {
  HeadRunMatrix m;
  m.rows_ = csc.rows();
  m.cols_ = csc.cols();
  m.col_ptr_ = csc.col_ptr();
  const auto cols = static_cast<std::size_t>(m.cols_);
  m.head_ptr_.assign(cols + 1, 0);
  m.run_begin_.assign(cols, m.rows_);
  m.run_ptr_.assign(cols + 1, 0);
  std::unique_ptr<ThreadPool> local;
  ThreadPool& pool = SelectPool(num_threads, local);
  const std::span<const NodeId> all_rows(csc.row_idx());

  // Pass 1: each column's cut, as counts in head_ptr_/run_ptr_[col + 1].
  pool.ParallelFor(0, m.cols_, kColumnGrain, [&](Index begin, Index end, int) {
    for (Index c = begin; c < end; ++c) {
      const auto col = static_cast<std::size_t>(c);
      const std::span<const NodeId> rows = all_rows.subspan(
          static_cast<std::size_t>(m.col_ptr_[col]),
          static_cast<std::size_t>(m.col_ptr_[col + 1] - m.col_ptr_[col]));
      if (rows.empty()) continue;
      const std::size_t split = ChooseSplit(rows);
      m.head_ptr_[col + 1] = static_cast<Index>(split);
      m.run_begin_[col] = rows[split];
      m.run_ptr_[col + 1] = rows.back() - rows[split] + 1;
    }
  });
  for (std::size_t c = 1; c <= cols; ++c) {
    m.head_ptr_[c] += m.head_ptr_[c - 1];
    m.run_ptr_[c] += m.run_ptr_[c - 1];
  }

  // Pass 2: copy the heads and scatter the runs.
  m.head_rows_.resize(static_cast<std::size_t>(m.head_ptr_.back()));
  m.head_values_.resize(m.head_rows_.size());
  m.run_values_.assign(static_cast<std::size_t>(m.run_ptr_.back()), 0.0);
  pool.ParallelFor(0, m.cols_, kColumnGrain, [&](Index begin, Index end, int) {
    for (Index c = begin; c < end; ++c) {
      const auto col = static_cast<std::size_t>(c);
      const Index first = m.col_ptr_[col];
      const Index split = first + m.head_ptr_[col + 1] - m.head_ptr_[col];
      std::copy(csc.row_idx().begin() + first, csc.row_idx().begin() + split,
                m.head_rows_.begin() + m.head_ptr_[col]);
      std::copy(csc.values().begin() + first, csc.values().begin() + split,
                m.head_values_.begin() + m.head_ptr_[col]);
      Scalar* run = m.run_values_.data() + m.run_ptr_[col];
      for (Index k = split; k < m.col_ptr_[col + 1]; ++k) {
        run[csc.RowIndex(k) - m.run_begin_[col]] = csc.Value(k);
      }
    }
  });
  return m;
}

CscMatrix HeadRunMatrix::ToCsc() const {
  std::vector<NodeId> rows;
  std::vector<Scalar> values;
  rows.reserve(static_cast<std::size_t>(nnz()));
  values.reserve(static_cast<std::size_t>(nnz()));
  for (NodeId col = 0; col < cols_; ++col) {
    const std::span<const NodeId> head_rows = HeadRows(col);
    const std::span<const Scalar> head_values = HeadValues(col);
    rows.insert(rows.end(), head_rows.begin(), head_rows.end());
    values.insert(values.end(), head_values.begin(), head_values.end());
    const std::span<const Scalar> run = Run(col);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (run[i] == 0.0) continue;
      rows.push_back(RunBegin(col) + static_cast<NodeId>(i));
      values.push_back(run[i]);
    }
  }
  KDASH_CHECK_EQ(static_cast<Index>(rows.size()), nnz())
      << "a run holds an uncounted nonzero";
  return CscMatrix(rows_, cols_, col_ptr_, std::move(rows), std::move(values));
}

void HeadRunMatrix::ScatterColumn(NodeId col, std::vector<Scalar>& out) const {
  KDASH_CHECK_EQ(out.size(), static_cast<std::size_t>(rows_));
  std::fill(out.begin(), out.end(), 0.0);
  const std::span<const NodeId> head_rows = HeadRows(col);
  const std::span<const Scalar> head_values = HeadValues(col);
  for (std::size_t k = 0; k < head_rows.size(); ++k) {
    out[static_cast<std::size_t>(head_rows[k])] = head_values[k];
  }
  const std::span<const Scalar> run = Run(col);
  std::copy(run.begin(), run.end(), out.begin() + RunBegin(col));
}

HeadRunMatrix HeadRunMatrix::KeepColumns(const std::vector<bool>& keep) const {
  KDASH_CHECK_EQ(keep.size(), static_cast<std::size_t>(cols_));
  HeadRunMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  const auto cols = static_cast<std::size_t>(cols_);
  m.col_ptr_.assign(cols + 1, 0);
  m.head_ptr_.assign(cols + 1, 0);
  m.run_begin_.assign(cols, rows_);
  m.run_ptr_.assign(cols + 1, 0);
  std::size_t head_size = 0, run_size = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    if (!keep[c]) continue;
    head_size += HeadRows(static_cast<NodeId>(c)).size();
    run_size += Run(static_cast<NodeId>(c)).size();
  }
  m.head_rows_.reserve(head_size);
  m.head_values_.reserve(head_size);
  m.run_values_.reserve(run_size);
  for (std::size_t c = 0; c < cols; ++c) {
    const auto col = static_cast<NodeId>(c);
    if (keep[c]) {
      const std::span<const NodeId> head_rows = HeadRows(col);
      const std::span<const Scalar> head_values = HeadValues(col);
      const std::span<const Scalar> run = Run(col);
      m.head_rows_.insert(m.head_rows_.end(), head_rows.begin(),
                          head_rows.end());
      m.head_values_.insert(m.head_values_.end(), head_values.begin(),
                            head_values.end());
      m.run_values_.insert(m.run_values_.end(), run.begin(), run.end());
      m.run_begin_[c] = run_begin_[c];
    }
    m.col_ptr_[c + 1] = m.col_ptr_[c] + (keep[c] ? ColNnz(col) : 0);
    m.head_ptr_[c + 1] = static_cast<Index>(m.head_rows_.size());
    m.run_ptr_[c + 1] = static_cast<Index>(m.run_values_.size());
  }
  return m;
}

}  // namespace kdash::sparse
