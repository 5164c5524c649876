// K-dash precomputed index (the "off-line process" of the paper).
//
// Build() performs, in order:
//   1. node reordering (Section 4.2.2; hybrid by default),
//   2. W = I - (1-c)A in the reordered space,
//   3. sparse LU factorization W = LU,
//   4. explicit sparse inverses L⁻¹ and U⁻¹, built CSC and then stored in
//      head + run form (sparse/head_run_matrix.h): each column keeps a
//      sparse head and one dense run, cut where the column takes the fewest
//      bytes, and the CSC is freed. U⁻¹ is kept transposed, so row u of U⁻¹
//      (the one proximity dot of Eq. 3) is one column — mostly one
//      contiguous run,
//   5. the estimator's precomputed values Amax, Amax(u), c′(u)
//      (Section 4.3.1) in *original* node-id space.
// The index also keeps an unweighted copy of the out-adjacency for the
// per-query BFS tree.
#ifndef KDASH_CORE_KDASH_INDEX_H_
#define KDASH_CORE_KDASH_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/graph.h"
#include "reorder/reorder.h"
#include "sparse/head_run_matrix.h"

namespace kdash::core {

struct KDashOptions {
  // Restart probability c. The paper (following Tong et al. and He et al.)
  // uses 0.95.
  Scalar restart_prob = 0.95;
  reorder::Method reorder_method = reorder::Method::kHybrid;
  std::uint64_t seed = 42;
  // Worker threads for the precompute's parallel stages: the
  // phase-synchronous Louvain reordering, the LU factorization's dense tail
  // (see lu/sparse_lu.h) and the explicit triangular inverses.
  // 0 = KDASH_NUM_THREADS or hardware concurrency. An execution knob, not
  // index state: it does not affect the built index (every parallel stage is
  // bit-identical to its sequential counterpart) and is not serialized by
  // Save/Load.
  int num_threads = 0;
};

// Wall-clock breakdown and size accounting of the precompute, reported by
// the Figure 5 / Figure 6 benchmarks.
struct PrecomputeStats {
  double reorder_seconds = 0.0;
  double lu_seconds = 0.0;
  double inverse_seconds = 0.0;
  double total_seconds = 0.0;
  Index nnz_lower = 0;
  Index nnz_upper = 0;
  Index nnz_lower_inverse = 0;
  Index nnz_upper_inverse = 0;
  NodeId num_partitions = 0;  // κ for cluster/hybrid, 0 otherwise
};

class KDashIndex {
 public:
  static KDashIndex Build(const graph::Graph& graph,
                          const KDashOptions& options = {});

  // Persistence. The precompute is the expensive offline step of the paper
  // (hours at full dataset scale), so indexes can be saved and reloaded.
  // The format is a versioned native-endian binary dump. All failure modes
  // are recoverable: Load returns kDataLoss on a corrupt/truncated stream,
  // kFailedPrecondition on a version mismatch, and the File variants return
  // kNotFound/kFailedPrecondition when the file cannot be opened — the
  // process never aborts on bad input, which is what lets a long-lived
  // server treat index files as untrusted. An index built with a lossy
  // drop tolerance by an older binary is kFailedPrecondition: every index
  // this build serves is exact. SaveFile replaces the file atomically, so
  // a failed save leaves the previous index intact. The inverses are saved
  // as the CSC of their stored nonzeros and converted to head + run form on
  // Load, which refuses (kDataLoss) an inverse that stores an exact zero:
  // the builder never writes one, so every file Load accepts saves back
  // byte for byte.
  [[nodiscard]] Status Save(std::ostream& out) const;
  [[nodiscard]] static Result<KDashIndex> Load(std::istream& in);
  [[nodiscard]] Status SaveFile(const std::string& path) const;
  [[nodiscard]] static Result<KDashIndex> LoadFile(const std::string& path);

  NodeId num_nodes() const { return num_nodes_; }
  Scalar restart_prob() const { return options_.restart_prob; }
  const KDashOptions& options() const { return options_; }
  const PrecomputeStats& stats() const { return stats_; }

  // ---- node ownership (sharded serving) -----------------------------------
  //
  // A full index owns every node: [0, num_nodes). Restrict() produces a
  // *shard* of this index that answers only for original-node ids in
  // [begin, end): it keeps the full L⁻¹ (any node can be a query source),
  // the full adjacency and estimator tables (the per-query BFS and bounds
  // span the whole graph), but drops every U⁻¹ row (a column of
  // upper_inverse()) outside the window — the rows are the per-node
  // payload that dominates the footprint, so a P-way sharding splits the
  // U⁻¹ storage P ways. The kept state is not copied: every index holds
  // its immutable non-U⁻¹ machinery behind a shared_ptr, so P in-process
  // shards of one index share a single L⁻¹ / adjacency / estimator
  // allocation (replication only happens across saved shard files, i.e.
  // across processes). Searches on a shard return
  // the exact top-k among owned nodes with bit-identical scores to the
  // full index (see serving::ShardedEngine for the merge).
  KDashIndex Restrict(NodeId begin, NodeId end) const;

  NodeId owned_begin() const { return owned_begin_; }
  NodeId owned_end() const { return owned_end_; }

  // Upper bound on the proximity any query can assign to a NON-SOURCE node
  // in this index's ownership window (core::OwnedScoreBound over the
  // window; see estimator.h for the Lemma-1 admissibility argument).
  // Precomputed at Build/Restrict and re-derived from the persisted c′
  // table at Load — the serialized format is unchanged. The sharded
  // fan-out skips a shard whose bound is provably below the running top-k
  // threshold, but only when the shard owns none of the query's sources.
  Scalar owned_score_bound() const { return owned_score_bound_; }
  bool IsSharded() const {
    return owned_begin_ != 0 || owned_end_ != num_nodes_;
  }
  bool OwnsNode(NodeId u) const { return u >= owned_begin_ && u < owned_end_; }

  // Estimator inputs (original node-id space).
  Scalar amax() const { return shared_->amax; }
  const std::vector<Scalar>& amax_of_node() const {
    return shared_->amax_of_node;
  }
  const std::vector<Scalar>& c_prime_of_node() const {
    return shared_->c_prime_of_node;
  }

  // Permutations between original and reordered space.
  const std::vector<NodeId>& new_of_old() const { return shared_->new_of_old; }
  const std::vector<NodeId>& old_of_new() const { return shared_->old_of_new; }

  // Inverse factors in the reordered space, in head + run form.
  // upper_inverse() is U⁻¹ *transposed*: its column u is row u of U⁻¹, so a
  // node's proximity c · U⁻¹(u,:) · y is one ColumnDot. Their col_ptr() and
  // nnz() count the stored nonzeros, as the CSC the index file holds does.
  const sparse::HeadRunMatrix& lower_inverse() const {
    return shared_->lower_inverse;
  }
  const sparse::HeadRunMatrix& upper_inverse() const { return upper_inverse_; }

  // Out-neighbors of `u` (original ids, no weights) for the BFS tree.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    const SharedState& s = *shared_;
    return {s.adjacency.data() + s.adjacency_ptr[static_cast<std::size_t>(u)],
            s.adjacency.data() +
                s.adjacency_ptr[static_cast<std::size_t>(u) + 1]};
  }

 private:
  KDashIndex() = default;

  // Load() minus the IO metrics, so the timing/error accounting wraps every
  // early return of the deserializer exactly once.
  [[nodiscard]] static Result<KDashIndex> LoadStream(std::istream& in);

  // The immutable per-query machinery every shard of an index needs in
  // full: estimator tables, permutations, L⁻¹, and the BFS adjacency.
  // Restrict() aliases this block instead of copying it, so in-process
  // shards add only their U⁻¹ slice to the footprint.
  struct SharedState {
    Scalar amax = 0.0;
    std::vector<Scalar> amax_of_node;
    std::vector<Scalar> c_prime_of_node;

    std::vector<NodeId> new_of_old;
    std::vector<NodeId> old_of_new;

    sparse::HeadRunMatrix lower_inverse;

    std::vector<Index> adjacency_ptr;
    std::vector<NodeId> adjacency;
  };

  KDashOptions options_;
  NodeId num_nodes_ = 0;
  PrecomputeStats stats_;

  // Ownership window in original node-id space (see Restrict()).
  NodeId owned_begin_ = 0;
  NodeId owned_end_ = 0;  // == num_nodes_ for a full index

  // min(1, Amax · max c′ over the window); 1.0 (never skippable) until
  // Build/Restrict/Load computes the real value.
  Scalar owned_score_bound_ = 1.0;

  std::shared_ptr<const SharedState> shared_;

  // The per-shard payload: U⁻¹ transposed (columns of owned nodes only on a
  // shard).
  sparse::HeadRunMatrix upper_inverse_;
};

}  // namespace kdash::core

#endif  // KDASH_CORE_KDASH_INDEX_H_
