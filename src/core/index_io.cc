// Binary persistence of KDashIndex (Save/Load declared in kdash_index.h).
//
// Every read is checked: a truncated, corrupt, or version-mismatched stream
// comes back as a non-OK Status instead of aborting the process. Vector
// lengths are validated against the bytes actually remaining in the stream
// (when it is seekable) before allocation, so a corrupt length field cannot
// trigger a huge allocation.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/atomic_file.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/estimator.h"
#include "core/kdash_index.h"
#include "obs/metrics.h"

namespace kdash::core {

namespace {

constexpr char kMagic[4] = {'K', 'D', 'S', 'H'};
// v2 added the node-ownership window (owned_begin, owned_end) after the node
// count, so shard indexes produced by Restrict() persist and reload. Save()
// writes v2 and Load() reads only v2: a v1 (pre-sharding) file is refused
// like any other version, with a hint to rebuild.
constexpr std::uint32_t kVersion = 2;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& values) {
  WritePod(out, static_cast<std::uint64_t>(values.size()));
  if (!values.empty()) {
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }
}

void WriteCsc(std::ostream& out, const sparse::CscMatrix& m) {
  WritePod(out, m.rows());
  WritePod(out, m.cols());
  WriteVector(out, m.col_ptr());
  WriteVector(out, m.row_idx());
  WriteVector(out, m.values());
}

// The trailing PrecomputeStats block, field by field. The struct ends in 4
// bytes of padding after num_partitions; they are written as zeros so an
// index always saves to the same bytes. Load reads the block back whole.
static_assert(sizeof(PrecomputeStats) == 72 &&
                  offsetof(PrecomputeStats, num_partitions) == 64,
              "the index trailer layout changed: bump kVersion");
void WriteStats(std::ostream& out, const PrecomputeStats& stats) {
  WritePod(out, stats.reorder_seconds);
  WritePod(out, stats.lu_seconds);
  WritePod(out, stats.inverse_seconds);
  WritePod(out, stats.total_seconds);
  WritePod(out, stats.nnz_lower);
  WritePod(out, stats.nnz_upper);
  WritePod(out, stats.nnz_lower_inverse);
  WritePod(out, stats.nnz_upper_inverse);
  WritePod(out, stats.num_partitions);
  constexpr char kPadding[4] = {};
  out.write(kPadding, sizeof(kPadding));
}

// Checked reader: every primitive returns a Status, and vector lengths are
// bounded by the stream's remaining byte count before allocation.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {
    const auto pos = in_.tellg();
    if (pos != std::streampos(-1)) {
      in_.seekg(0, std::ios::end);
      const auto end = in_.tellg();
      in_.seekg(pos);
      if (end != std::streampos(-1) && in_.good()) {
        remaining_known_ = true;
        remaining_ = static_cast<std::uint64_t>(end - pos);
      }
    }
    in_.clear();  // a failed tellg on a non-seekable stream is not an error
  }

  template <typename T>
  Status Pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Chaos hook: a firing "index_io.read" is indistinguishable from a
    // failed read() — Load must unwind to a clean non-OK Status.
    KDASH_INJECT_FAULT("index_io.read");
    in_.read(reinterpret_cast<char*>(out), sizeof(T));
    if (!in_.good()) return Status::DataLoss("truncated index stream");
    Consume(sizeof(T));
    return Status::Ok();
  }

  template <typename T>
  Status Vec(std::vector<T>* out) {
    std::uint64_t size = 0;
    KDASH_RETURN_IF_ERROR(Pod(&size));
    KDASH_INJECT_FAULT("index_io.read");
    if (size > std::numeric_limits<std::uint64_t>::max() / sizeof(T) ||
        (remaining_known_ && size * sizeof(T) > remaining_)) {
      return Status::DataLoss("corrupt index stream: array length exceeds "
                             "remaining file size");
    }
    out->clear();
    if (!remaining_known_) {
      // Non-seekable stream (pipe/socket): the length field cannot be
      // bounds-checked up front, so grow in bounded chunks — a corrupt
      // huge length then fails on the first missing byte instead of
      // attempting one enormous allocation.
      constexpr std::uint64_t kChunkElems = (1u << 20);
      std::uint64_t todo = size;
      while (todo > 0) {
        const std::uint64_t chunk = std::min(todo, kChunkElems);
        const std::size_t old_size = out->size();
        out->resize(old_size + static_cast<std::size_t>(chunk));
        in_.read(reinterpret_cast<char*>(out->data() + old_size),
                 static_cast<std::streamsize>(chunk * sizeof(T)));
        if (!in_.good()) return Status::DataLoss("truncated index stream");
        todo -= chunk;
      }
      return Status::Ok();
    }
    out->resize(static_cast<std::size_t>(size));
    if (size > 0) {
      const std::uint64_t bytes = size * sizeof(T);
      in_.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(bytes));
      if (!in_.good()) return Status::DataLoss("truncated index stream");
      Consume(bytes);
    }
    return Status::Ok();
  }

 private:
  void Consume(std::uint64_t bytes) {
    if (remaining_known_) remaining_ -= bytes;
  }

  std::istream& in_;
  bool remaining_known_ = false;
  std::uint64_t remaining_ = 0;
};

// Reads an inverse saved as CSC and converts it to head + run form.
// `section` names the matrix in a corrupt-stream error ("U⁻¹"). A stored
// exact zero is refused: the builder never keeps one, and the run form
// could not tell it from a run's fill, so the file would not save back to
// the same bytes.
Result<sparse::HeadRunMatrix> ReadInverse(Reader& reader,
                                          const char* section) {
  NodeId rows = 0, cols = 0;
  KDASH_RETURN_IF_ERROR(reader.Pod(&rows));
  KDASH_RETURN_IF_ERROR(reader.Pod(&cols));
  std::vector<Index> ptr;
  std::vector<NodeId> idx;
  std::vector<Scalar> vals;
  KDASH_RETURN_IF_ERROR(reader.Vec(&ptr));
  KDASH_RETURN_IF_ERROR(reader.Vec(&idx));
  KDASH_RETURN_IF_ERROR(reader.Vec(&vals));
  // Check the arrays before the CscMatrix constructor, whose checks abort:
  // right for in-process bugs, wrong for untrusted file bytes.
  KDASH_RETURN_IF_ERROR(sparse::CheckCscArrays(
      std::string("corrupt index stream: ") + section, rows, cols, ptr, idx,
      vals));
  if (std::find(vals.begin(), vals.end(), 0.0) != vals.end()) {
    return Status::DataLoss(std::string("corrupt index stream: ") + section +
                            " stores an exact zero");
  }
  // One thread: ShardedEngine::Open loads shard files on
  // ThreadPool::Shared() workers, and the pool is not reentrant.
  return sparse::HeadRunMatrix::FromCsc(
      sparse::CscMatrix(rows, cols, std::move(ptr), std::move(idx),
                        std::move(vals)),
      /*num_threads=*/1);
}

Status CheckSize(const char* what, std::size_t got, std::size_t want) {
  if (got != want) {
    return Status::DataLoss(std::string("corrupt index stream: ") + what +
                            " has wrong length");
  }
  return Status::Ok();
}

}  // namespace

Status KDashIndex::Save(std::ostream& out) const {
  // Function-local statics: Save/Load are cold (startup, checkpoints), but
  // resolving once still keeps the registry lock off repeated saves.
  static obs::Histogram& save_us =
      obs::MetricRegistry::Global().GetHistogram("index_io.save_us");
  WallTimer timer;
  KDASH_INJECT_FAULT("index_io.write");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);

  WritePod(out, options_.restart_prob);
  WritePod(out, static_cast<std::int32_t>(options_.reorder_method));
  WritePod(out, options_.seed);
  // The retired drop-tolerance slot. Every index is exact, so it holds 0.
  const Scalar drop_tolerance = 0.0;
  WritePod(out, drop_tolerance);

  const SharedState& state = *shared_;
  WritePod(out, num_nodes_);
  WritePod(out, owned_begin_);
  WritePod(out, owned_end_);
  WritePod(out, state.amax);
  WriteVector(out, state.amax_of_node);
  WriteVector(out, state.c_prime_of_node);
  WriteVector(out, state.new_of_old);
  WriteVector(out, state.old_of_new);
  // Each inverse is written as the CSC of its stored nonzeros. U⁻¹ is held
  // as its transpose, whose CSC is exactly the CSR of U⁻¹: the same bytes
  // the format has always stored for it.
  WriteCsc(out, state.lower_inverse.ToCsc());
  WriteCsc(out, upper_inverse_.ToCsc());
  WriteVector(out, state.adjacency_ptr);
  WriteVector(out, state.adjacency);

  WriteStats(out, stats_);
  out.flush();
  if (!out.good()) return Status::DataLoss("index write failed");
  save_us.Record(static_cast<std::uint64_t>(timer.Micros()));
  return Status::Ok();
}

Result<KDashIndex> KDashIndex::Load(std::istream& in) {
  static obs::Histogram& load_us =
      obs::MetricRegistry::Global().GetHistogram("index_io.load_us");
  static obs::Counter& load_errors =
      obs::MetricRegistry::Global().GetCounter("index_io.load_errors");
  WallTimer timer;
  Result<KDashIndex> loaded = LoadStream(in);
  if (loaded.ok()) {
    load_us.Record(static_cast<std::uint64_t>(timer.Micros()));
  } else {
    load_errors.Add();
  }
  return loaded;
}

Result<KDashIndex> KDashIndex::LoadStream(std::istream& in) {
  Reader reader(in);

  char magic[4] = {};
  for (char& byte : magic) KDASH_RETURN_IF_ERROR(reader.Pod(&byte));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("not a K-dash index stream");
  }
  std::uint32_t version = 0;
  KDASH_RETURN_IF_ERROR(reader.Pod(&version));
  if (version != kVersion) {
    return Status::FailedPrecondition(
        "index version mismatch: file has version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kVersion) +
        " — rebuild the index with this binary (kdash_cli build)");
  }

  KDashIndex index;
  KDASH_RETURN_IF_ERROR(reader.Pod(&index.options_.restart_prob));
  if (!(index.options_.restart_prob > 0.0 &&
        index.options_.restart_prob < 1.0)) {
    return Status::DataLoss(
        "corrupt index stream: restart probability outside (0, 1)");
  }
  std::int32_t reorder_method = 0;
  KDASH_RETURN_IF_ERROR(reader.Pod(&reorder_method));
  if (reorder_method < 0 ||
      reorder_method > static_cast<std::int32_t>(reorder::Method::kHybrid)) {
    return Status::DataLoss("corrupt index stream: unknown reorder method");
  }
  index.options_.reorder_method = static_cast<reorder::Method>(reorder_method);
  KDASH_RETURN_IF_ERROR(reader.Pod(&index.options_.seed));
  // The retired drop-tolerance slot. Older binaries could write a positive
  // tolerance, which made the inverses (and every score) lossy; such an
  // index is refused rather than served as if it were exact.
  Scalar drop_tolerance = 0.0;
  KDASH_RETURN_IF_ERROR(reader.Pod(&drop_tolerance));
  if (!(drop_tolerance >= 0.0) || !std::isfinite(drop_tolerance)) {
    return Status::DataLoss(
        "corrupt index stream: negative or non-finite drop tolerance");
  }
  if (drop_tolerance > 0.0) {
    return Status::FailedPrecondition(
        "index was built with drop tolerance " +
        std::to_string(drop_tolerance) +
        ", which this build no longer serves (it answers exactly only) — "
        "rebuild the index with this binary (kdash_cli build)");
  }

  KDASH_RETURN_IF_ERROR(reader.Pod(&index.num_nodes_));
  if (index.num_nodes_ < 0) {
    return Status::DataLoss("corrupt index stream: negative node count");
  }
  KDASH_RETURN_IF_ERROR(reader.Pod(&index.owned_begin_));
  KDASH_RETURN_IF_ERROR(reader.Pod(&index.owned_end_));
  if (index.owned_begin_ < 0 || index.owned_begin_ > index.owned_end_ ||
      index.owned_end_ > index.num_nodes_) {
    return Status::DataLoss(
        "corrupt index stream: node-ownership window outside [0, n]");
  }
  SharedState state;
  KDASH_RETURN_IF_ERROR(reader.Pod(&state.amax));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.amax_of_node));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.c_prime_of_node));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.new_of_old));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.old_of_new));
  KDASH_ASSIGN_OR_RETURN(state.lower_inverse, ReadInverse(reader, "L⁻¹"));
  KDASH_ASSIGN_OR_RETURN(index.upper_inverse_, ReadInverse(reader, "U⁻¹"));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.adjacency_ptr));
  KDASH_RETURN_IF_ERROR(reader.Vec(&state.adjacency));

  KDASH_RETURN_IF_ERROR(reader.Pod(&index.stats_));

  // Structural sanity before the index is used for queries.
  const auto n = static_cast<std::size_t>(index.num_nodes_);
  KDASH_RETURN_IF_ERROR(CheckSize("amax table", state.amax_of_node.size(), n));
  KDASH_RETURN_IF_ERROR(
      CheckSize("c' table", state.c_prime_of_node.size(), n));
  KDASH_RETURN_IF_ERROR(
      CheckSize("permutation", state.new_of_old.size(), n));
  KDASH_RETURN_IF_ERROR(
      CheckSize("inverse permutation", state.old_of_new.size(), n));
  KDASH_RETURN_IF_ERROR(
      CheckSize("adjacency pointers", state.adjacency_ptr.size(), n + 1));
  if (static_cast<std::size_t>(state.lower_inverse.rows()) != n ||
      static_cast<std::size_t>(state.lower_inverse.cols()) != n ||
      static_cast<std::size_t>(index.upper_inverse_.rows()) != n ||
      static_cast<std::size_t>(index.upper_inverse_.cols()) != n) {
    return Status::DataLoss(
        "corrupt index stream: factor dimensions disagree with node count");
  }
  // The two permutations must be mutually inverse bijections of [0, n) —
  // this also range-checks every entry of both arrays.
  for (std::size_t old_id = 0; old_id < n; ++old_id) {
    const NodeId mapped = state.new_of_old[old_id];
    if (mapped < 0 || static_cast<std::size_t>(mapped) >= n ||
        state.old_of_new[static_cast<std::size_t>(mapped)] !=
            static_cast<NodeId>(old_id)) {
      return Status::DataLoss(
          "corrupt index stream: node permutations are not mutually "
          "inverse");
    }
  }
  if (!state.adjacency_ptr.empty()) {
    if (state.adjacency_ptr.front() != 0 ||
        state.adjacency_ptr.back() !=
            static_cast<Index>(state.adjacency.size())) {
      return Status::DataLoss("corrupt index stream: adjacency pointers "
                              "disagree with edge array");
    }
    for (std::size_t u = 0; u < n; ++u) {
      if (state.adjacency_ptr[u] > state.adjacency_ptr[u + 1]) {
        return Status::DataLoss(
            "corrupt index stream: non-monotone adjacency pointers");
      }
    }
    for (const NodeId v : state.adjacency) {
      if (v < 0 || static_cast<std::size_t>(v) >= n) {
        return Status::DataLoss(
            "corrupt index stream: adjacency target out of range");
      }
    }
  }
  // The shard score bound is derived, not stored: recomputing it from the
  // (validated) c′ table keeps the on-disk format unchanged while loaded
  // shards skip exactly like freshly Restrict()ed ones.
  index.owned_score_bound_ = OwnedScoreBound(
      index.owned_begin_, index.owned_end_, state.amax, state.c_prime_of_node);
  index.shared_ = std::make_shared<const SharedState>(std::move(state));
  return index;
}

Status KDashIndex::SaveFile(const std::string& path) const {
  return WriteFileAtomically(path,
                             [this](std::ostream& out) { return Save(out); });
}

Result<KDashIndex> KDashIndex::LoadFile(const std::string& path) {
  // An injected open failure counts as a failed load, like a real one.
  Status opened = fault::Check("index_io.open");
  std::ifstream in;
  if (opened.ok()) {
    in.open(path, std::ios::binary);
    if (!in.good()) opened = Status::NotFound("cannot open " + path);
  }
  if (!opened.ok()) {
    obs::MetricRegistry::Global().GetCounter("index_io.load_errors").Add();
    return opened;
  }
  return Load(in);
}

}  // namespace kdash::core
