// Binary persistence of KDashIndex (Save/Load declared in kdash_index.h).
//
// Save writes format v3, the only one Load reads. It is native-endian.
//
// The file is a 16-byte header (magic "KDSH", version 3, section count, 4
// zero bytes), a table of one 24-byte entry per section {tag, CRC-32C, offset,
// length} (u32, u32, u64, u64), then the sections in table order. Each
// section starts at the next 8-byte boundary of the file, after zero
// padding, so a reader can stream the file front to back and a mapping of
// the file finds every array aligned. The sections, with their tags:
//    1 options   c (f64), seed (u64), reorder method (i32)
//    2 shape     Amax (f64), n, owned_begin, owned_end (i32 each)
//    3 Amax(u)   n × f64
//    4 c′        n × f64
//    5 new_of_old, 6 old_of_new   n × i32 each
//    7 L⁻¹, 8 U⁻¹ᵀ   head + run form (sparse/head_run_matrix.h): n column
//                extents {head size, run begin, run size} (3 × u32), the
//                head rows (i32), zero padding to 8 bytes, the head values
//                (f64), the run values (f64)
//    9 adjacency pointers   (n + 1) × i64
//   10 adjacency targets    i32 each
//   11 precompute stats     PrecomputeStats field by field, 4 zero bytes
//
// Every read goes through the checked Reader: a truncated, corrupt, or
// version-mismatched stream comes back as a non-OK Status instead of
// aborting the process. Array lengths are validated against the bytes
// actually remaining in the stream (when it is seekable) before
// allocation, so a corrupt length field cannot trigger a huge allocation.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/kdash_index.h"
#include "obs/metrics.h"

namespace kdash::core {

namespace {

constexpr char kMagic[4] = {'K', 'D', 'S', 'H'};
// The only version Load reads. An older file (v2: unaligned, CSC inverses,
// no checksums; v1: pre-sharding) is refused like any other version, with
// a hint to rebuild.
constexpr std::uint32_t kVersion3 = 3;

constexpr std::size_t kAlignment = 8;
constexpr std::uint64_t kHeaderBytes = 16;

// The sections in file order. Section i has tag i + 1 and is named
// kSectionNames[i] in error messages.
enum Section : std::uint32_t {
  kOptions,
  kShape,
  kAmaxOfNode,
  kCPrime,
  kNewOfOld,
  kOldOfNew,
  kLowerInverse,
  kUpperInverse,
  kAdjacencyPtr,
  kAdjacency,
  kStats,
  kNumSections,
};
constexpr std::array<const char*, kNumSections> kSectionNames = {
    "options",    "shape",      "Amax(u)",
    "c′",         "new_of_old", "old_of_new",
    "L⁻¹",        "U⁻¹",        "adjacency pointers",
    "adjacency targets",        "precompute stats"};

struct SectionEntry {
  std::uint32_t tag = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};
static_assert(sizeof(SectionEntry) == 24);

constexpr std::uint64_t AlignUp(std::uint64_t at) {
  return (at + kAlignment - 1) / kAlignment * kAlignment;
}

// The PrecomputeStats fields in file order. The struct ends in 4 bytes of
// padding after num_partitions; a file holds them as zeros so an index
// always saves to the same bytes.
static_assert(sizeof(PrecomputeStats) == 72 &&
                  offsetof(PrecomputeStats, num_partitions) == 64,
              "the stats layout changed: bump the index version");
template <typename Stats, typename Fn>
void ForEachStatsField(Stats& stats, Fn fn) {
  fn(stats.reorder_seconds);
  fn(stats.lu_seconds);
  fn(stats.inverse_seconds);
  fn(stats.total_seconds);
  fn(stats.nnz_lower);
  fn(stats.nnz_upper);
  fn(stats.nnz_lower_inverse);
  fn(stats.nnz_upper_inverse);
  fn(stats.num_partitions);
}
constexpr std::uint32_t kStatsPadding = 0;

// ---- writing ---------------------------------------------------------------

template <typename T>
void Append(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T, typename Alloc>
std::span<const char> Bytes(const std::vector<T, Alloc>& values) {
  return {reinterpret_cast<const char*>(values.data()),
          values.size() * sizeof(T)};
}

constexpr char kZeros[kAlignment] = {};

// One section as Save writes it: the concatenation of `pieces`, which
// point into the index (or into a buffer Save keeps alive).
using SectionPieces = std::vector<std::span<const char>>;

// An inverse's section: its column extents, then the stored arrays as the
// matrix holds them, with the head rows padded to 8 bytes.
SectionPieces InversePieces(const sparse::HeadRunMatrix& m,
                            const std::vector<sparse::ColumnExtent>& extents) {
  const std::span<const char> head_rows = Bytes(m.head_rows());
  return {Bytes(extents), head_rows,
          {kZeros, AlignUp(head_rows.size()) - head_rows.size()},
          Bytes(m.head_values()), Bytes(m.run_values())};
}

// ---- reading ---------------------------------------------------------------

std::string Corrupt(const std::string& what) {
  return "corrupt index stream: " + what;
}

// Checked reader: every primitive returns a Status, and array lengths are
// bounded by the stream's remaining byte count before allocation. It
// keeps the CRC-32C of the bytes read since the last ResetCrc().
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
    Consume(out, sizeof(T));
    return Status::Ok();
  }

  // `size` elements into *out. With a sparse::StoredArray the storage is
  // left unfilled as it grows: every element is then read from the stream,
  // or the load fails.
  template <typename T, typename Alloc>
  Status Array(std::vector<T, Alloc>* out, std::uint64_t size) {
    static_assert(std::is_trivially_copyable_v<T>);
    KDASH_INJECT_FAULT("index_io.read");
    if (size > std::numeric_limits<std::uint64_t>::max() / sizeof(T) ||
        (remaining_known_ && size * sizeof(T) > remaining_)) {
      return Status::DataLoss(
          Corrupt("array length exceeds remaining file size"));
    }
    out->clear();
    // A seekable stream's length was bounded above, so it is allocated
    // once. A non-seekable one (pipe/socket) grows in bounded chunks, so a
    // corrupt huge length fails on the first missing byte instead of
    // attempting one enormous allocation.
    if (remaining_known_) out->reserve(static_cast<std::size_t>(size));
    constexpr std::uint64_t kChunkElems = (1u << 20);
    for (std::uint64_t todo = size; todo > 0;) {
      const std::uint64_t chunk = std::min(todo, kChunkElems);
      const std::size_t old_size = out->size();
      out->resize(old_size + static_cast<std::size_t>(chunk));
      in_.read(reinterpret_cast<char*>(out->data() + old_size),
               static_cast<std::streamsize>(chunk * sizeof(T)));
      if (!in_.good()) return Status::DataLoss("truncated index stream");
      Consume(out->data() + old_size, chunk * sizeof(T));
      todo -= chunk;
    }
    return Status::Ok();
  }

  // `bytes` bytes that must all be zero; `what` names them in the error.
  Status Zeros(std::uint64_t bytes, const std::string& what) {
    for (std::uint64_t i = 0; i < bytes; ++i) {
      char byte = 0;
      KDASH_RETURN_IF_ERROR(Pod(&byte));
      if (byte != 0) return Status::DataLoss(Corrupt("nonzero " + what));
    }
    return Status::Ok();
  }

  std::uint64_t position() const { return position_; }
  std::uint32_t crc() const { return crc_; }
  void ResetCrc() { crc_ = 0; }

 private:
  void Consume(const void* data, std::uint64_t bytes) {
    if (remaining_known_) remaining_ -= bytes;
    position_ += bytes;
    crc_ = Crc32cExtend(crc_, data, static_cast<std::size_t>(bytes));
  }

  std::istream& in_;
  bool remaining_known_ = false;
  std::uint64_t remaining_ = 0;
  std::uint64_t position_ = 0;
  std::uint32_t crc_ = 0;
};

// The v3 section table, read and checked against kSectionNames: every
// known section once, in order, and nothing else.
Result<std::vector<SectionEntry>> ReadSectionTable(Reader& reader) {
  std::uint32_t count = 0;
  KDASH_RETURN_IF_ERROR(reader.Pod(&count));
  KDASH_RETURN_IF_ERROR(reader.Zeros(4, "padding in the header"));
  std::vector<SectionEntry> table;
  for (std::uint32_t i = 0; i < count && i < kNumSections; ++i) {
    SectionEntry entry;
    KDASH_RETURN_IF_ERROR(reader.Pod(&entry));
    const std::uint32_t want = i + 1;
    if (entry.tag == 0 || entry.tag > kNumSections) {
      return Status::DataLoss(Corrupt("unknown section tag " +
                                      std::to_string(entry.tag)));
    }
    const std::string name = kSectionNames[entry.tag - 1];
    if (entry.tag < want) {
      return Status::DataLoss(Corrupt("duplicate section " + name));
    }
    if (entry.tag > want) {
      return Status::DataLoss(Corrupt("section " + name + " out of order: " +
                                      kSectionNames[i] + " missing"));
    }
    table.push_back(entry);
  }
  if (count < kNumSections) {
    return Status::DataLoss(
        Corrupt(std::string("section ") + kSectionNames[count] + " missing"));
  }
  if (count > kNumSections) {
    return Status::DataLoss(Corrupt("unknown section after " +
                                    std::string(kSectionNames.back())));
  }
  return table;
}

// Reads v3 section `section` of `table`: the zero padding before it, then
// `body`, which reads the section's fields. The section must start at its
// table offset and end at its table length, and its bytes must match its
// CRC; every error names the section.
template <typename Body>
Status ReadSection(Reader& reader, const std::vector<SectionEntry>& table,
                   Section section, Body body) {
  const SectionEntry& entry = table[section];
  const std::string name = kSectionNames[section];
  const std::uint64_t start = AlignUp(reader.position());
  if (entry.offset != start) {
    return Status::DataLoss(Corrupt(name + " section has offset " +
                                    std::to_string(entry.offset) +
                                    ", want " + std::to_string(start)));
  }
  KDASH_RETURN_IF_ERROR(
      reader.Zeros(start - reader.position(), "padding before " + name));
  reader.ResetCrc();
  KDASH_RETURN_IF_ERROR(body(entry.length));
  if (reader.position() - start != entry.length) {
    return Status::DataLoss(Corrupt(name + " section length disagrees with "
                                           "its contents"));
  }
  if (reader.crc() != entry.crc) {
    return Status::DataLoss(Corrupt(name + " section fails its CRC"));
  }
  return Status::Ok();
}

// A section's table length against the one its contents imply (from n,
// or from the inverse's column extents).
Status CheckLength(Section section, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    return Status::DataLoss(Corrupt(std::string(kSectionNames[section]) +
                                    " section length " + std::to_string(got) +
                                    ", want " + std::to_string(want)));
  }
  return Status::Ok();
}

// An array section of `count` elements.
template <typename T>
Status ReadArraySection(Reader& reader, const std::vector<SectionEntry>& table,
                        Section section, std::uint64_t count,
                        std::vector<T>* out) {
  return ReadSection(reader, table, section, [&](std::uint64_t length) {
    KDASH_RETURN_IF_ERROR(CheckLength(section, length, count * sizeof(T)));
    return reader.Array(out, count);
  });
}

// A v3 inverse section of an n × n matrix, in head + run form.
Result<sparse::HeadRunMatrix> ReadInverseV3(
    Reader& reader, const std::vector<SectionEntry>& table, Section section,
    NodeId n) {
  const char* name = kSectionNames[section];
  std::vector<sparse::ColumnExtent> extents;
  sparse::StoredArray<NodeId> head_rows;
  sparse::StoredArray<Scalar> head_values;
  sparse::StoredArray<Scalar> run_values;
  KDASH_RETURN_IF_ERROR(
      ReadSection(reader, table, section, [&](std::uint64_t length) {
        const auto cols = static_cast<std::uint64_t>(n);
        const std::uint64_t extent_bytes = cols * sizeof(sparse::ColumnExtent);
        if (length < extent_bytes) {
          return CheckLength(section, length, extent_bytes);
        }
        KDASH_RETURN_IF_ERROR(reader.Array(&extents, cols));
        std::uint64_t head_size = 0, run_size = 0;
        for (const sparse::ColumnExtent& extent : extents) {
          head_size += extent.head_size;
          run_size += extent.run_size;
        }
        const std::uint64_t head_row_bytes = head_size * sizeof(NodeId);
        KDASH_RETURN_IF_ERROR(CheckLength(
            section, length,
            extent_bytes + AlignUp(head_row_bytes) +
                (head_size + run_size) * sizeof(Scalar)));
        KDASH_RETURN_IF_ERROR(reader.Array(&head_rows, head_size));
        KDASH_RETURN_IF_ERROR(
            reader.Zeros(AlignUp(head_row_bytes) - head_row_bytes,
                         std::string("padding in ") + name));
        KDASH_RETURN_IF_ERROR(reader.Array(&head_values, head_size));
        return reader.Array(&run_values, run_size);
      }));
  return sparse::HeadRunMatrix::FromStored(
      n, extents, std::move(head_rows), std::move(head_values),
      std::move(run_values), Corrupt(name));
}

Status CheckOptions(const KDashOptions& options, std::int32_t reorder_method) {
  if (!(options.restart_prob > 0.0 && options.restart_prob < 1.0)) {
    return Status::DataLoss(Corrupt("restart probability outside (0, 1)"));
  }
  if (reorder_method < 0 ||
      reorder_method > static_cast<std::int32_t>(reorder::Method::kHybrid)) {
    return Status::DataLoss(Corrupt("unknown reorder method"));
  }
  return Status::Ok();
}

Status CheckShape(NodeId n, NodeId owned_begin, NodeId owned_end) {
  if (n < 0) return Status::DataLoss(Corrupt("negative node count"));
  if (owned_begin < 0 || owned_begin > owned_end || owned_end > n) {
    return Status::DataLoss(Corrupt("node-ownership window outside [0, n]"));
  }
  return Status::Ok();
}

Status CheckSize(const char* what, std::size_t got, std::size_t want) {
  if (got != want) {
    return Status::DataLoss(Corrupt(std::string(what) + " has wrong length"));
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
  const SharedState& state = *shared_;

  std::string options_bytes;
  Append(&options_bytes, options_.restart_prob);
  Append(&options_bytes, options_.seed);
  Append(&options_bytes, static_cast<std::int32_t>(options_.reorder_method));
  std::string shape_bytes;
  Append(&shape_bytes, state.amax);
  Append(&shape_bytes, num_nodes_);
  Append(&shape_bytes, owned_begin_);
  Append(&shape_bytes, owned_end_);
  std::string stats_bytes;
  ForEachStatsField(stats_,
                    [&](const auto& field) { Append(&stats_bytes, field); });
  Append(&stats_bytes, kStatsPadding);
  const std::vector<sparse::ColumnExtent> lower_extents =
      state.lower_inverse.ColumnExtents();
  const std::vector<sparse::ColumnExtent> upper_extents =
      upper_inverse_.ColumnExtents();
  const std::array<SectionPieces, kNumSections> sections = {
      SectionPieces{options_bytes},
      SectionPieces{shape_bytes},
      SectionPieces{Bytes(state.amax_of_node)},
      SectionPieces{Bytes(state.c_prime_of_node)},
      SectionPieces{Bytes(state.new_of_old)},
      SectionPieces{Bytes(state.old_of_new)},
      InversePieces(state.lower_inverse, lower_extents),
      InversePieces(upper_inverse_, upper_extents),
      SectionPieces{Bytes(state.adjacency_ptr)},
      SectionPieces{Bytes(state.adjacency)},
      SectionPieces{stats_bytes}};

  // The table comes first, so every section's CRC is taken before any of
  // its bytes are written: the stream need not be seekable.
  std::array<SectionEntry, kNumSections> table;
  std::uint64_t at = AlignUp(kHeaderBytes + sizeof(table));
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry& entry = table[i];
    entry.tag = i + 1;
    entry.offset = at;
    for (const std::span<const char> piece : sections[i]) {
      entry.crc = Crc32cExtend(entry.crc, piece.data(), piece.size());
      entry.length += piece.size();
    }
    at = AlignUp(at + entry.length);
  }

  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion3), sizeof(kVersion3));
  const std::uint32_t count = kNumSections;
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(kZeros, 4);
  out.write(reinterpret_cast<const char*>(table.data()), sizeof(table));
  std::uint64_t written = kHeaderBytes + sizeof(table);
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    out.write(kZeros, static_cast<std::streamsize>(table[i].offset - written));
    for (const std::span<const char> piece : sections[i]) {
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    }
    written = table[i].offset + table[i].length;
  }
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
  if (version != kVersion3) {
    return Status::FailedPrecondition(
        "index version mismatch: file has version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kVersion3) +
        " — rebuild the index with this binary (kdash_cli build)");
  }

  // The section table, then each section in table order.
  KDashIndex index;
  SharedState state;
  KDASH_ASSIGN_OR_RETURN(const std::vector<SectionEntry> table,
                         ReadSectionTable(reader));
  std::int32_t reorder_method = 0;
  KDASH_RETURN_IF_ERROR(
      ReadSection(reader, table, kOptions, [&](std::uint64_t length) {
        KDASH_RETURN_IF_ERROR(CheckLength(kOptions, length, 20));
        KDASH_RETURN_IF_ERROR(reader.Pod(&index.options_.restart_prob));
        KDASH_RETURN_IF_ERROR(reader.Pod(&index.options_.seed));
        return reader.Pod(&reorder_method);
      }));
  KDASH_RETURN_IF_ERROR(CheckOptions(index.options_, reorder_method));
  index.options_.reorder_method = static_cast<reorder::Method>(reorder_method);
  KDASH_RETURN_IF_ERROR(
      ReadSection(reader, table, kShape, [&](std::uint64_t length) {
        KDASH_RETURN_IF_ERROR(CheckLength(kShape, length, 20));
        KDASH_RETURN_IF_ERROR(reader.Pod(&state.amax));
        KDASH_RETURN_IF_ERROR(reader.Pod(&index.num_nodes_));
        KDASH_RETURN_IF_ERROR(reader.Pod(&index.owned_begin_));
        return reader.Pod(&index.owned_end_);
      }));
  KDASH_RETURN_IF_ERROR(CheckShape(index.num_nodes_, index.owned_begin_,
                                   index.owned_end_));
  const auto count = static_cast<std::uint64_t>(index.num_nodes_);
  KDASH_RETURN_IF_ERROR(ReadArraySection(reader, table, kAmaxOfNode, count,
                                         &state.amax_of_node));
  KDASH_RETURN_IF_ERROR(ReadArraySection(reader, table, kCPrime, count,
                                         &state.c_prime_of_node));
  KDASH_RETURN_IF_ERROR(
      ReadArraySection(reader, table, kNewOfOld, count, &state.new_of_old));
  KDASH_RETURN_IF_ERROR(
      ReadArraySection(reader, table, kOldOfNew, count, &state.old_of_new));
  KDASH_ASSIGN_OR_RETURN(
      state.lower_inverse,
      ReadInverseV3(reader, table, kLowerInverse, index.num_nodes_));
  KDASH_ASSIGN_OR_RETURN(
      index.upper_inverse_,
      ReadInverseV3(reader, table, kUpperInverse, index.num_nodes_));
  KDASH_RETURN_IF_ERROR(ReadArraySection(reader, table, kAdjacencyPtr,
                                         count + 1, &state.adjacency_ptr));
  KDASH_RETURN_IF_ERROR(
      ReadSection(reader, table, kAdjacency, [&](std::uint64_t length) {
        KDASH_RETURN_IF_ERROR(CheckLength(
            kAdjacency, length, length / sizeof(NodeId) * sizeof(NodeId)));
        return reader.Array(&state.adjacency, length / sizeof(NodeId));
      }));
  KDASH_RETURN_IF_ERROR(
      ReadSection(reader, table, kStats, [&](std::uint64_t length) {
        KDASH_RETURN_IF_ERROR(
            CheckLength(kStats, length, sizeof(PrecomputeStats)));
        Status status = Status::Ok();
        ForEachStatsField(index.stats_, [&](auto& field) {
          if (status.ok()) status = reader.Pod(&field);
        });
        KDASH_RETURN_IF_ERROR(status);
        return reader.Zeros(sizeof(kStatsPadding),
                            "padding in precompute stats");
      }));

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
        Corrupt("factor dimensions disagree with node count"));
  }
  // The two permutations must be mutually inverse bijections of [0, n) —
  // this also range-checks every entry of both arrays.
  for (std::size_t old_id = 0; old_id < n; ++old_id) {
    const NodeId mapped = state.new_of_old[old_id];
    if (mapped < 0 || static_cast<std::size_t>(mapped) >= n ||
        state.old_of_new[static_cast<std::size_t>(mapped)] !=
            static_cast<NodeId>(old_id)) {
      return Status::DataLoss(
          Corrupt("node permutations are not mutually inverse"));
    }
  }
  if (state.adjacency_ptr.front() != 0 ||
      state.adjacency_ptr.back() !=
          static_cast<Index>(state.adjacency.size())) {
    return Status::DataLoss(
        Corrupt("adjacency pointers disagree with edge array"));
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (state.adjacency_ptr[u] > state.adjacency_ptr[u + 1]) {
      return Status::DataLoss(Corrupt("non-monotone adjacency pointers"));
    }
  }
  for (const NodeId v : state.adjacency) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) {
      return Status::DataLoss(Corrupt("adjacency target out of range"));
    }
  }
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
