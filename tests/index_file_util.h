// Byte-level helpers for tests of the index file formats (see the layout
// comment at the top of src/core/index_io.cc): a writer of the retired v2
// stream, which Load still reads, and a v3 file taken apart into sections.
#ifndef KDASH_TESTS_INDEX_FILE_UTIL_H_
#define KDASH_TESTS_INDEX_FILE_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/types.h"
#include "core/kdash_index.h"
#include "sparse/csc_matrix.h"

namespace kdash::test {

// The v2 stream of `index`, written the way Save wrote it before v3: every
// array behind a u64 length, the retired drop-tolerance slot (0.0) after
// the seed, and each inverse as the CSC of its stored nonzeros.
inline std::string SaveV2(const core::KDashIndex& index) {
  std::ostringstream out;
  const auto pod = [&](const auto& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const auto vec = [&](const auto& values) {
    pod(static_cast<std::uint64_t>(values.size()));
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() *
                                           sizeof(values[0])));
  };
  const auto csc = [&](const sparse::CscMatrix& m) {
    pod(m.rows());
    pod(m.cols());
    vec(m.col_ptr());
    vec(m.row_idx());
    vec(m.values());
  };
  out.write("KDSH", 4);
  pod(std::uint32_t{2});
  pod(index.options().restart_prob);
  pod(static_cast<std::int32_t>(index.options().reorder_method));
  pod(index.options().seed);
  pod(Scalar{0.0});
  pod(index.num_nodes());
  pod(index.owned_begin());
  pod(index.owned_end());
  pod(index.amax());
  vec(index.amax_of_node());
  vec(index.c_prime_of_node());
  vec(index.new_of_old());
  vec(index.old_of_new());
  csc(index.lower_inverse().ToCsc());
  csc(index.upper_inverse().ToCsc());
  std::vector<Index> adjacency_ptr{0};
  std::vector<NodeId> adjacency;
  for (NodeId u = 0; u < index.num_nodes(); ++u) {
    for (const NodeId v : index.OutNeighbors(u)) adjacency.push_back(v);
    adjacency_ptr.push_back(static_cast<Index>(adjacency.size()));
  }
  vec(adjacency_ptr);
  vec(adjacency);
  const core::PrecomputeStats& stats = index.stats();
  pod(stats.reorder_seconds);
  pod(stats.lu_seconds);
  pod(stats.inverse_seconds);
  pod(stats.total_seconds);
  pod(stats.nnz_lower);
  pod(stats.nnz_upper);
  pod(stats.nnz_lower_inverse);
  pod(stats.nnz_upper_inverse);
  pod(stats.num_partitions);
  pod(std::uint32_t{0});
  return out.str();
}

// The v3 layout: a 16-byte header {"KDSH", version u32, section count u32,
// 4 zero bytes}, then one 24-byte table entry {tag u32, crc u32, offset
// u64, length u64} per section, in this order (section i has tag i + 1).
namespace v3 {

enum Section : std::size_t {
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

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kEntryBytes = 24;

// Where a section's table entry and its fields start.
constexpr std::size_t EntryAt(std::size_t section) {
  return kHeaderBytes + section * kEntryBytes;
}
constexpr std::size_t kTagAt = 0;
constexpr std::size_t kCrcAt = 4;
constexpr std::size_t kOffsetAt = 8;
constexpr std::size_t kLengthAt = 16;

template <typename T>
T ReadAt(const std::string& bytes, std::size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::string* bytes, std::size_t at, const T& value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// A v3 file taken apart: its version, its table's tags, and each
// section's bytes. Bytes() lays the file out again with the offsets,
// zero padding, lengths and CRCs a writer would give it, so a test can
// patch a field (or drop, repeat or reorder a section) and reach the check
// behind the CRC.
struct File {
  std::uint32_t version = 0;
  std::vector<std::uint32_t> tags;
  std::vector<std::string> sections;

  static File Parse(const std::string& bytes) {
    File file;
    file.version = ReadAt<std::uint32_t>(bytes, 4);
    const auto count = ReadAt<std::uint32_t>(bytes, 8);
    for (std::size_t i = 0; i < count; ++i) {
      file.tags.push_back(ReadAt<std::uint32_t>(bytes, EntryAt(i) + kTagAt));
      file.sections.push_back(bytes.substr(
          ReadAt<std::uint64_t>(bytes, EntryAt(i) + kOffsetAt),
          ReadAt<std::uint64_t>(bytes, EntryAt(i) + kLengthAt)));
    }
    return file;
  }

  std::string Bytes() const {
    const auto align = [](std::size_t at) { return (at + 7) / 8 * 8; };
    std::string bytes(align(EntryAt(sections.size())), '\0');
    bytes.replace(0, 4, "KDSH");
    WriteAt(&bytes, 4, version);
    WriteAt(&bytes, 8, static_cast<std::uint32_t>(sections.size()));
    for (std::size_t i = 0; i < sections.size(); ++i) {
      bytes.resize(align(bytes.size()), '\0');
      const std::size_t entry = EntryAt(i);
      WriteAt(&bytes, entry + kTagAt, tags[i]);
      WriteAt(&bytes, entry + kCrcAt,
              Crc32c(sections[i].data(), sections[i].size()));
      WriteAt(&bytes, entry + kOffsetAt,
              static_cast<std::uint64_t>(bytes.size()));
      WriteAt(&bytes, entry + kLengthAt,
              static_cast<std::uint64_t>(sections[i].size()));
      bytes += sections[i];
    }
    return bytes;
  }
};

// A saved file minus what differs between two builds of one graph: the
// stats section (wall-clock timings) is zeroed and its CRC re-stamped.
inline std::string WithoutStats(const std::string& bytes) {
  File file = File::Parse(bytes);
  std::string& stats = file.sections[kStats];
  stats.assign(stats.size(), '\0');
  return file.Bytes();
}

}  // namespace v3

}  // namespace kdash::test

#endif  // KDASH_TESTS_INDEX_FILE_UTIL_H_
