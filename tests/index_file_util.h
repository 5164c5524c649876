// Byte-level helpers for tests of the index file format (see the layout
// comment at the top of src/core/index_io.cc): a v3 file taken apart into
// sections.
#ifndef KDASH_TESTS_INDEX_FILE_UTIL_H_
#define KDASH_TESTS_INDEX_FILE_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"

namespace kdash::test {

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
