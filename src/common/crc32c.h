// CRC-32C (Castagnoli; reflected polynomial 0x82F63B78), the checksum of
// every section of an index file. Crc32c("123456789") is 0xE3069283.
//
// Crc32cExtend continues a checksum over more bytes, so a checksum over
// several arrays needs no copy into one buffer:
//   Crc32cExtend(Crc32c(a), b) == Crc32c(a followed by b).
// The implementation is portable slice-by-8: eight table lookups per eight
// bytes.
#ifndef KDASH_COMMON_CRC32C_H_
#define KDASH_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace kdash {

[[nodiscard]] std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                                         std::size_t size);

[[nodiscard]] inline std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace kdash

#endif  // KDASH_COMMON_CRC32C_H_
