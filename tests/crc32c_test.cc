#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace kdash {
namespace {

TEST(Crc32cTest, KnownAnswers) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // RFC 3720 (iSCSI), appendix B.4.
  const std::vector<unsigned char> zeros(32, 0x00);
  const std::vector<unsigned char> ones(32, 0xff);
  std::vector<unsigned char> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendConcatenates) {
  Rng rng(5);
  std::vector<unsigned char> bytes(300);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.NextBounded(256));
  }
  // Every start (alignment) and length of a window, and every cut of it.
  for (std::size_t begin = 0; begin < 9; ++begin) {
    for (std::size_t size = 0; size + begin <= bytes.size(); size += 7) {
      const unsigned char* data = bytes.data() + begin;
      const std::uint32_t whole = Crc32c(data, size);
      for (std::size_t cut = 0; cut <= size; cut += 5) {
        EXPECT_EQ(Crc32cExtend(Crc32c(data, cut), data + cut, size - cut),
                  whole)
            << begin << "+" << size << " cut " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace kdash
