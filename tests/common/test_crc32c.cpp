// CRC32C is part of the journal's on-disk format: these known-answer
// vectors pin the function to the standard Castagnoli variant so a
// refactor can never silently change the checksum of existing journals.
#include "reap/common/crc32c.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace reap::common {
namespace {

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC check string, plus vectors from RFC 3720 appendix.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalBytesVector) {
  // RFC 3720: bytes 0x00..0x1f.
  std::string data;
  for (int i = 0; i < 32; ++i) data.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c(data), 0x46DD794Eu);
}

TEST(Crc32c, SensitiveToSingleBitFlips) {
  const std::string row = "{\"key\":\"mcf/reap/t1/sc-/rr-/s0\",\"mttf\":1.5}";
  const std::uint32_t clean = crc32c(row);
  for (std::size_t i = 0; i < row.size(); ++i) {
    std::string damaged = row;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    EXPECT_NE(crc32c(damaged), clean) << "bit flip at byte " << i;
  }
}

// The plain bitwise-per-byte form of the same CRC, one byte at a time:
// the reference the sliced implementation must equal on every length and
// alignment. Returns the running (un-finalized) register.
std::uint32_t crc32c_bytewise_step(std::uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k)
    crc = (crc & 1) ? 0x82F63B78u ^ (crc >> 1) : crc >> 1;
  return crc;
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..4096 from start offsets 0..7: every tail length of the
  // eight-byte stride, at every alignment of the first byte.
  std::string buf(4096 + 8, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& ch : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ch = static_cast<char>(x);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    std::uint32_t reg = 0xFFFFFFFFu;  // reference over buf[off, off + len)
    for (std::size_t len = 0; len <= 4096; ++len) {
      if (len > 0)
        reg = crc32c_bytewise_step(
            reg, static_cast<unsigned char>(buf[off + len - 1]));
      ASSERT_EQ(crc32c(std::string_view(buf.data() + off, len)),
                reg ^ 0xFFFFFFFFu)
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32c, HexFormatRoundTrips) {
  EXPECT_EQ(fmt_hex32(0x00000000u), "00000000");
  EXPECT_EQ(fmt_hex32(0xE3069283u), "e3069283");
  EXPECT_EQ(fmt_hex32(0xFFFFFFFFu), "ffffffff");
  for (std::uint32_t v : {0x0u, 0x1u, 0xE3069283u, 0xFFFFFFFFu}) {
    std::uint32_t parsed = 0;
    ASSERT_TRUE(parse_hex32(fmt_hex32(v), parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(Crc32c, ParseHexRejectsAnythingButEightHexDigits) {
  std::uint32_t out = 0;
  EXPECT_FALSE(parse_hex32("", out));
  EXPECT_FALSE(parse_hex32("e306928", out));    // 7 digits
  EXPECT_FALSE(parse_hex32("e30692831", out));  // 9 digits
  EXPECT_FALSE(parse_hex32("e306928g", out));   // non-hex
  EXPECT_FALSE(parse_hex32(" e3069283", out));
  EXPECT_FALSE(parse_hex32("0xe30692", out));
}

}  // namespace
}  // namespace reap::common
