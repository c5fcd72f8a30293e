// CRC32C is part of the journal's and the trace store's on-disk formats:
// these known-answer vectors pin the function to the standard Castagnoli
// variant so a refactor can never silently change the checksum of
// existing files, and the bytewise cross-check holds the hardware kernel
// and the portable one to the same values.
#include "reap/common/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
// the reference both kernels must equal on every length and alignment.
// Returns the running (un-finalized) register.
std::uint32_t crc32c_bytewise_step(std::uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k)
    crc = (crc & 1) ? 0x82F63B78u ^ (crc >> 1) : crc >> 1;
  return crc;
}

// crc32c() runs whichever kernel this CPU selected; the portable
// slicing-by-8 kernel is checked on its own so both stay pinned wherever
// the suite runs.
struct Kernel {
  const char* name;
  std::uint32_t (*fn)(std::string_view);
};
const Kernel kKernels[] = {{"dispatched", crc32c},
                           {"portable", detail::crc32c_portable}};

// The lengths at which the hardware kernel changes path: three 256-byte
// streams, three 8192-byte streams, both in turn, two long chunks, and a
// 1 MiB buffer that runs every stage.
constexpr std::size_t kBlockEdges[] = {3 * 256,
                                       3 * 8192,
                                       3 * 8192 + 7,
                                       3 * 8192 + 3 * 256,
                                       2 * 3 * 8192,
                                       1 << 20};

bool checked_length(std::size_t len) {
  if (len <= 4096) return true;
  for (const std::size_t edge : kBlockEdges)
    if (len + 8 >= edge && len <= edge + 8) return true;
  return false;
}

TEST(Crc32c, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..4096 and every length within 8 bytes of a block edge, from
  // start offsets 0..7: every tail length of the eight-byte stride and of
  // each three-stream block, at every alignment of the first byte.
  constexpr std::size_t kMaxLen = (1 << 20) + 8;
  std::string buf(kMaxLen + 8, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& ch : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ch = static_cast<char>(x);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    std::uint32_t reg = 0xFFFFFFFFu;  // reference over buf[off, off + len)
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0)
        reg = crc32c_bytewise_step(
            reg, static_cast<unsigned char>(buf[off + len - 1]));
      if (!checked_length(len)) continue;
      for (const Kernel& k : kKernels)
        ASSERT_EQ(k.fn(std::string_view(buf.data() + off, len)),
                  reg ^ 0xFFFFFFFFu)
            << k.name << " kernel, offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32c, PortableKernelPassesTheKnownAnswerVectors) {
  EXPECT_EQ(detail::crc32c_portable("123456789"), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_portable(""), 0x00000000u);
  EXPECT_EQ(detail::crc32c_portable(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(detail::crc32c_portable(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32c, DispatchesToTheHardwareKernelWhereTheCpuHasIt) {
  // A dispatch that silently fell back would pass every value check and
  // only show as a 5x slower store open; pin the choice itself.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  const bool has_sse42 = __builtin_cpu_supports("sse4.2");
#else
  const bool has_sse42 = false;
#endif
  EXPECT_EQ(std::string(detail::crc32c_kernel_name()),
            has_sse42 ? "sse4.2" : "portable");
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
