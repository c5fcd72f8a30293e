#include "reap/common/crc32c.hpp"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define REAP_CRC32C_SSE42 1
#endif

namespace reap::common {
namespace {

// Both kernels work on the raw CRC register: crc32c() pre- and
// post-inverts it once, around whichever kernel extends it over the data.

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

const Tables& slicing_tables() {
  static const Tables t = make_tables();
  return t;
}

// Little-endian 32-bit load from bytes: the same value on any host (the
// compiler folds it into one load where the host is little-endian).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t extend_portable(std::uint32_t crc, const unsigned char* p,
                              std::size_t n) {
  const Tables& t = slicing_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc;
}

#ifdef REAP_CRC32C_SSE42

// Three-stream SSE4.2 kernel (the scheme of Mark Adler's crc32c.c). One
// `crc32` instruction has a latency of three cycles but a throughput of
// one per cycle, so three independent streams over adjacent blocks keep
// it busy. The streams are joined by linearity: the register of A‖B is
// the register of A advanced over |B| zero bytes, xor B's register from
// zero. ZeroShift is that "append N zero bytes" operator, tabulated per
// register byte.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

struct ZeroShift {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  explicit ZeroShift(std::size_t zeros) : t{} {
    // The operator is linear, so it is fixed by where it sends the 32
    // single-bit registers; each entry xors the images of its bits.
    const Tables& s = slicing_tables();
    std::array<std::uint32_t, 32> image{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
      std::uint32_t c = 1u << bit;
      std::size_t n = zeros;
      for (; n >= 8; n -= 8)  // slicing-by-8 over an all-zero word
        c = s[7][c & 0xFF] ^ s[6][(c >> 8) & 0xFF] ^
            s[5][(c >> 16) & 0xFF] ^ s[4][c >> 24];
      for (; n > 0; --n) c = s[0][c & 0xFF] ^ (c >> 8);
      image[bit] = c;
    }
    for (std::size_t k = 0; k < 4; ++k)
      for (std::size_t i = 1; i < 256; ++i)
        t[k][i] = t[k][i & (i - 1)] ^
                  image[8 * k + static_cast<std::size_t>(__builtin_ctz(
                                    static_cast<unsigned>(i)))];
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

struct Sse42Shifts {
  ZeroShift long_block{kLongBlock};
  ZeroShift short_block{kShortBlock};
};

const Sse42Shifts& sse42_shifts() {
  static const Sse42Shifts s;
  return s;
}

inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Runs three streams over `block`-byte thirds of each 3 × block chunk.
__attribute__((target("sse4.2"))) inline std::uint32_t extend_three_streams(
    std::uint32_t crc, const unsigned char*& p, std::size_t& n,
    std::size_t block, const ZeroShift& shift) {
  for (; n >= 3 * block; p += 3 * block, n -= 3 * block) {
    std::uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (std::size_t i = 0; i < block; i += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(p + i));
      c1 = _mm_crc32_u64(c1, load_u64(p + block + i));
      c2 = _mm_crc32_u64(c2, load_u64(p + 2 * block + i));
    }
    crc = shift(static_cast<std::uint32_t>(c0)) ^
          static_cast<std::uint32_t>(c1);
    crc = shift(crc) ^ static_cast<std::uint32_t>(c2);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t extend_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  const Sse42Shifts& shifts = sse42_shifts();
  // Byte steps up to an 8-byte boundary, so no word load splits a line.
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0; ++p, --n)
    crc = _mm_crc32_u8(crc, *p);
  crc = extend_three_streams(crc, p, n, kLongBlock, shifts.long_block);
  crc = extend_three_streams(crc, p, n, kShortBlock, shifts.short_block);
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, load_u64(p));
  crc = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

#endif  // REAP_CRC32C_SSE42

using Kernel = std::uint32_t (*)(std::uint32_t, const unsigned char*,
                                 std::size_t);

struct Dispatch {
  Kernel kernel;
  const char* name;
};

// Chosen once per process: the hardware kernel wherever the CPU has it,
// whatever flags the binary was built with.
const Dispatch& dispatch() {
  static const Dispatch d = [] {
#ifdef REAP_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
      return Dispatch{extend_sse42, "sse4.2"};
#endif
    return Dispatch{extend_portable, "portable"};
  }();
  return d;
}

std::uint32_t checksum(Kernel kernel, std::string_view data) {
  return kernel(0xFFFFFFFFu,
                reinterpret_cast<const unsigned char*>(data.data()),
                data.size()) ^
         0xFFFFFFFFu;
}

}  // namespace

std::uint32_t crc32c(std::string_view data) {
  return checksum(dispatch().kernel, data);
}

namespace detail {

std::uint32_t crc32c_portable(std::string_view data) {
  return checksum(extend_portable, data);
}

const char* crc32c_kernel_name() { return dispatch().name; }

}  // namespace detail

std::string fmt_hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

bool parse_hex32(const std::string& s, std::uint32_t& out) {
  // Exactly 8 hex digits: strtoul alone would also take "0x…", spaces,
  // or a sign, none of which a well-formed CRC suffix can contain.
  if (s.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9') v |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      v |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else if (ch >= 'A' && ch <= 'F')
      v |= static_cast<std::uint32_t>(ch - 'A' + 10);
    else
      return false;
  }
  out = v;
  return true;
}

}  // namespace reap::common
