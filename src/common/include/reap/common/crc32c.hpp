// CRC32C (Castagnoli) checksums for on-disk row integrity.
//
// The execution journal suffixes every row with a CRC so a reader can
// tell a row that was written and later damaged (bit rot, a partial
// overwrite, a buggy editor) from one that is merely torn at the tail,
// and the trace store checksums every multi-megabyte .reaptrace body when
// a campaign opens it. Two kernels compute the one function, chosen once
// per process:
//
// - on x86-64 CPUs with SSE4.2, three interleaved `crc32` instruction
//   streams over 3 × 8192- and 3 × 256-byte blocks, joined by "append N
//   zero bytes" tables (~10 GB/s; built for that target alone, so the
//   binary runs on any x86-64 and needs no build flag);
// - everywhere else, portable slicing-by-8 tables (eight table lookups
//   per eight input bytes, ~1.8 GB/s).
//
// The checksum is part of the on-disk formats and must never change
// value: tests/common/test_crc32c.cpp pins both kernels to known-answer
// vectors and to a bytewise reference at every length and alignment
// across the block edges, and tests/trace/test_trace_store.cpp rejects
// bit flips in every third of a store body large enough to take the
// three-stream path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace reap::common {

// CRC32C of `data` (reflected polynomial 0x82F63B78, init/xorout
// 0xFFFFFFFF): the widely deployed Castagnoli variant (iSCSI, ext4).
std::uint32_t crc32c(std::string_view data);

// Fixed-width lowercase hex, zero-padded to 8 digits; parse_hex32 accepts
// exactly that form.
std::string fmt_hex32(std::uint32_t v);
bool parse_hex32(const std::string& s, std::uint32_t& out);

namespace detail {

// The slicing-by-8 kernel alone, whatever the CPU: the reference the
// dispatched kernel is tested and benchmarked against.
std::uint32_t crc32c_portable(std::string_view data);

// The kernel crc32c() runs on this CPU: "sse4.2" or "portable".
const char* crc32c_kernel_name();

}  // namespace detail

}  // namespace reap::common
