// .reaptrace store files: a written file must round-trip exactly (header,
// metadata, and body), an mmapped file must replay byte-identically to the
// arena it was written from, and — the centerpiece — a corrupted file must
// be *rejected at open* with a distinct reason for every failure mode. The
// battery below damages files the way disks and tools actually damage
// them (truncation, appended garbage, bit flips) and asserts that no
// single-bit flip anywhere in a file survives validation: every byte is
// covered by the header CRC, the body CRC, or is a stored CRC itself.
#include "reap/trace/trace_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <vector>

#include "reap/common/crc32c.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/workload.hpp"

namespace reap::trace {
namespace {

WorkloadProfile profile(const char* name = "mcf") {
  auto p = *spec2006_profile(name);
  p.seed = 0x5EED;
  return p;
}

std::vector<std::uint64_t> sample_packed(std::size_t n = 64) {
  std::vector<std::uint64_t> ops;
  for (std::size_t i = 0; i < n; ++i)
    ops.push_back(MaterializedTrace::pack(
        {i % 3 == 0 ? OpType::inst_fetch : OpType::load, 0x1000 + i * 64}));
  return ops;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Writes a valid store file and returns its raw bytes, ready to damage.
std::string valid_file_bytes(const std::string& path) {
  const auto ops = sample_packed();
  std::string error;
  EXPECT_TRUE(write_trace_file(path, ops, 20, "mcf/rr-/s0",
                               {{"note", "battery"}}, &error))
      << error;
  return slurp(path);
}

// Builds a raw file by hand with *correct* CRCs around an arbitrary
// metadata block — the only way to reach the validation rungs behind the
// header CRC (misaligned body, malformed metadata, missing trace_key).
std::string craft(std::string meta_block,
                  const std::vector<std::uint64_t>& ops) {
  std::string body(reinterpret_cast<const char*>(ops.data()),
                   ops.size() * sizeof(std::uint64_t));
  std::string h;
  h.append("REAPTRC\0", 8);
  const auto put32 = [&h](std::uint32_t v) {
    h.append(reinterpret_cast<const char*>(&v), 4);
  };
  const auto put64 = [&h](std::uint64_t v) {
    h.append(reinterpret_cast<const char*>(&v), 8);
  };
  put32(kTraceStoreVersion);
  put32(static_cast<std::uint32_t>(meta_block.size()));
  put64(ops.size());
  put64(20);
  put32(common::crc32c(body));
  h += meta_block;
  put32(common::crc32c(h));
  return h + body;
}

std::string open_error(const std::string& path) {
  std::string error;
  EXPECT_EQ(MappedTraceFile::open(path, &error), nullptr) << path;
  return error;
}

TEST(TraceStore, RoundTripsHeaderMetadataAndBody) {
  const auto path = temp_path("roundtrip.reaptrace");
  const auto ops = sample_packed(100);
  std::string error;
  ASSERT_TRUE(write_trace_file(path, ops, 33, "mcf/rr-/s0",
                               {{"campaign", "unit"}, {"budget", "33"}},
                               &error))
      << error;

  const auto mapped = MappedTraceFile::open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_EQ(mapped->info().version, kTraceStoreVersion);
  EXPECT_EQ(mapped->info().op_count, ops.size());
  EXPECT_EQ(mapped->info().instructions, 33u);
  EXPECT_EQ(mapped->info().trace_key, "mcf/rr-/s0");
  EXPECT_EQ(mapped->info().meta.at("campaign"), "unit");
  EXPECT_EQ(mapped->info().meta.at("budget"), "33");
  ASSERT_EQ(mapped->body().size(), ops.size());
  EXPECT_EQ(std::memcmp(mapped->body().data(), ops.data(),
                        ops.size() * sizeof(std::uint64_t)),
            0);
  std::remove(path.c_str());
}

TEST(TraceStore, BodyIsEightByteAlignedInTheMapping) {
  const auto path = temp_path("aligned.reaptrace");
  std::string error;
  ASSERT_TRUE(write_trace_file(path, sample_packed(), 20, "k",
                               {{"x", "a longer value to vary the block"}},
                               &error));
  const auto mapped = MappedTraceFile::open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->body().data()) % 8, 0u);
  std::remove(path.c_str());
}

TEST(TraceStore, FileReplayIsByteIdenticalToArenaReplay) {
  // The chain generator -> materialize -> file -> mmap must serve the
  // exact op stream of generator -> materialize -> ReplayTraceSource:
  // this is the property that makes --trace-dir output byte-identical.
  WorkloadTraceSource gen(profile());
  const auto trace = MaterializedTrace::materialize(gen, 5'000);
  const auto path = temp_path("replay.reaptrace");
  std::string error;
  ASSERT_TRUE(write_trace_file(path, trace, "mcf/rr-/s0", {}, &error))
      << error;

  const auto mapped = MappedTraceFile::open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_EQ(mapped->info().instructions, trace.instructions());
  ReplayTraceSource ref(trace);
  FileTraceSource file_src(mapped);
  MemOp a, b;
  std::size_t n = 0;
  while (ref.next(a)) {
    ASSERT_TRUE(file_src.next(b)) << "op " << n;
    ASSERT_EQ(a.addr, b.addr) << "op " << n;
    ASSERT_EQ(a.type, b.type) << "op " << n;
    ++n;
  }
  EXPECT_FALSE(file_src.next(b));
  // Batch pulls and reset behave like ReplayTraceSource too.
  file_src.reset();
  MemOp buf[777];
  std::size_t total = 0;
  for (;;) {
    const auto got = file_src.next_batch({buf, 777});
    if (got == 0) break;
    total += got;
  }
  EXPECT_EQ(total, trace.size());
  std::remove(path.c_str());
}

TEST(TraceStore, BorrowedTraceAccountsZeroBytesAndSharesTheMapping) {
  const auto path = temp_path("borrow.reaptrace");
  const auto ops = sample_packed();
  std::string error;
  ASSERT_TRUE(write_trace_file(path, ops, 20, "k", {}, &error));

  auto mapped = MappedTraceFile::open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  MaterializedTrace borrowed = mapped->borrow(mapped);
  EXPECT_EQ(borrowed.bytes(), 0u);  // a byte-capped cache retains it free
  EXPECT_EQ(borrowed.size(), ops.size());
  EXPECT_EQ(borrowed.instructions(), 20u);

  // The borrow (and copies of it) keep the mapping alive after the last
  // explicit handle is dropped; the file can even be unlinked.
  MaterializedTrace copy = borrowed;
  mapped.reset();
  std::remove(path.c_str());
  ReplayTraceSource replay(copy);
  MemOp op;
  std::size_t n = 0;
  while (replay.next(op)) {
    EXPECT_EQ(MaterializedTrace::pack(op), ops[n]);
    ++n;
  }
  EXPECT_EQ(n, ops.size());
}

TEST(TraceStore, FilenameEncodesAxisSeparators) {
  EXPECT_EQ(trace_store_filename("mcf/rr-/s0"), "mcf_rr-_s0.reaptrace");
  EXPECT_EQ(trace_store_filename("gcc/rr0.8/s12"), "gcc_rr0.8_s12.reaptrace");
}

TEST(TraceStore, WriterRejectsEmptyKeyAndNewlineMetadata) {
  const auto path = temp_path("reject.reaptrace");
  std::string error;
  EXPECT_FALSE(write_trace_file(path, sample_packed(), 20, "", {}, &error));
  EXPECT_NE(error.find("empty trace_key"), std::string::npos);
  EXPECT_FALSE(write_trace_file(path, sample_packed(), 20, "k",
                                {{"bad", "a\nb"}}, &error));
  EXPECT_FALSE(write_trace_file(path, sample_packed(), 20, "k",
                                {{"a=b", "v"}}, &error));
}

// ---- The corruption battery -------------------------------------------
// One test per failure mode, each pinned to its distinct error string, so
// a regression that collapses two modes into one message is caught.

TEST(TraceStoreCorruption, MissingFile) {
  EXPECT_NE(open_error(temp_path("nonexistent.reaptrace")).find("cannot open"),
            std::string::npos);
}

TEST(TraceStoreCorruption, EmptyFile) {
  const auto path = temp_path("empty.reaptrace");
  spit(path, "");
  EXPECT_NE(open_error(path).find("empty file"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, TruncatedHeader) {
  const auto path = temp_path("shorthdr.reaptrace");
  const auto good = valid_file_bytes(path);
  // Every prefix shorter than the fixed header must be refused; with 8+
  // magic bytes intact the reason is the truncation, not the magic.
  for (const std::size_t keep : {std::size_t{1}, std::size_t{8},
                                 std::size_t{20}, std::size_t{39}}) {
    spit(path, good.substr(0, keep));
    const auto err = open_error(path);
    if (keep >= 8) {
      EXPECT_NE(err.find("truncated header"), std::string::npos) << keep;
    }
    EXPECT_EQ(err.find("CRC"), std::string::npos) << keep;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, BadMagic) {
  const auto path = temp_path("badmagic.reaptrace");
  auto bytes = valid_file_bytes(path);
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_NE(open_error(path).find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, UnsupportedVersion) {
  const auto path = temp_path("badver.reaptrace");
  auto bytes = valid_file_bytes(path);
  bytes[8] = 99;  // version field; the header CRC must be refreshed to
                  // prove the version check fires on an *intact* header
  const std::uint32_t meta_bytes =
      static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[12])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[13])) << 8);
  const std::uint32_t crc =
      common::crc32c({bytes.data(), std::size_t{36} + meta_bytes});
  std::memcpy(bytes.data() + 36 + meta_bytes, &crc, 4);
  spit(path, bytes);
  EXPECT_NE(open_error(path).find("unsupported version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, HeaderBitFlipCaughtByHeaderCrc) {
  const auto path = temp_path("hdrflip.reaptrace");
  const auto good = valid_file_bytes(path);
  // Flip one bit in each mutable header field: meta_bytes, op_count,
  // instructions, stored body CRC, and the metadata text itself.
  for (const std::size_t at : {std::size_t{12}, std::size_t{16},
                               std::size_t{24}, std::size_t{32},
                               std::size_t{40}}) {
    auto bytes = good;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
    spit(path, bytes);
    const auto err = open_error(path);
    EXPECT_FALSE(err.empty()) << "offset " << at;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, BodyBitFlipCaughtByBodyCrc) {
  const auto path = temp_path("bodyflip.reaptrace");
  auto bytes = valid_file_bytes(path);
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x01);
  spit(path, bytes);
  EXPECT_NE(open_error(path).find("body CRC mismatch"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, TruncatedBody) {
  const auto path = temp_path("shortbody.reaptrace");
  const auto good = valid_file_bytes(path);
  spit(path, good.substr(0, good.size() - 8));
  EXPECT_NE(open_error(path).find("truncated body"), std::string::npos);
  // A ragged (non-multiple-of-8) truncation is the same failure.
  spit(path, good.substr(0, good.size() - 3));
  EXPECT_NE(open_error(path).find("truncated body"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, TrailingGarbage) {
  const auto path = temp_path("tail.reaptrace");
  const auto good = valid_file_bytes(path);
  spit(path, good + std::string(16, '\0'));
  EXPECT_NE(open_error(path).find("op count/file size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, MisalignedBody) {
  const auto path = temp_path("misaligned.reaptrace");
  // Hand-crafted with correct CRCs and an unpadded metadata block: the
  // header is internally consistent, but the body would start misaligned.
  spit(path, craft("trace_key = k\n", sample_packed()));
  EXPECT_NE(open_error(path).find("misaligned body"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, MalformedMetadata) {
  const auto path = temp_path("badmeta.reaptrace");
  // 24 bytes -> 8-aligned header, valid CRCs, but a line with no '='.
  spit(path, craft("trace_key = k\nnonsense!\n", sample_packed()));
  EXPECT_NE(open_error(path).find("malformed metadata"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, MissingTraceKey) {
  const auto path = temp_path("nokey.reaptrace");
  // 32 bytes of well-formed lines, none of them trace_key.
  spit(path, craft("aa = bb\ncc = dd\nee = ff\ngg = hh\n", sample_packed()));
  EXPECT_NE(open_error(path).find("missing trace_key"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, EverySingleBitFlipIsRejected) {
  // Fuzz rung: CRCs cover every byte of the file (header fields and
  // metadata by the header CRC, ops by the body CRC, and a flip inside a
  // stored CRC mismatches by construction), so *no* single-bit flip may
  // open successfully. Randomized but deterministic.
  const auto path = temp_path("fuzz.reaptrace");
  const auto good = valid_file_bytes(path);
  std::mt19937_64 rng(0xF1195EED);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t byte_at = rng() % good.size();
    const int bit = static_cast<int>(rng() % 8);
    auto bytes = good;
    bytes[byte_at] = static_cast<char>(bytes[byte_at] ^ (1 << bit));
    spit(path, bytes);
    std::string error;
    EXPECT_EQ(MappedTraceFile::open(path, &error), nullptr)
        << "flip survived at byte " << byte_at << " bit " << bit;
    EXPECT_FALSE(error.empty());
  }
  // Control: the undamaged bytes still open.
  spit(path, good);
  std::string error;
  EXPECT_NE(MappedTraceFile::open(path, &error), nullptr) << error;
  std::remove(path.c_str());
}

TEST(TraceStoreCorruption, BitFlipsInEveryThirdOfALargeBodyAreRejected) {
  // The battery above uses a 512-byte body, which the hardware CRC kernel
  // checksums in one stream. A body of 10,000 ops (80,000 bytes) runs
  // every stage — three 3 x 8192-byte chunks, eight 3 x 256-byte chunks,
  // then 8-byte words — so a flip in any third of it must still surface
  // as a body CRC mismatch.
  const auto path = temp_path("largeflip.reaptrace");
  const auto ops = sample_packed(10'000);
  std::string error;
  ASSERT_TRUE(write_trace_file(path, ops, 20, "mcf/rr-/s0", {}, &error))
      << error;
  const auto good = slurp(path);
  const std::size_t body_bytes = ops.size() * sizeof(std::uint64_t);
  ASSERT_GE(body_bytes, std::size_t{64} << 10);
  const std::size_t body_at = good.size() - body_bytes;
  const std::size_t third = body_bytes / 3;
  std::mt19937_64 rng(0x7A12D5EE);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t part = static_cast<std::size_t>(trial % 3);
    const std::size_t byte_at = body_at + part * third + rng() % third;
    const int bit = static_cast<int>(rng() % 8);
    auto bytes = good;
    bytes[byte_at] = static_cast<char>(bytes[byte_at] ^ (1 << bit));
    spit(path, bytes);
    EXPECT_NE(open_error(path).find("body CRC mismatch"), std::string::npos)
        << "flip at body byte " << byte_at - body_at << " bit " << bit;
  }
  spit(path, good);
  EXPECT_NE(MappedTraceFile::open(path, &error), nullptr) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reap::trace
