// Portable vector kernels for the policy hot loop.
//
// The simulated-L2 metadata scans are the hot path's residual cost (see
// docs/performance.md "Vectorized hot loop"): every lookup scans a set's
// (tag << 1 | valid) column, and every read lookup walks the same set's
// slice of each observer's reads_since_check column. Both are flat arrays
// shaped for wide scans, so
// this header provides the wide scans:
//
//   find_way           vector tag-column scan (whole set per compare)
//   victim_min         vector first-minimum scan (the LRU victim pick)
//   accumulate_valid   vector reads_since_check += valid_bit over a set
//   predecode          batch address -> (set, tagv) pre-pass
//   prefetch           software prefetch of the next op's set columns
//   AlignedVec         64 B-aligned column storage
//   padded_ways        per-set column stride (vector-safe, line-aware)
//
// Implementation is GCC/Clang vector extensions -- no intrinsics, no ISA
// dispatch; the compiler lowers the 256-bit ops to whatever the target
// has. The scalar forms (find_way_scalar, accumulate_valid_scalar) are
// always compiled: they are the reference the fuzz test compares against
// and the fallback when REAP_SIMD is off or the platform is unsuitable
// (non-little-endian, other compilers). Every kernel is value-identical
// to its scalar form -- same result, same memory effects -- so a scalar
// build is byte-identical to a vector build (architecture invariant 7,
// pinned by tests/sim/test_simd.cpp and the CI scalar-fallback leg).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "reap/common/assert.hpp"
#include "reap/trace/record.hpp"

// REAP_SIMD is defined (=1) by CMake's -DREAP_SIMD=ON (the default) on
// GCC/Clang. The vector path is additionally limited to little-endian
// targets, the only ones it is built and tested on.
#if defined(REAP_SIMD) && defined(__GNUC__) && \
    (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
#define REAP_SIMD_VECTOR 1
#else
#define REAP_SIMD_VECTOR 0
#endif

namespace reap::sim::simd {

inline constexpr bool kEnabled = REAP_SIMD_VECTOR != 0;

// Host cache line the metadata layout targets.
inline constexpr std::size_t kLineBytes = 64;

// u64 lanes per vector op (256-bit).
inline constexpr std::size_t kLanes = 4;

// Per-set column stride in entries. Rounding the stride up to a multiple
// of the vector width makes every whole-set scan safe to run in full
// vectors (padding entries are zero, which never matches a valid key --
// those are odd); keeping 8-byte entries at a 64 B-aligned base means an
// 8-way set's tag column is exactly one host line, and a 4-way set's 32 B
// column (or an 8-way set's 4-byte ones / reads_since_check slice) never
// straddles two. The padding is
// applied in scalar builds too, so the layout -- and thus every observable
// result -- is structurally identical across REAP_SIMD settings.
inline constexpr std::size_t padded_ways(std::size_t ways) {
  return (ways + kLanes - 1) & ~(kLanes - 1);
}

// 64 B-aligned, zero-initialized storage for the hot columns. Only what
// the cache needs: construct-with-size, data/index access. Zero bytes are
// the columns' reset state (invalid tagv, zero ones / reads_since_check).
template <class T>
class AlignedVec {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  AlignedVec() = default;
  explicit AlignedVec(std::size_t n) : size_(n) {
    // std::aligned_alloc requires the size to be a multiple of the
    // alignment; round up (the tail is never addressed through T).
    const std::size_t bytes =
        (n * sizeof(T) + kLineBytes - 1) & ~(kLineBytes - 1);
    ptr_.reset(static_cast<T*>(std::aligned_alloc(kLineBytes, bytes)));
    REAP_EXPECTS(ptr_ != nullptr);
    std::memset(static_cast<void*>(ptr_.get()), 0, bytes);
  }

  T* data() { return ptr_.get(); }
  const T* data() const { return ptr_.get(); }
  T& operator[](std::size_t i) { return ptr_.get()[i]; }
  const T& operator[](std::size_t i) const { return ptr_.get()[i]; }
  std::size_t size() const { return size_; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> ptr_;
  std::size_t size_ = 0;
};

// Software prefetch (read intent). A hint, never a semantic effect.
inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// --- find_way -------------------------------------------------------------
//
// First index w in [0, ways) with tagv[w] == key, else -1. `key` must be a
// valid lookup key, i.e. odd ((tag << 1) | 1): padding and invalid entries
// are zero and therefore can never match.

inline int find_way_scalar(const std::uint64_t* tagv, std::size_t ways,
                           std::uint64_t key) {
  for (std::size_t w = 0; w < ways; ++w) {
    if (tagv[w] == key) return static_cast<int>(w);
  }
  return -1;
}

#if REAP_SIMD_VECTOR

namespace detail {

typedef std::uint64_t v4u64 __attribute__((vector_size(32)));

inline v4u64 load4(const std::uint64_t* p) {
  v4u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store4(std::uint64_t* p, v4u64 v) { std::memcpy(p, &v, sizeof(v)); }

// 4-bit match mask of v == key (bit i set when lane i matches).
inline unsigned match_mask(v4u64 v, v4u64 key) {
  const v4u64 eq = v == key;  // lanes are all-ones / all-zeros
#if defined(__AVX2__)
  // One movemask of the lane sign bits; the generic lane-extract form
  // below compiles to four extracts, which costs more than the whole
  // compare.
  return static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_castsi256_pd((__m256i)eq)));
#else
  return static_cast<unsigned>((eq[0] & 1) | (eq[1] & 2) | (eq[2] & 4) |
                               (eq[3] & 8));
#endif
}

}  // namespace detail

// Vector scan over the padded column: the caller guarantees tagv is
// readable (and zero) up to padded_ways(ways) entries. First-match
// semantics are preserved exactly -- the mask is scanned low lane first.
inline int find_way(const std::uint64_t* tagv, std::size_t ways,
                    std::uint64_t key) {
  // No contract check here: this is the per-access hot path (assert.hpp's
  // convention). Key oddness is by construction (tagv_of) and pinned by
  // the fuzz test.
  const detail::v4u64 splat = {key, key, key, key};
  const std::size_t lanes = padded_ways(ways);
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const unsigned mask = detail::match_mask(detail::load4(tagv + base), splat);
    if (mask != 0)
      return static_cast<int>(base) + __builtin_ctz(mask);
  }
  return -1;
}

#else  // !REAP_SIMD_VECTOR

inline int find_way(const std::uint64_t* tagv, std::size_t ways,
                    std::uint64_t key) {
  return find_way_scalar(tagv, ways, key);
}

#endif  // REAP_SIMD_VECTOR

// --- victim_min -----------------------------------------------------------
//
// Index of the first minimum in a set's lru-stamp column: the LRU victim
// pick, which runs on every fill (the dominant sim operation on
// low-locality workloads). Invalid ways hold stamp 0 and valid stamps are
// >= 1, so the first invalid way wins naturally; padding lanes hold
// kLruPad, which never wins (stamps are clock values, nowhere near 2^63).
// Stamps staying below 2^63 also means the lanes order correctly under
// signed compares -- the only 64-bit lane compare AVX2 has.

inline constexpr std::uint64_t kLruPad = ~std::uint64_t{0} >> 1;  // INT64_MAX

inline std::size_t victim_min_scalar(const std::uint64_t* stamps,
                                     std::size_t ways) {
  std::size_t v = 0;
  for (std::size_t w = 1; w < ways; ++w) {
    if (stamps[w] < stamps[v]) v = w;
  }
  return v;
}

#if REAP_SIMD_VECTOR

namespace detail {

typedef std::int64_t v4i64 __attribute__((vector_size(32)));

inline v4i64 load4s(const std::uint64_t* p) {
  v4i64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Lanewise signed min via compare + blend (AVX2 has no 64-bit lane min).
inline v4i64 lanemin(v4i64 a, v4i64 b) {
  const v4i64 take = b < a;  // all-ones where b is smaller
  return (b & take) | (a & ~take);
}

}  // namespace detail

// Vector form over the padded column: lanewise min across the set, a
// register-resident horizontal min (two shuffle+min steps broadcast the
// minimum to every lane), then a first-match scan for its index. The
// strict-< scalar scan keeps the first occurrence of the minimum value,
// and so does the first-match scan -- same victim, exactly.
inline std::size_t victim_min(const std::uint64_t* stamps, std::size_t ways) {
  const std::size_t lanes = padded_ways(ways);
  detail::v4i64 acc = detail::load4s(stamps);
  for (std::size_t base = kLanes; base < lanes; base += kLanes) {
    acc = detail::lanemin(acc, detail::load4s(stamps + base));
  }
  detail::v4i64 m =
      detail::lanemin(acc, __builtin_shufflevector(acc, acc, 2, 3, 0, 1));
  m = detail::lanemin(m, __builtin_shufflevector(m, m, 1, 0, 3, 2));
  const detail::v4u64 splat = (detail::v4u64)m;
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const unsigned mask =
        detail::match_mask(detail::load4(stamps + base), splat);
    if (mask != 0) return base + __builtin_ctz(mask);
  }
  return 0;  // unreachable: the minimum was read from the column
}

#else  // !REAP_SIMD_VECTOR

inline std::size_t victim_min(const std::uint64_t* stamps, std::size_t ways) {
  return victim_min_scalar(stamps, ways);
}

#endif  // REAP_SIMD_VECTOR

// --- accumulate_valid -----------------------------------------------------
//
// The policy accumulation loop: for each way, reads[w] += valid_bit, over
// one set's slice of an observer's uint32 reads_since_check column. The
// increment wraps exactly like the scalar uint32 add.

inline void accumulate_valid_scalar(const std::uint64_t* tagv,
                                    std::uint32_t* reads, std::size_t ways) {
  for (std::size_t w = 0; w < ways; ++w)
    reads[w] += static_cast<std::uint32_t>(tagv[w] & 1);
}

#if REAP_SIMD_VECTOR

namespace detail {

typedef std::uint32_t v4u32 __attribute__((vector_size(16)));

}  // namespace detail

// Vector form over the padded columns (caller guarantees both columns are
// valid up to padded_ways(ways) entries). Four tag lanes narrow to four
// uint32 increments per step; padding lanes have tagv 0, so their
// increment is zero and writing them back is a no-op by value.
inline void accumulate_valid(const std::uint64_t* tagv, std::uint32_t* reads,
                             std::size_t ways) {
  const std::size_t lanes = padded_ways(ways);
  const detail::v4u64 one = {1, 1, 1, 1};
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const detail::v4u32 valid = __builtin_convertvector(
        detail::load4(tagv + base) & one, detail::v4u32);
    detail::v4u32 r;
    std::memcpy(&r, reads + base, sizeof(r));
    r += valid;
    std::memcpy(reads + base, &r, sizeof(r));
  }
}

#else  // !REAP_SIMD_VECTOR

inline void accumulate_valid(const std::uint64_t* tagv, std::uint32_t* reads,
                             std::size_t ways) {
  accumulate_valid_scalar(tagv, reads, ways);
}

#endif  // REAP_SIMD_VECTOR

// --- predecode ------------------------------------------------------------
//
// Batch address pre-decode: set index and lookup key for each op of a
// batch against one cache geometry (the L2's). Pure shifts and masks with
// no data-dependent branches -- the loop pipelines/vectorizes freely --
// and the outputs are exactly set_of(addr) / tagv_of(addr), just hoisted
// out of the per-access path so the hot loop can indirect through them
// and prefetch ahead.

struct DecodedAddr {
  std::uint32_t set = 0;
  std::uint64_t tagv = 0;
};

inline void predecode(const trace::MemOp* ops, std::size_t n,
                      unsigned offset_bits, unsigned index_bits,
                      std::uint32_t* set_out, std::uint64_t* tagv_out) {
  const std::uint64_t set_mask = (std::uint64_t{1} << index_bits) - 1;
  const unsigned tag_shift = offset_bits + index_bits;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t addr = ops[i].addr;
    set_out[i] = static_cast<std::uint32_t>((addr >> offset_bits) & set_mask);
    tagv_out[i] = ((addr >> tag_shift) << 1) | 1;
  }
}

}  // namespace reap::sim::simd
