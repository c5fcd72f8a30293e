// Scalar-vs-vector equivalence for the sim::simd kernels.
//
// Every kernel in sim/simd.hpp ships with an always-compiled scalar
// reference; these tests fuzz the vector forms against them (and against
// the cache's own address arithmetic for predecode) so that architecture
// invariant 7 -- SIMD and scalar builds are byte-identical -- rests on a
// checked kernel contract, not just code review. The same binary runs
// under both REAP_SIMD settings in CI: with the vector path compiled out,
// the comparisons are trivially scalar-vs-scalar and still pin the shared
// layout (padded_ways, AlignedVec) both builds use.

#include "reap/sim/simd.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "reap/sim/cache.hpp"

namespace reap::sim::simd {
namespace {

// Way counts the fuzzers sweep: vector-width multiples, sub-vector sets,
// and unaligned counts that exercise the padding lanes.
const std::size_t kWayCounts[] = {1, 2, 3, 4, 5, 7, 8, 12, 16};

TEST(Simd, PaddedWaysRoundsUpToVectorWidth) {
  EXPECT_EQ(padded_ways(1), 4u);
  EXPECT_EQ(padded_ways(4), 4u);
  EXPECT_EQ(padded_ways(5), 8u);
  EXPECT_EQ(padded_ways(8), 8u);
  EXPECT_EQ(padded_ways(16), 16u);
}

TEST(Simd, AlignedVecIsLineAlignedAndZeroed) {
  AlignedVec<std::uint64_t> v(13);
  ASSERT_NE(v.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kLineBytes, 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], 0u);
}

// Fills a padded tag column: entries past `ways` stay zero, as the cache
// guarantees. `p_hit` controls how often the key is planted.
struct TagColumnFuzzer {
  std::mt19937_64 rng{0x51D5EEDu};

  std::vector<std::uint64_t> make_column(std::size_t ways, std::uint64_t key,
                                         double p_hit) {
    std::vector<std::uint64_t> col(padded_ways(ways), 0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<std::uint64_t> tag(0, 1u << 20);
    for (std::size_t w = 0; w < ways; ++w) {
      const double c = coin(rng);
      if (c < p_hit) {
        col[w] = key;  // planted match (possibly duplicated across ways)
      } else if (c < 0.85) {
        col[w] = (tag(rng) << 1) | 1;  // some other valid tag
      } else {
        col[w] = 0;  // invalid way
      }
    }
    return col;
  }
};

TEST(Simd, FindWayMatchesScalarUnderFuzz) {
  TagColumnFuzzer fz;
  for (std::size_t ways : kWayCounts) {
    for (int iter = 0; iter < 2000; ++iter) {
      const std::uint64_t key =
          ((fz.rng() & ((1u << 20) - 1)) << 1) | 1;  // odd by construction
      // Sweep hit probability so misses, single hits, and duplicate hits
      // (first-match semantics) all occur.
      const double p_hit = (iter % 4) * 0.15;
      const auto col = fz.make_column(ways, key, p_hit);
      EXPECT_EQ(find_way(col.data(), ways, key),
                find_way_scalar(col.data(), ways, key))
          << "ways=" << ways << " iter=" << iter;
    }
  }
}

TEST(Simd, FindWayNeverMatchesPaddingOrInvalid) {
  // A column of only invalid (zero) entries -- including the padding lanes
  // the vector form also scans -- must miss for any valid (odd) key.
  for (std::size_t ways : kWayCounts) {
    std::vector<std::uint64_t> col(padded_ways(ways), 0);
    EXPECT_EQ(find_way(col.data(), ways, 1), -1);
    EXPECT_EQ(find_way(col.data(), ways, (std::uint64_t{7} << 1) | 1), -1);
  }
}

TEST(Simd, FindWayFirstMatchWins) {
  const std::uint64_t key = (std::uint64_t{42} << 1) | 1;
  for (std::size_t ways : kWayCounts) {
    if (ways < 2) continue;
    std::vector<std::uint64_t> col(padded_ways(ways), 0);
    for (std::size_t w = 1; w < ways; ++w) col[w] = key;  // all but way 0
    EXPECT_EQ(find_way(col.data(), ways, key), 1) << "ways=" << ways;
  }
}

TEST(Simd, AccumulateValidMatchesScalarUnderFuzz) {
  TagColumnFuzzer fz;
  std::mt19937_64 rng{0xACC5EEDu};
  for (std::size_t ways : kWayCounts) {
    for (int iter = 0; iter < 500; ++iter) {
      const std::size_t stride = padded_ways(ways);
      const auto col = fz.make_column(ways, (std::uint64_t{9} << 1) | 1, 0.2);
      // Random reads_since_check columns, including counters at the
      // uint32 edge so the wrap behaviour is compared too.
      std::vector<std::uint32_t> a(stride), b(stride);
      for (std::size_t w = 0; w < stride; ++w) {
        a[w] = (iter % 5 == 0) ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng());
        b[w] = a[w];
      }
      accumulate_valid(col.data(), a.data(), ways);
      accumulate_valid_scalar(col.data(), b.data(), ways);
      // The vector form may touch padding lanes but must not change them
      // by value: the whole padded slice compares equal.
      EXPECT_EQ(a, b) << "ways=" << ways << " iter=" << iter;
    }
  }
}

TEST(Simd, PredecodeMatchesCacheAddressArithmetic) {
  // The pre-pass must reproduce set_of/tagv_of for the L2 geometry (and
  // any other power-of-two geometry).
  const CacheConfig cfgs[] = {
      {.name = "L2", .capacity_bytes = 1024 * 1024, .ways = 8,
       .block_bytes = 64},
      {.name = "t", .capacity_bytes = 512, .ways = 2, .block_bytes = 64},
  };
  std::mt19937_64 rng{0xDECDE5EEDu};
  for (const auto& cfg : cfgs) {
    SetAssocCache c(cfg);
    std::vector<trace::MemOp> ops(257);
    for (auto& op : ops)
      op = {trace::OpType::load, rng() & ((std::uint64_t{1} << 48) - 1)};
    std::vector<std::uint32_t> set(ops.size());
    std::vector<std::uint64_t> tagv(ops.size());
    predecode(ops.data(), ops.size(), c.offset_bits(), c.index_bits(),
              set.data(), tagv.data());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(set[i], c.set_of(ops[i].addr));
      EXPECT_EQ(tagv[i], c.tagv_of(ops[i].addr));
    }
  }
}

}  // namespace
}  // namespace reap::sim::simd
