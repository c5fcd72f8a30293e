#include "reap/sim/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace reap::sim {
namespace {

CacheConfig small_cfg() {
  // 4 sets x 2 ways x 64B = 512B.
  return {.name = "t",
          .capacity_bytes = 512,
          .ways = 2,
          .block_bytes = 64,
          .replacement = ReplacementKind::lru};
}

// Builds an address with the given tag and set for a 64B-block, 4-set cache.
std::uint64_t mk_addr(std::uint64_t tag, std::uint64_t set) {
  return (tag << (6 + 2)) | (set << 6);
}

NullHooks none;

TEST(Cache, GeometryChecks) {
  SetAssocCache c(small_cfg());
  EXPECT_EQ(c.config().sets(), 4u);
  EXPECT_EQ(c.set_of(mk_addr(5, 3)), 3u);
  EXPECT_EQ(c.tag_of(mk_addr(5, 3)), 5u);
  EXPECT_EQ(c.line_addr(5, 3), mk_addr(5, 3));
}

TEST(Cache, ColdMissesThenHits) {
  SetAssocCache c(small_cfg());
  const auto a = mk_addr(1, 0);
  EXPECT_FALSE(c.read(a, none));
  c.fill(a, false, none);
  EXPECT_TRUE(c.read(a, none));
  EXPECT_EQ(c.stats().read_lookups, 2u);
  EXPECT_EQ(c.stats().read_hits, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(Cache, OffsetBitsIgnored) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 0), false, none);
  EXPECT_TRUE(c.read(mk_addr(1, 0) + 63, none));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  SetAssocCache c(small_cfg());
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  c.fill(a, false, none);
  c.fill(b, false, none);
  EXPECT_TRUE(c.read(a, none));  // a is now MRU
  const auto ev = c.fill(d, false, none);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, b);  // b was LRU
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, FifoEvictsOldestFill) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::fifo;
  SetAssocCache c(cfg);
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  c.fill(a, false, none);
  c.fill(b, false, none);
  EXPECT_TRUE(c.read(a, none));  // touching does not save a under FIFO
  const auto ev = c.fill(d, false, none);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, a);
}

TEST(Cache, RandomReplacementEvictsSomething) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::random_repl;
  SetAssocCache c(cfg, 99);
  c.fill(mk_addr(1, 0), false, none);
  c.fill(mk_addr(2, 0), false, none);
  const auto ev = c.fill(mk_addr(3, 0), false, none);
  EXPECT_TRUE(ev.any);
  EXPECT_TRUE(ev.addr == mk_addr(1, 0) || ev.addr == mk_addr(2, 0));
}

TEST(Cache, LerEvictsMostAccumulatedLine) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::least_error_rate;
  SetAssocCache c(cfg);
  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  c.fill(a, false, none);
  c.fill(b, false, none);
  // Simulate accumulation via a hooks-free read pattern: directly bump the
  // counter through repeated reads is not possible without hooks, so use
  // the public surface: reads touch LRU only. Force distinct accumulation
  // through a policy-style mutation is internal; instead verify the LRU
  // tie-break first (equal counters -> LRU victim).
  EXPECT_TRUE(c.read(a, none));  // a becomes MRU; counters equal (0)
  const auto ev = c.fill(d, false, none);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, b);  // tie on accumulation -> LRU (b) leaves
}

TEST(Cache, LerPrefersAccumulationOverRecency) {
  CacheConfig cfg = small_cfg();
  cfg.replacement = ReplacementKind::least_error_rate;
  SetAssocCache c(cfg);

  // A hook that marks way 0 as heavily accumulated.
  struct Bumper : NullHooks {
    void on_read_lookup(CacheSetView set, int hit_way) {
      if (hit_way >= 0) set.rel(0).reads_since_check = 100;
    }
  } bumper;

  const auto a = mk_addr(1, 0), b = mk_addr(2, 0), d = mk_addr(3, 0);
  c.fill(a, false, none);  // way 0
  c.fill(b, false, none);  // way 1
  EXPECT_TRUE(c.read(a, bumper));  // bumps way 0's accumulation, a is MRU

  // LRU would evict b; LER must evict the accumulated a despite recency.
  const auto ev = c.fill(d, false, none);
  ASSERT_TRUE(ev.any);
  EXPECT_EQ(ev.addr, a);
}

TEST(Cache, InvalidWaysFillFirst) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 0), false, none);
  const auto ev = c.fill(mk_addr(2, 0), false, none);
  EXPECT_FALSE(ev.any);  // second way was free
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 0), true, none);
  c.fill(mk_addr(2, 0), false, none);
  const auto ev = c.fill(mk_addr(3, 0), false, none);
  ASSERT_TRUE(ev.any);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.addr, mk_addr(1, 0));
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, WriteHitDirtiesClearsAccumulationAndKeepsOnes) {
  SetAssocCache c(small_cfg());
  c.set_ones_provider(OnesProvider::fixed(100));
  c.fill(mk_addr(1, 0), false, none);
  EXPECT_EQ(c.line_info(0, 0).ones, 100u);
  EXPECT_FALSE(c.line_info(0, 0).dirty);

  // Providers are address-deterministic (the OnesProvider contract), so a
  // write hit keeps the count installed at fill rather than re-deriving
  // the same value -- even across a mid-run provider swap, which real
  // experiments never do.
  c.set_ones_provider(OnesProvider::fixed(200));
  EXPECT_TRUE(c.write(mk_addr(1, 0), none));
  EXPECT_TRUE(c.line_info(0, 0).dirty);
  EXPECT_EQ(c.line_info(0, 0).ones, 100u);
  EXPECT_EQ(c.line_info(0, 0).reads_since_check, 0u);

  // The next fill of the line derives from the current provider.
  c.invalidate(mk_addr(1, 0));
  c.fill(mk_addr(1, 0), false, none);
  EXPECT_EQ(c.line_info(0, 0).ones, 200u);
}

TEST(Cache, WriteMissDoesNotAllocate) {
  SetAssocCache c(small_cfg());
  EXPECT_FALSE(c.write(mk_addr(1, 0), none));
  EXPECT_FALSE(c.probe(mk_addr(1, 0)));
  EXPECT_EQ(c.stats().write_lookups, 1u);
  EXPECT_EQ(c.stats().write_hits, 0u);
}

TEST(Cache, InvalidateClearsLine) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 0), true, none);
  EXPECT_TRUE(c.invalidate(mk_addr(1, 0)));  // was dirty
  EXPECT_FALSE(c.probe(mk_addr(1, 0)));
  EXPECT_FALSE(c.invalidate(mk_addr(1, 0)));
}

TEST(Cache, DefaultOnesIsHalfBlockBits) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 2), false, none);
  EXPECT_EQ(c.line_info(2, 0).ones, 256u);
}

// Hook recording for interface verification.
struct RecordingHooks {
  void on_read_lookup(CacheSetView set, int hit_way) {
    ++reads;
    last_ways = set.size();
    last_hit = hit_way;
  }
  void on_write_lookup(CacheSetView, int hit_way) {
    ++writes;
    last_hit = hit_way;
  }
  void on_fill(LineRel&) { ++fills; }
  void on_evict(LineRel& rel, bool dirty) {
    ++evicts;
    last_evicted_ones = rel.ones;
    last_evicted_dirty = dirty;
  }

  int reads = 0, writes = 0, fills = 0, evicts = 0;
  std::size_t last_ways = 0;
  int last_hit = -2;
  std::uint32_t last_evicted_ones = 0;
  bool last_evicted_dirty = false;
};

TEST(CacheHooks, ReadLookupSeesAllWaysAndHitIndex) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.read(mk_addr(1, 0), h);
  EXPECT_EQ(h.reads, 1);
  EXPECT_EQ(h.last_ways, 2u);
  EXPECT_EQ(h.last_hit, -1);
  c.fill(mk_addr(1, 0), false, h);
  EXPECT_EQ(h.fills, 1);
  c.read(mk_addr(1, 0), h);
  EXPECT_EQ(h.last_hit, 0);
}

TEST(CacheHooks, EvictFiresBeforeInvalidation) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.set_ones_provider(OnesProvider::fixed(77));
  c.fill(mk_addr(1, 0), false, h);
  c.fill(mk_addr(2, 0), false, h);
  c.fill(mk_addr(3, 0), false, h);  // evicts one
  EXPECT_EQ(h.evicts, 1);
  EXPECT_EQ(h.last_evicted_ones, 77u);  // still populated at evict time
  EXPECT_FALSE(h.last_evicted_dirty);
  EXPECT_EQ(h.fills, 3);
}

TEST(CacheHooks, WriteLookupFiresOnMissToo) {
  SetAssocCache c(small_cfg());
  RecordingHooks h;
  c.write(mk_addr(9, 1), h);
  EXPECT_EQ(h.writes, 1);
  EXPECT_EQ(h.last_hit, -1);
}

TEST(Cache, StatsResetKeepsContents) {
  SetAssocCache c(small_cfg());
  c.fill(mk_addr(1, 0), false, none);
  c.read(mk_addr(1, 0), none);
  c.reset_stats();
  EXPECT_EQ(c.stats().read_lookups, 0u);
  EXPECT_TRUE(c.probe(mk_addr(1, 0)));  // contents survive
}

TEST(Cache, RejectsNonPowerOfTwoGeometry) {
  CacheConfig cfg = small_cfg();
  cfg.block_bytes = 48;
  EXPECT_DEATH(SetAssocCache c(cfg), "");
}

}  // namespace
}  // namespace reap::sim
