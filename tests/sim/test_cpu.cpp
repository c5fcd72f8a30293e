#include "reap/sim/cpu.hpp"

#include <gtest/gtest.h>

#include "reap/trace/datavalue.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/workload.hpp"

namespace reap::sim {
namespace {

HierarchyConfig tiny_cfg() {
  HierarchyConfig cfg;
  cfg.l1i = {.name = "L1I", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l1d = {.name = "L1D", .capacity_bytes = 256, .ways = 2, .block_bytes = 64};
  cfg.l2 = {.name = "L2", .capacity_bytes = 512, .ways = 2, .block_bytes = 64};
  cfg.l2_hit_cycles = 10;
  cfg.mem_cycles = 100;
  return cfg;
}

TEST(TraceCpu, CountsInstructionsNotDataOps) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
      {trace::OpType::inst_fetch, 0x400004},
      {trace::OpType::store, 0x2000},
      {trace::OpType::inst_fetch, 0x400008},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  EXPECT_EQ(cpu.run_vectorized(100, hooks), 3u);
  EXPECT_EQ(cpu.instructions(), 3u);
}

TEST(TraceCpu, StopsAtInstructionBudget) {
  std::vector<trace::MemOp> ops;
  for (int i = 0; i < 100; ++i)
    ops.push_back({trace::OpType::inst_fetch, 0x400000u + i * 4u});
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  EXPECT_EQ(cpu.run_vectorized(30, hooks), 30u);
  EXPECT_EQ(cpu.run_vectorized(30, hooks), 30u);
  EXPECT_EQ(cpu.run_vectorized(100, hooks), 40u);  // trace exhausted
}

TEST(TraceCpu, CyclesIncludeMemoryStalls) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run_vectorized(10, hooks);
  // 1 cycle for the instruction + I-fetch cold miss (100) + load cold miss
  // (100).
  EXPECT_EQ(cpu.cycles(), 201u);
  EXPECT_LT(cpu.ipc(), 1.0);
}

TEST(TraceCpu, PerfectL1GivesIpcNearOne) {
  std::vector<trace::MemOp> ops;
  for (int i = 0; i < 1000; ++i)
    ops.push_back({trace::OpType::inst_fetch, 0x400000});  // same block
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run_vectorized(1000, hooks);
  EXPECT_GT(cpu.ipc(), 0.9);
}

TEST(TraceCpu, SecondsUsesClock) {
  trace::VectorTraceSource src({{trace::OpType::inst_fetch, 0x400000}});
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem, /*clock_ghz=*/1.0);
  NullHooks hooks;
  cpu.run_vectorized(1, hooks);
  // 1 + 100 cycles at 1 GHz = 101 ns.
  EXPECT_NEAR(cpu.seconds(), 101e-9, 1e-12);
}

TEST(TraceCpu, ResetCountersKeepsCacheState) {
  trace::VectorTraceSource src({
      {trace::OpType::inst_fetch, 0x400000},
      {trace::OpType::load, 0x1000},
      {trace::OpType::inst_fetch, 0x400004},
      {trace::OpType::load, 0x1000},
  });
  MemoryHierarchy mem(tiny_cfg());
  TraceCpu cpu(src, mem);
  NullHooks hooks;
  cpu.run_vectorized(1, hooks);  // first instruction + cold load
  cpu.reset_counters();
  EXPECT_EQ(cpu.instructions(), 0u);
  cpu.run_vectorized(1, hooks);  // second instruction: warm load, few cycles
  EXPECT_LT(cpu.cycles(), 10u);
}

// A pseudo-random but deterministic op mix that misses, hits, and writes
// back across both L1s and the L2 -- enough traffic that a divergence
// between drive schedules would show up in cycles or hierarchy stats.
std::vector<trace::MemOp> mixed_ops(std::size_t n) {
  std::vector<trace::MemOp> ops;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t addr = (x % 64) * 64;
    if (i % 3 == 0)
      ops.push_back({trace::OpType::inst_fetch, 0x400000u + (x % 512) * 4});
    else if (i % 3 == 1)
      ops.push_back({trace::OpType::load, addr});
    else
      ops.push_back({trace::OpType::store, addr + 0x8000});
  }
  return ops;
}

// Reference for the drive loop: one op at a time through the hierarchy's
// un-hinted access paths (which derive the L2 set/tag from the address
// instead of taking the batch pre-decode), under the same budget rule --
// an instruction past the budget ends the call and waits for the next.
class PerOpWalk {
 public:
  PerOpWalk(const std::vector<trace::MemOp>& ops, MemoryHierarchy& mem)
      : ops_(ops), mem_(mem) {}

  std::uint64_t run(std::uint64_t max_instructions) {
    std::uint64_t executed = 0;
    for (; pos_ < ops_.size(); ++pos_) {
      const trace::MemOp op = ops_[pos_];
      switch (op.type) {
        case trace::OpType::inst_fetch:
          if (executed == max_instructions) return executed;
          ++executed;
          ++instructions_;
          cycles_ += 1 + mem_.inst_fetch(op.addr, hooks_);
          break;
        case trace::OpType::load:
          cycles_ += mem_.load(op.addr, hooks_);
          break;
        case trace::OpType::store:
          cycles_ += mem_.store(op.addr, hooks_);
          break;
      }
    }
    return executed;
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t cycles() const { return cycles_; }

 private:
  const std::vector<trace::MemOp>& ops_;
  MemoryHierarchy& mem_;
  NullHooks hooks_;
  std::size_t pos_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
};

template <class A, class B>
void expect_same_run(const A& a, const MemoryHierarchy& ma, const B& b,
                     const MemoryHierarchy& mb) {
  EXPECT_EQ(a.instructions(), b.instructions());
  EXPECT_EQ(a.cycles(), b.cycles());
  const HierarchyStats sa = ma.stats();
  const HierarchyStats sb = mb.stats();
  EXPECT_EQ(sa.l2.read_lookups, sb.l2.read_lookups);
  EXPECT_EQ(sa.l2.read_hits, sb.l2.read_hits);
  EXPECT_EQ(sa.l2.write_lookups, sb.l2.write_lookups);
  EXPECT_EQ(sa.l2.fills, sb.l2.fills);
  EXPECT_EQ(sa.l2.evictions, sb.l2.evictions);
  EXPECT_EQ(sa.mem_reads, sb.mem_reads);
  EXPECT_EQ(sa.mem_writes, sb.mem_writes);
}

TEST(TraceCpu, VectorizedLoopMatchesPerOpWalk) {
  const auto ops = mixed_ops(20'000);
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem_a(tiny_cfg()), mem_b(tiny_cfg());
  PerOpWalk walk(ops, mem_a);
  TraceCpu cpu(src, mem_b);
  NullHooks hooks;
  EXPECT_EQ(walk.run(100'000), cpu.run_vectorized(100'000, hooks));
  expect_same_run(walk, mem_a, cpu, mem_b);
}

TEST(TraceCpu, VectorizedLoopHonoursInstructionBudget) {
  const auto ops = mixed_ops(20'000);
  trace::VectorTraceSource src(ops);
  MemoryHierarchy mem_a(tiny_cfg()), mem_b(tiny_cfg());
  PerOpWalk walk(ops, mem_a);
  TraceCpu cpu(src, mem_b);
  NullHooks hooks;
  EXPECT_EQ(walk.run(1'000), cpu.run_vectorized(1'000, hooks));
  expect_same_run(walk, mem_a, cpu, mem_b);
  // Resume both to trace end.
  EXPECT_EQ(walk.run(100'000), cpu.run_vectorized(100'000, hooks));
  expect_same_run(walk, mem_a, cpu, mem_b);
}

TEST(TraceCpu, SlicedRunsEqualOneUninterruptedRun) {
  // 100-instruction slices are far smaller than kBatchOps, so nearly every
  // slice ends mid-batch; resuming from the buffered batch must lose no
  // op and change no result.
  const auto ops = mixed_ops(20'000);
  trace::VectorTraceSource src_a(ops), src_b(ops);
  MemoryHierarchy mem_a(tiny_cfg()), mem_b(tiny_cfg());
  TraceCpu cpu_a(src_a, mem_a), cpu_b(src_b, mem_b);
  NullHooks hooks;
  const std::uint64_t done_a = cpu_a.run_vectorized(100'000, hooks);
  std::uint64_t done_b = 0;
  for (;;) {
    const std::uint64_t got = cpu_b.run_vectorized(100, hooks);
    done_b += got;
    if (got == 0) break;
  }
  EXPECT_EQ(done_a, done_b);
  expect_same_run(cpu_a, mem_a, cpu_b, mem_b);
}

// L2 hooks that, when `checking`, read a line's ones count where a
// checking policy would: the hit way of a read lookup and a dirty victim.
// So a checking walk leaves the ones column mixed -- lines resolved by a
// check, lines never read -- and a non-checking walk leaves every line
// unread.
struct CheckingHooks : NullHooks {
  void on_read_lookup(CacheSetView set, int hit_way) {
    if (checking && hit_way >= 0)
      sum += set.ones(static_cast<std::size_t>(hit_way));
  }
  void on_evict(CacheSetView set, std::size_t way, bool dirty) {
    if (checking && dirty) sum += set.ones(way);
  }
  bool checking = false;
  std::uint64_t sum = 0;
};

// A line's ones count is looked up at its first read, not at fill; what
// any reader sees must still be exactly the data-value model's count for
// the line's address, whether a check resolved it during the walk or the
// snapshot resolves it now.
TEST(TraceCpu, LazyOnesMatchTheDataValueModel) {
  auto profile = *trace::spec2006_profile("mcf");
  HierarchyConfig cfg;
  cfg.l2 = {.name = "L2", .capacity_bytes = 16 * 1024, .ways = 8,
            .block_bytes = 64};
  for (const bool checking : {false, true}) {
    SCOPED_TRACE(checking ? "checking hooks" : "no reads");
    MemoryHierarchy mem(cfg, 7);
    const trace::DataValueModel model(profile.values, 512, 0xABCD);
    mem.set_l2_ones_provider(OnesProvider(model));
    trace::WorkloadTraceSource src(profile);
    TraceCpu cpu(src, mem);
    CheckingHooks hooks;
    hooks.checking = checking;
    cpu.run_vectorized(60'000, hooks);
    EXPECT_EQ(hooks.sum > 0, checking);
    SetAssocCache& l2 = mem.l2();
    ASSERT_GT(l2.stats().evictions, l2.lines());  // long enough to evict
    std::size_t valid = 0;
    for (std::size_t set = 0; set < l2.config().sets(); ++set) {
      for (std::size_t way = 0; way < l2.config().ways; ++way) {
        const auto line = l2.line_info(set, way);
        if (!line.valid) continue;
        ++valid;
        EXPECT_EQ(line.ones, model.ones_for(l2.line_addr(line.tag, set)))
            << "set " << set << " way " << way;
      }
    }
    EXPECT_EQ(valid, l2.config().sets() * l2.config().ways);
  }
}

}  // namespace
}  // namespace reap::sim
