// Two-level memory hierarchy matching the paper's Table I:
//   L1I / L1D: 32KB 4-way SRAM, 64B blocks, write-back
//   L2:        1MB 8-way STT-MRAM, 64B blocks, write-back, shared
//
// Write-allocate everywhere; non-inclusive (an L2 eviction does not
// back-invalidate L1, matching the simple gem5 classic-cache behaviour the
// paper's setup uses). The L2 read path invokes the L2 policy hooks so
// read-path policies can track disturbance accumulation.
//
// The access paths are templates over the L2 hooks type: the experiment
// engine instantiates them with a concrete policy (no virtual dispatch per
// access). L1 accesses always use NullHooks — policies observe the L2
// only.
#pragma once

#include <cstdint>

#include "reap/sim/cache.hpp"

namespace reap::sim {

struct HierarchyConfig {
  CacheConfig l1i{.name = "L1I",
                  .capacity_bytes = 32 * 1024,
                  .ways = 4,
                  .block_bytes = 64};
  CacheConfig l1d{.name = "L1D",
                  .capacity_bytes = 32 * 1024,
                  .ways = 4,
                  .block_bytes = 64};
  CacheConfig l2{.name = "L2",
                 .capacity_bytes = 1024 * 1024,
                 .ways = 8,
                 .block_bytes = 64};

  // Stall cycles beyond the pipelined L1 hit.
  std::uint32_t l2_hit_cycles = 10;
  std::uint32_t mem_cycles = 150;

  bool operator==(const HierarchyConfig&) const = default;
};

struct HierarchyStats {
  CacheStats l1i;
  CacheStats l1d;
  CacheStats l2;
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
};

// Pre-decoded L2 coordinates of a demand address, produced by the batch
// pre-decode pass (simd::predecode over the L2 geometry). Must equal
// l2.set_of(addr) / l2.tagv_of(addr) for the op's address; only the
// demand path uses it -- writeback addresses (which differ) re-derive.
struct L2Hint {
  std::uint32_t set = 0;
  std::uint64_t tagv = 0;
};

class MemoryHierarchy {
 public:
  MemoryHierarchy(HierarchyConfig cfg, std::uint64_t seed = 1);

  // Ones-count provider for L2 lines (the data-value model).
  void set_l2_ones_provider(OnesProvider provider) {
    l2_.set_ones_provider(provider);
  }

  // Override the L2 hit latency. Read-path policies differ here; a shared
  // walk (core::run_experiment_group) runs at 0 and adds each observer's
  // latency per L2 read hit afterwards -- l2_read is the only place the
  // latency enters the cycle count.
  void set_l2_hit_cycles(std::uint32_t cycles) { cfg_.l2_hit_cycles = cycles; }

  // Each returns stall cycles beyond the 1-cycle pipelined issue and
  // drives the L2 with `l2_hooks`. The hinted forms take the op's L2
  // coordinates from the batch pre-decode (TraceCpu::run_vectorized); the
  // un-hinted forms derive the hint from the address and forward.
  template <class L2Hooks>
  std::uint64_t inst_fetch(std::uint64_t pc, L2Hooks& l2_hooks, L2Hint hint) {
    // Fetch-buffer model: sequential fetches within the current block do
    // not re-access L1I (a real front end reads a whole fetch group at
    // once). Shift, not divide: this runs once per instruction, and the
    // block size is a power of two (the cache constructor enforces it).
    const std::uint64_t block = pc >> fetch_block_bits_;
    if (block == last_fetch_block_) return 0;
    last_fetch_block_ = block;
    return l1_access(l1i_, pc, /*is_store=*/false, l2_hooks, hint);
  }

  template <class L2Hooks>
  std::uint64_t load(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    return l1_access(l1d_, addr, /*is_store=*/false, l2_hooks, hint);
  }

  template <class L2Hooks>
  std::uint64_t store(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    return l1_access(l1d_, addr, /*is_store=*/true, l2_hooks, hint);
  }

  template <class L2Hooks>
  std::uint64_t inst_fetch(std::uint64_t pc, L2Hooks& l2_hooks) {
    return inst_fetch(pc, l2_hooks, hint_of(pc));
  }
  template <class L2Hooks>
  std::uint64_t load(std::uint64_t addr, L2Hooks& l2_hooks) {
    return load(addr, l2_hooks, hint_of(addr));
  }
  template <class L2Hooks>
  std::uint64_t store(std::uint64_t addr, L2Hooks& l2_hooks) {
    return store(addr, l2_hooks, hint_of(addr));
  }

  // Prefetch the L2 set an upcoming op will look up (from the batch
  // pre-decode): its tag, ones and lru columns. A pure latency hint, no
  // semantic effect.
  void prefetch_l2(std::size_t set) const { l2_.prefetch_set(set); }

  HierarchyStats stats() const;
  void reset_stats();

  SetAssocCache& l2() { return l2_; }
  const SetAssocCache& l2() const { return l2_; }
  SetAssocCache& l1d() { return l1d_; }
  SetAssocCache& l1i() { return l1i_; }
  const HierarchyConfig& config() const { return cfg_; }

 private:
  L2Hint hint_of(std::uint64_t addr) const {
    return {static_cast<std::uint32_t>(l2_.set_of(addr)), l2_.tagv_of(addr)};
  }

  // L1 access; on miss goes to L2 (the demand lookup through the
  // pre-decoded hint). Returns stall cycles.
  template <class L2Hooks>
  std::uint64_t l1_access(SetAssocCache& l1, std::uint64_t addr, bool is_store,
                          L2Hooks& l2_hooks, L2Hint hint) {
    NullHooks l1_hooks;
    if (is_store ? l1.write(addr, l1_hooks) : l1.read(addr, l1_hooks))
      return 0;

    // L1 miss: fetch the block from L2 (write-allocate on stores too).
    const std::uint64_t stall = l2_read(addr, l2_hooks, hint);
    const SetAssocCache::Evicted ev =
        l1.fill(addr, /*dirty=*/is_store, l1_hooks);
    if (ev.any && ev.dirty) l2_write(ev.addr, l2_hooks);
    if (is_store) {
      // The allocating store dirties the freshly-filled line.
      l1.write(addr, l1_hooks);
    }
    return stall;
  }

  // L2 read request (from an L1 fill). Returns stall cycles.
  template <class L2Hooks>
  std::uint64_t l2_read(std::uint64_t addr, L2Hooks& l2_hooks, L2Hint hint) {
    if (l2_.read_pre(hint.set, hint.tagv, l2_hooks)) return cfg_.l2_hit_cycles;

    ++mem_reads_;
    const SetAssocCache::Evicted ev = l2_.fill(addr, /*dirty=*/false, l2_hooks);
    if (ev.any && ev.dirty) ++mem_writes_;
    return cfg_.mem_cycles;
  }

  // L2 write request (L1 dirty writeback). Off the critical path; its
  // address is the victim's, not the op's, so it derives its own set/tag.
  template <class L2Hooks>
  void l2_write(std::uint64_t addr, L2Hooks& l2_hooks) {
    if (l2_.write(addr, l2_hooks)) return;

    // Write-allocate: fetch, install dirty. (The fetch is a memory read,
    // not an L2 data-array read, so it does not disturb resident lines.)
    ++mem_reads_;
    const SetAssocCache::Evicted ev = l2_.fill(addr, /*dirty=*/true, l2_hooks);
    if (ev.any && ev.dirty) ++mem_writes_;
  }

  HierarchyConfig cfg_;
  SetAssocCache l1i_;
  SetAssocCache l1d_;
  SetAssocCache l2_;
  unsigned fetch_block_bits_ = 6;
  std::uint64_t mem_reads_ = 0;
  std::uint64_t mem_writes_ = 0;
  std::uint64_t last_fetch_block_ = ~std::uint64_t{0};
};

}  // namespace reap::sim
