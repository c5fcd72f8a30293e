// Trace-driven in-order core.
//
// One instruction per cycle plus memory stall cycles from the hierarchy --
// the timing fidelity the paper's evaluation needs (it reports no IPC
// results; cycle counts only convert failure-probability sums into MTTF
// and let us confirm REAP's "no performance impact" claim via the L2
// latency each policy reports).
//
// One drive loop, run_vectorized(n, hooks): ops are pulled kBatchOps at a
// time, each batch gets a vectorizable pre-pass (simd::predecode: every
// op's L2 set/tagv into flat arrays), the set columns a fixed distance
// ahead are software-prefetched, and the hierarchy is instantiated over
// the concrete L2 hooks type, so the whole instruction -> L1 -> L2 ->
// policy path inlines with no per-op virtual dispatch.
#pragma once

#include <cstdint>
#include <vector>

#include "reap/sim/hierarchy.hpp"
#include "reap/sim/simd.hpp"
#include "reap/trace/record.hpp"

namespace reap::sim {

class TraceCpu {
 public:
  TraceCpu(trace::TraceSource& source, MemoryHierarchy& mem,
           double clock_ghz = 2.0);

  // Ops pulled per TraceSource::next_batch call.
  static constexpr std::size_t kBatchOps = 4096;

  // How many ops ahead the loop prefetches the L2 set columns (tags, ones,
  // lru) and the hooks' columns for that set -- all the per-op state there
  // is: a fill does not look up the line's ones count (its first check
  // does, from the ones column). Far enough that the lines arrive before
  // the op needs them (several ops' worth of simulation work), near
  // enough that they are not evicted again in between.
  static constexpr std::size_t kPrefetchAhead = 8;

  // Executes up to `max_instructions`; stops early at end of trace.
  // Returns instructions executed in this call. An instruction boundary
  // past the budget stays buffered for the next call, so the current
  // instruction's data ops stay with it and consecutive calls replay the
  // trace exactly as one call would.
  template <class L2Hooks>
  std::uint64_t run_vectorized(std::uint64_t max_instructions,
                               L2Hooks& l2_hooks) {
    if (buf_.empty()) {
      buf_.resize(kBatchOps);
      pre_set_.resize(kBatchOps);
      pre_tagv_.resize(kBatchOps);
    }
    const SetAssocCache& l2 = mem_.l2();
    std::uint64_t executed = 0;
    for (;;) {
      if (buf_pos_ == buf_len_) {
        buf_len_ = source_.next_batch({buf_.data(), buf_.size()});
        buf_pos_ = 0;
        if (buf_len_ == 0) break;  // end of trace
        // The pre-pass: pure shifts/masks over the fresh batch, hoisting
        // every op's L2 set/tagv derivation out of the access path.
        simd::predecode(buf_.data(), buf_len_, l2.offset_bits(),
                        l2.index_bits(), pre_set_.data(), pre_tagv_.data());
      }
      // Pull the metadata an op will touch kPrefetchAhead ops from now --
      // its L2 set columns and the hooks' own columns for that set; the
      // intervening (independent) ops hide the miss latency.
      if (buf_pos_ + kPrefetchAhead < buf_len_) {
        const std::size_t ahead = buf_pos_ + kPrefetchAhead;
        mem_.prefetch_l2(pre_set_[ahead]);
        l2_hooks.prefetch(l2.set_base(pre_set_[ahead]));
      }
      const trace::MemOp op = buf_[buf_pos_];
      const L2Hint hint{pre_set_[buf_pos_], pre_tagv_[buf_pos_]};
      switch (op.type) {
        case trace::OpType::inst_fetch:
          if (executed == max_instructions) return executed;
          ++buf_pos_;
          ++executed;
          ++instructions_;
          cycles_ += 1 + mem_.inst_fetch(op.addr, l2_hooks, hint);
          break;
        case trace::OpType::load:
          ++buf_pos_;
          cycles_ += mem_.load(op.addr, l2_hooks, hint);
          break;
        case trace::OpType::store:
          ++buf_pos_;
          cycles_ += mem_.store(op.addr, l2_hooks, hint);
          break;
      }
    }
    return executed;
  }

  std::uint64_t instructions() const { return instructions_; }
  std::uint64_t cycles() const { return cycles_; }
  double ipc() const { return ipc_of(instructions_, cycles_); }
  double seconds() const { return seconds_of(cycles_, clock_ghz_); }

  // The two derived timing figures as functions of their inputs, for
  // callers that derive their own cycle count from a shared walk (a
  // group's observers, core/experiment.cpp).
  static double ipc_of(std::uint64_t instructions, std::uint64_t cycles) {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  static double seconds_of(std::uint64_t cycles, double clock_ghz) {
    return static_cast<double>(cycles) / (clock_ghz * 1e9);
  }
  double clock_ghz() const { return clock_ghz_; }

  void reset_counters() { instructions_ = cycles_ = 0; }

 private:
  trace::TraceSource& source_;
  MemoryHierarchy& mem_;
  double clock_ghz_;
  std::uint64_t instructions_ = 0;
  std::uint64_t cycles_ = 0;
  // The current batch: buffered ops not yet consumed, and every buffered
  // op's pre-decoded L2 coordinates.
  std::vector<trace::MemOp> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::vector<std::uint32_t> pre_set_;
  std::vector<std::uint64_t> pre_tagv_;
};

}  // namespace reap::sim
