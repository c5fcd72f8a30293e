// Workload profiles: parameterized synthetic programs.
//
// A profile describes instruction mix (loads/stores per instruction), code
// footprint and branchiness, a weighted mixture of data address patterns,
// and a data-value (ones-density) model. WorkloadTraceSource turns a
// profile into a deterministic operation stream.
//
// This is the SPEC CPU2006 substitution (see DESIGN.md): profiles are
// parameterized directly on the observables that drive the paper's results
// -- L2 reuse distance structure, set concentration, read/write mix -- and
// spec2006.hpp instantiates one profile per benchmark name with parameters
// chosen to reproduce each benchmark's qualitative behaviour.
//
// The pattern mixture is stored as a std::variant over the sealed set of
// synth.hpp primitives, so per-operation generation dispatches through a
// jump table into inlinable concrete code instead of a virtual call; the
// batched next_batch override amortizes the TraceSource dispatch itself.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "reap/common/rng.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/record.hpp"
#include "reap/trace/synth.hpp"

namespace reap::trace {

struct PatternSpec {
  enum class Kind {
    stream,   // sequential sweep (stride_bytes)
    uniform,  // uniform random over region
    zipf,     // zipf popularity over blocks (zipf_s, zipf_scramble)
    chase,    // pointer chase
    loop,     // blocked loop nest (tile_bytes, inner_repeats)
    hammer,   // set hammer: stream with stride = one cache-set period, so a
              // handful of blocks in the SAME L2 set are hit continuously;
              // sized to thrash L1 but fit in the L2 set (see spec2006.cpp)
  };

  Kind kind = Kind::uniform;
  double weight = 1.0;              // mixture weight among data accesses
  std::uint64_t region_bytes = 1 << 20;
  std::uint64_t stride_bytes = 64;  // stream
  double zipf_s = 0.9;              // zipf
  bool zipf_scramble = true;        // zipf
  std::uint64_t tile_bytes = 64 * 1024;  // loop
  std::uint64_t inner_repeats = 4;       // loop
  // hammer (see synth.hpp SetHammer): hot sweep size, rarely-touched
  // resident lines in the same set, their touch probability, and the byte
  // distance between same-set lines (L2 sets x block size).
  std::uint64_t hammer_blocks = 5;
  std::uint64_t hammer_resident_blocks = 2;
  double hammer_resident_prob = 0.0008;
  std::uint64_t hammer_set_period = 128 * 1024;

  bool operator==(const PatternSpec&) const = default;
};

struct WorkloadProfile {
  std::string name = "custom";
  double loads_per_inst = 0.25;
  double stores_per_inst = 0.10;
  std::uint64_t code_bytes = 128 * 1024;
  double jump_prob = 0.02;  // chance an instruction redirects fetch randomly
  std::vector<PatternSpec> patterns;
  OnesDensitySpec values;
  std::uint64_t seed = 0x5EED;

  bool operator==(const WorkloadProfile&) const = default;
};

class WorkloadTraceSource final : public TraceSource {
 public:
  explicit WorkloadTraceSource(WorkloadProfile profile);

  const WorkloadProfile& profile() const { return profile_; }

  bool next(MemOp& op) override;
  std::size_t next_batch(std::span<MemOp> out) override;
  void reset() override;

 private:
  // The sealed pattern set; value semantics so generation is one visit
  // (jump table) into concrete, inlinable code.
  using PatternVariant = std::variant<SequentialStream, UniformRandom,
                                      ZipfHotSet, PointerChase, SetHammer,
                                      LoopNest>;

  void build_patterns();

  // Generates one whole instruction (fetch + 0..2 data ops) into dst;
  // returns the op count. The single producer both next() and next_batch()
  // drain, so the two entry points emit byte-identical sequences.
  unsigned gen_instruction(MemOp* dst);

  std::uint64_t pattern_next(std::size_t index);
  std::size_t pick_pattern();

  WorkloadProfile profile_;
  common::Rng rng_;
  std::vector<PatternVariant> patterns_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  std::uint64_t pc_;
  // Pending data ops for the current instruction (0..2 entries).
  MemOp pending_[2];
  unsigned pending_count_ = 0;
  unsigned pending_pos_ = 0;
  static constexpr std::uint64_t kCodeBase = 0x0040'0000;
  static constexpr std::uint64_t kHeapBase = 0x1000'0000;
};

}  // namespace reap::trace
