// Data-value model: how many '1' bits a cache line holds.
//
// Read disturbance only threatens cells storing '1' (unidirectional), so a
// line's failure probability scales with its popcount n (Eq. 2). Traces do
// not carry store values, so the model assigns each line address a
// deterministic ones-count drawn from a configurable distribution; the same
// address always maps to the same count for reproducibility. It can also
// materialize a concrete payload with that popcount for the Monte Carlo
// engine, which runs real codecs on real bits.
#pragma once

#include <cstdint>

#include "reap/common/bitvec.hpp"
#include "reap/common/memo.hpp"

namespace reap::trace {

struct OnesDensitySpec {
  double mean_density = 0.35;   // fraction of '1' bits; SPEC data skews zero-heavy
  double stddev_density = 0.12; // cross-line spread

  bool operator==(const OnesDensitySpec&) const = default;
};

class DataValueModel {
 public:
  DataValueModel(OnesDensitySpec spec, std::uint64_t line_bits = 512,
                 std::uint64_t seed = 0xD5EED);

  std::uint64_t line_bits() const { return line_bits_; }

  // Deterministic ones-count for the line containing `line_addr`
  // (block-aligned or not; the low 6 bits are ignored for 64B lines).
  // Sits on the simulator's L2 fill path, so a direct-mapped memo caches
  // the count per block; the draw is a pure function of the address, so
  // memoization (and collisions, which just recompute) cannot change any
  // returned value. Not thread-safe: use one model per experiment.
  std::uint32_t ones_for(std::uint64_t line_addr) const;

  // Software-prefetch the memo slot ones_for(line_addr) would probe; the
  // vectorized drive loop issues this a few ops ahead of the access. Pure
  // latency hint, no semantic effect.
  void prefetch(std::uint64_t line_addr) const {
    memo_.prefetch(line_addr >> 6);
  }

  // A concrete payload whose popcount equals ones_for(line_addr); bit
  // positions are deterministic in the address too.
  common::BitVec payload_for(std::uint64_t line_addr) const;

 private:
  std::uint32_t compute_ones(std::uint64_t block) const;

  OnesDensitySpec spec_;
  std::uint64_t line_bits_;
  std::uint64_t seed_;
  // Per-block memo (bounded at 768KB — see memo.hpp for why it must stay
  // cache-resident rather than grow with the footprint).
  mutable common::DirectMappedMemo<std::uint32_t, 1 << 16> memo_;
};

}  // namespace reap::trace
