// Data-value model: how many '1' bits a cache line holds.
//
// Read disturbance only threatens cells storing '1' (unidirectional), so a
// line's failure probability scales with its popcount n (Eq. 2). Traces do
// not carry store values, so the model assigns each line address a
// deterministic ones-count drawn from a configurable distribution; the same
// address always maps to the same count for reproducibility. It can also
// materialize a concrete payload with that popcount for the Monte Carlo
// engine, which runs real codecs on real bits.
//
// The model is stateless after construction: every query is a fresh draw
// from an address-seeded Rng, so one model is safe to share across
// threads.
#pragma once

#include <cstdint>

#include "reap/common/bitvec.hpp"

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
  // (block-aligned or not; the low 6 bits are ignored for 64B lines): a
  // pure function of the address. The simulator's L2 asks once per line
  // it ECC-checks, at the first check (sim::CacheSetView::ones), not per
  // fill, so the draw is not memoized.
  std::uint32_t ones_for(std::uint64_t line_addr) const;

  // A concrete payload whose popcount equals ones_for(line_addr); bit
  // positions are deterministic in the address too.
  common::BitVec payload_for(std::uint64_t line_addr) const;

 private:
  std::uint32_t compute_ones(std::uint64_t block) const;

  OnesDensitySpec spec_;
  std::uint64_t line_bits_;
  std::uint64_t seed_;
};

}  // namespace reap::trace
