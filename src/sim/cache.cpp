#include "reap/sim/cache.hpp"

#include <bit>

#include "reap/common/assert.hpp"

namespace reap::sim {

SetAssocCache::SetAssocCache(CacheConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      resolver_{OnesProvider::fixed(
                    static_cast<std::uint32_t>(cfg_.block_bytes * 8 / 2)),
                0},
      rng_(seed) {
  REAP_EXPECTS(cfg_.ways >= 1);
  REAP_EXPECTS(std::has_single_bit(cfg_.block_bytes));
  REAP_EXPECTS(cfg_.capacity_bytes % (cfg_.ways * cfg_.block_bytes) == 0);
  sets_ = cfg_.sets();
  REAP_EXPECTS(std::has_single_bit(sets_));
  stride_ = simd::padded_ways(cfg_.ways);
  offset_bits_ = static_cast<unsigned>(std::countr_zero(cfg_.block_bytes));
  index_bits_ = static_cast<unsigned>(std::countr_zero(sets_));
  resolver_.tag_shift = offset_bits_ + index_bits_;
  // Hot columns: 64 B-aligned, stride padded to the vector width, zeroed
  // (zero = invalid tagv / no ones) -- see the layout note up top.
  tags_ = simd::AlignedVec<std::uint64_t>(sets_ * stride_);
  ones_ = simd::AlignedVec<std::uint32_t>(sets_ * stride_);
  lru_ = simd::AlignedVec<std::uint64_t>(sets_ * stride_);
  // The lru column's padding lanes hold the never-wins sentinel so the
  // vector victim scan can run whole padded sets. Set in every build --
  // the layout is REAP_SIMD-independent by design.
  for (std::size_t s = 0; s < sets_; ++s) {
    for (std::size_t w = cfg_.ways; w < stride_; ++w)
      lru_[s * stride_ + w] = simd::kLruPad;
  }
  state_.resize(sets_ * stride_);
}

SetAssocCache::LineInfo SetAssocCache::line_info(std::size_t set,
                                                 std::size_t way) {
  REAP_EXPECTS(set < sets_);
  REAP_EXPECTS(way < cfg_.ways);
  const std::size_t idx = set * stride_ + way;
  LineInfo info;
  info.valid = state_[idx].valid;
  info.dirty = state_[idx].dirty;
  info.tag = tags_[idx] >> 1;
  info.ones = info.valid ? view_of(set).ones(way) : ones_[idx];
  info.lru_stamp = lru_[idx];
  info.fill_stamp = state_[idx].fill_stamp;
  return info;
}

// random victim pick -- the cold tail of victim_way (the lru/fifo scans
// live in the header with the hot paths).
std::size_t SetAssocCache::victim_way_rare(std::size_t set) {
  const LineState* st = &state_[set * stride_];
  // Invalid ways first.
  for (std::size_t w = 0; w < cfg_.ways; ++w) {
    if (!st[w].valid) return w;
  }
  return static_cast<std::size_t>(rng_.below(cfg_.ways));
}

bool SetAssocCache::invalidate(std::uint64_t addr) {
  const std::size_t set = set_of(addr);
  const int way = find_way(set, tagv_of(addr));
  if (way < 0) return false;
  const std::size_t idx = set * stride_ + static_cast<std::size_t>(way);
  const bool was_dirty = state_[idx].dirty;
  tags_[idx] = 0;
  ones_[idx] = 0;
  lru_[idx] = 0;  // stamp 0 = prime victim, like any invalid line
  state_[idx] = LineState{};
  return was_dirty;
}

}  // namespace reap::sim
