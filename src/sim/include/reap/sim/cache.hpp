// Set-associative cache with a pluggable read-path observer.
//
// The cache implements the *mechanism* shared by every read-path variant:
// tag match, replacement, dirty tracking, per-line reliability metadata.
// The *policy* differences the paper studies (who gets ECC-checked when,
// which reads count as concealed) live in core read-path implementations,
// which the cache invokes on every access.
//
// Storage is structure-of-arrays, split by access temperature:
//   tags_  -- dense (tag << 1 | valid) uint64 column; the only data
//             find_way scans (one 64B host cache line covers an 8-way set)
//   ones_  -- uint32 popcount of each line's stored payload, the
//             reliability input every policy reads on a check. Resolved
//             at first check, not at fill: a fill stores kOnesUnresolved
//             and the first reader (CacheSetView::ones, line_info) asks
//             the OnesProvider and writes the count back. Most filled
//             lines are evicted unchecked, so most never pay for a draw
//   lru_   -- lru-stamp uint64 column: written on every hit (the LRU
//             touch) and min-scanned on every fill (the victim pick)
//   state_ -- LineState {valid, dirty, fill stamp}, touched only on
//             fills/evictions
//
// Everything here is a function of the access stream alone: no column
// depends on which read-path policy observes the cache. The one piece of
// per-policy line state -- reads_since_check, the concealed reads since a
// line's last ECC check -- is a column each observer owns
// (core/policy_impl.hpp), laid out with this cache's stride and indexed by
// the same line index (set_base(set) + way). So one walk of the cache can
// feed any number of observers.
//
// The hot columns (tags_, ones_, lru_) are 64 B-aligned and the per-set
// stride is padded to the vector width (sim/simd.hpp): an 8-way set's tag
// column is exactly one host cache line and every whole-set scan --
// find_way's tag compare, the policies' accumulation walk, the LRU victim
// scan -- runs in full vectors over padding that can never win (zero for
// tags/ones, simd::kLruPad for lru). The layout is identical in scalar
// builds; only the kernels switch on REAP_SIMD.
//
// Dispatch is compile-time: every access path is a template over a hooks
// type (the shape NullHooks spells out below), so a concrete policy
// inlines into the loop and no access pays a virtual call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reap/common/rng.hpp"
#include "reap/sim/simd.hpp"
#include "reap/trace/datavalue.hpp"

namespace reap::sim {

// Cold per-line state: the dirty bit and the fifo stamp. `valid` mirrors
// the tag column's valid bit (the cache is the sole writer of both). The
// LRU stamp is NOT here -- it lives in its own hot column (lru_), because
// the per-hit touch and the per-fill victim scan walk it constantly and a
// set's stamps should sit on one host line, not be strided through this
// struct.
struct LineState {
  bool valid = false;
  bool dirty = false;
  std::uint64_t fill_stamp = 0;
};

// Ones-count source for cache lines. A concrete type (not a type-erased
// std::function) so a lookup is a predictable branch plus a direct call:
// either a DataValueModel, a fixed count for tests, or the cache's default
// (half the block bits).
//
// Contract: a provider is a pure function of the address -- the same line
// address always yields the same count (what makes experiments
// reproducible from a seed). The cache relies on this twice: it looks a
// line's count up at its first check rather than at fill, and a write hit
// keeps the installed count instead of re-deriving it; either way the
// lookup could only return the same value.
class OnesProvider {
 public:
  explicit OnesProvider(const trace::DataValueModel& model) : model_(&model) {}

  static OnesProvider fixed(std::uint32_t ones) { return OnesProvider(ones); }

  std::uint32_t ones_for(std::uint64_t addr) const {
    return model_ ? model_->ones_for(addr) : fixed_;
  }

 private:
  explicit OnesProvider(std::uint32_t ones) : fixed_(ones) {}

  const trace::DataValueModel* model_ = nullptr;
  std::uint32_t fixed_ = 0;
};

// The ones entry of a valid line whose count nobody has read yet.
inline constexpr std::uint32_t kOnesUnresolved = ~std::uint32_t{0};

// How a cache turns a kOnesUnresolved entry into the line's count: the
// line's address, rebuilt from its tag column entry and its set's address
// bits, through the provider.
struct OnesResolver {
  OnesProvider provider;
  unsigned tag_shift;  // offset bits + index bits

  std::uint32_t resolve(std::uint64_t tagv, std::uint64_t set_addr) const {
    return provider.ones_for(((tagv >> 1) << tag_shift) | set_addr);
  }
};

// One set's SoA columns, as handed to the policy hooks: the tag|valid and
// ones columns and the set's base line index, which locates the set in
// every observer-owned column (an observer's reads_since_check for way w
// is column[base() + w]). `padded` says the columns -- the cache's and, by
// the observer-column contract, the observer's -- are readable/writable up
// to simd::padded_ways(ways) entries with zeroed padding: true for views
// the cache builds over its own columns, false for views tests construct
// over raw arrays. A cache-built view also carries the cache's resolver,
// so ones(w) can resolve a line's count on first read; a test-built view
// has none and its ones entries must all be resolved.
class CacheSetView {
 public:
  CacheSetView(const std::uint64_t* tagv, std::uint32_t* ones,
               std::size_t ways, std::size_t base = 0, bool padded = false,
               const OnesResolver* resolver = nullptr,
               std::uint64_t set_addr = 0)
      : tagv_(tagv),
        ones_(ones),
        ways_(ways),
        base_(base),
        padded_(padded),
        resolver_(resolver),
        set_addr_(set_addr) {}

  std::size_t size() const { return ways_; }
  std::size_t base() const { return base_; }
  bool valid(std::size_t way) const { return (tagv_[way] & 1) != 0; }
  // 1 for a valid way, 0 otherwise; lets accumulation loops stay
  // branchless (counter += valid_bit).
  std::uint32_t valid_bit(std::size_t way) const {
    return static_cast<std::uint32_t>(tagv_[way] & 1);
  }
  // The payload popcount of valid way `way`, looked up through the cache's
  // provider on the line's first read and cached in the column after.
  std::uint32_t ones(std::size_t way) const {
    if (ones_[way] == kOnesUnresolved)
      ones_[way] = resolver_->resolve(tagv_[way], set_addr_);
    return ones_[way];
  }

  // The policies' shared accumulation walk, whole set per vector:
  // reads[w] += valid_bit(w) for every way, where `reads` is this set's
  // slice of an observer column (column + base()). Value-identical to the
  // per-way scalar loop (pinned by tests/sim/test_simd.cpp); the vector
  // form needs the padded-column guarantee.
  void accumulate_valid(std::uint32_t* reads) const {
    if (padded_) {
      simd::accumulate_valid(tagv_, reads, ways_);
    } else {
      for (std::size_t w = 0; w < ways_; ++w) reads[w] += valid_bit(w);
    }
  }

 private:
  const std::uint64_t* tagv_;
  std::uint32_t* ones_;
  std::size_t ways_;
  std::size_t base_;
  bool padded_;
  const OnesResolver* resolver_;
  std::uint64_t set_addr_;  // the set index bits of every line's address
};

// The classic replacement policies. Each picks its victim from state the
// access stream alone determines (stamps, the cache's own RNG), never from
// an observer's reads_since_check, so every observer of one walk sees the
// same evictions.
enum class ReplacementKind { lru, fifo, random_repl };

struct CacheConfig {
  std::string name = "cache";
  std::size_t capacity_bytes = 32 * 1024;
  std::size_t ways = 4;
  std::size_t block_bytes = 64;
  ReplacementKind replacement = ReplacementKind::lru;

  std::size_t sets() const { return capacity_bytes / (ways * block_bytes); }
  bool operator==(const CacheConfig&) const = default;
};

// The hooks shape every access path is templated over, as a type that
// does nothing: the L1 instantiation, and the hierarchy walk with no
// policy attached. The read-path policies (core/policy_impl.hpp) are the
// L2 instantiations.
struct NullHooks {
  // A read lookup touched this set (parallel-access caches physically read
  // every way). The view spans all k ways, valid or not; hit_way is the
  // matching index or -1 on a miss.
  void on_read_lookup(CacheSetView, int) {}

  // A write lookup (L1 writeback / store update) touched this set; on a hit
  // the line is about to be rewritten. Write lookups compare tags but do
  // not read the data ways, so they cause no concealed reads.
  void on_write_lookup(CacheSetView, int) {}

  // The line at index `line` (set_base(set) + way) was just filled. Its
  // ones count is not looked up yet (see CacheSetView::ones).
  void on_fill(std::size_t) {}

  // Way `way` of this set, still valid and dirty or not, is about to be
  // evicted. The view is the whole set, so a hook that needs the victim's
  // count reads set.ones(way) -- and only such a hook pays the lookup.
  void on_evict(CacheSetView, std::size_t, bool) {}

  // Software-prefetch the hooks' own per-line state for the set at line
  // index `base` (the drive loop calls it alongside the cache's
  // prefetch_set). A hint only.
  void prefetch(std::size_t) const {}
};

struct CacheStats {
  std::uint64_t read_lookups = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_lookups = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  double read_hit_rate() const {
    return read_lookups == 0
               ? 0.0
               : static_cast<double>(read_hits) /
                     static_cast<double>(read_lookups);
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(CacheConfig cfg, std::uint64_t seed = 1);

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Ones-count provider for this cache's lines; default keeps ones at half
  // the block bits. Set it before the walk: a line's count is looked up
  // at its first read, through the provider set then.
  void set_ones_provider(OnesProvider provider) {
    resolver_.provider = provider;
  }

  // Length of a per-line column laid out like this cache's (sets x the
  // padded per-set stride): what an observer allocates for its own
  // reads_since_check column. A line's index is set_base(set) + way.
  std::size_t lines() const { return sets_ * stride_; }
  std::size_t set_base(std::size_t set) const { return set * stride_; }

  struct Evicted {
    bool any = false;
    bool dirty = false;
    std::uint64_t addr = 0;
  };

  // Read lookup. Returns hit; does NOT fill on miss (caller decides).
  template <class Hooks>
  bool read(std::uint64_t addr, Hooks& hooks) {
    return read_pre(set_of(addr), tagv_of(addr), hooks);
  }

  // Pre-decoded read lookup: `set`/`tagv` must equal set_of(addr)/
  // tagv_of(addr) for the looked-up address (the batch pre-decode pass
  // hoists that derivation out of the per-access path).
  template <class Hooks>
  bool read_pre(std::size_t set, std::uint64_t tagv, Hooks& hooks) {
    ++stats_.read_lookups;
    const int way = find_way(set, tagv);
    hooks.on_read_lookup(view_of(set), way);
    if (way < 0) return false;
    ++stats_.read_hits;
    touch(set * stride_ + static_cast<std::size_t>(way));
    return true;
  }

  // Write lookup. On a hit the line is rewritten in place (dirty; the
  // observers clear their accumulation in on_write_lookup). The ones entry
  // is kept, resolved or not: providers are address-deterministic (the
  // OnesProvider contract), so re-deriving it for the same line is the
  // same value. Returns hit.
  template <class Hooks>
  bool write(std::uint64_t addr, Hooks& hooks) {
    const std::size_t set = set_of(addr);
    ++stats_.write_lookups;
    const int way = find_way(set, tagv_of(addr));
    hooks.on_write_lookup(view_of(set), way);
    if (way < 0) return false;
    ++stats_.write_hits;
    const std::size_t idx = set * stride_ + static_cast<std::size_t>(way);
    state_[idx].dirty = true;
    touch(idx);
    return true;
  }

  // Installs addr's block, evicting if needed; returns the evicted victim.
  // Precondition (validated by tests, not re-scanned here — this is the
  // hot miss path): addr's block is not already present.
  template <class Hooks>
  Evicted fill(std::uint64_t addr, bool dirty, Hooks& hooks) {
    const std::size_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);

    Evicted ev;
    const std::size_t w = victim_way(set);
    const std::size_t idx = set * stride_ + w;
    LineState& st = state_[idx];
    if (st.valid) {
      hooks.on_evict(view_of(set), w, st.dirty);
      ev.any = true;
      ev.dirty = st.dirty;
      ev.addr = line_addr(tags_[idx] >> 1, set);
      ++stats_.evictions;
      if (st.dirty) ++stats_.dirty_evictions;
    }
    tags_[idx] = (tag << 1) | 1;
    st.valid = true;
    st.dirty = dirty;
    ones_[idx] = kOnesUnresolved;  // looked up by its first reader
    st.fill_stamp = ++clock_;
    lru_[idx] = clock_;
    ++stats_.fills;
    hooks.on_fill(idx);
    return ev;
  }

  // True if addr's block is present (no stats/hook side effects).
  bool probe(std::uint64_t addr) const {
    return find_way(set_of(addr), tagv_of(addr)) >= 0;
  }

  // Invalidates addr's block if present; returns whether it was dirty.
  bool invalidate(std::uint64_t addr);

  // Snapshot of one line for tests and diagnostics. Resolves a valid
  // line's ones count, like a check would.
  struct LineInfo {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint32_t ones = 0;
    std::uint64_t lru_stamp = 0;
    std::uint64_t fill_stamp = 0;
  };
  LineInfo line_info(std::size_t set, std::size_t way);

  std::size_t set_of(std::uint64_t addr) const {
    return (addr >> offset_bits_) & (sets_ - 1);
  }
  std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (offset_bits_ + index_bits_);
  }
  // Dense column entry: (tag << 1) | valid. Invalid entries are 0, which
  // never equals a valid key (those are odd), so the scan needs no
  // separate valid test.
  std::uint64_t tagv_of(std::uint64_t addr) const {
    return (tag_of(addr) << 1) | 1;
  }
  std::uint64_t line_addr(std::uint64_t tag, std::size_t set) const {
    return (tag << (offset_bits_ + index_bits_)) |
           (static_cast<std::uint64_t>(set) << offset_bits_);
  }

  // Geometry for the batch pre-decode pass (simd::predecode must produce
  // exactly set_of / tagv_of).
  unsigned offset_bits() const { return offset_bits_; }
  unsigned index_bits() const { return index_bits_; }

  // Software-prefetch a set's hot metadata (tag + ones + lru columns)
  // ahead of its lookup. A hint only: no stats, no state, no output
  // effect.
  void prefetch_set(std::size_t set) const {
    const std::size_t base = set * stride_;
    simd::prefetch(&tags_[base]);
    simd::prefetch(&ones_[base]);
    simd::prefetch(&lru_[base]);
  }

 private:
  CacheSetView view_of(std::size_t set) {
    const std::size_t base = set * stride_;
    return {&tags_[base], &ones_[base], cfg_.ways, base, /*padded=*/true,
            &resolver_, static_cast<std::uint64_t>(set) << offset_bits_};
  }

  int find_way(std::size_t set, std::uint64_t tagv) const {
    return simd::find_way(&tags_[set * stride_], cfg_.ways, tagv);
  }

  // Victim selection. LRU is the hot case -- a single min-stamp scan over
  // the set's lru column. lru/fifo need no
  // separate invalid-ways pass: an invalid line's stamps are 0 and every
  // valid line's are >= 1 (clock_ pre-increments), so the min-stamp scan
  // already prefers the first invalid way — the same victim the two-pass
  // form picked. random falls through to the cold helper.
  std::size_t victim_way(std::size_t set) {
    const std::size_t base = set * stride_;
    switch (cfg_.replacement) {
      case ReplacementKind::lru:
        return simd::victim_min(&lru_[base], cfg_.ways);
      case ReplacementKind::fifo: {
        const LineState* st = &state_[base];
        std::size_t v = 0;
        for (std::size_t w = 1; w < cfg_.ways; ++w) {
          if (st[w].fill_stamp < st[v].fill_stamp) v = w;
        }
        return v;
      }
      default:
        break;
    }
    return victim_way_rare(set);
  }

  std::size_t victim_way_rare(std::size_t set);
  void touch(std::size_t idx) { lru_[idx] = ++clock_; }

  CacheConfig cfg_;
  std::size_t sets_;
  std::size_t stride_;  // simd::padded_ways(cfg_.ways) entries per set
  unsigned offset_bits_;
  unsigned index_bits_;
  simd::AlignedVec<std::uint64_t> tags_;  // dense (tag << 1) | valid column
  simd::AlignedVec<std::uint32_t> ones_;  // payload popcounts, lazily resolved
  simd::AlignedVec<std::uint64_t> lru_;   // hot lru-stamp column
  std::vector<LineState> state_;          // cold valid/dirty/fifo column
  CacheStats stats_;
  OnesResolver resolver_;
  std::uint64_t clock_ = 0;
  common::Rng rng_;
};

}  // namespace reap::sim
