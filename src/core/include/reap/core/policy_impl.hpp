// Concrete, non-virtual read-path policy implementations: the compile-time
// dispatch targets the experiment engine instantiates the cache/hierarchy
// access path over. See read_path.hpp for the policy taxonomy.
//
// Each impl has the sim hooks shape (on_read_lookup / on_write_lookup /
// on_fill / on_evict / prefetch) plus events(). Shared write/fill/evict
// bookkeeping lives in PolicyImplBase, a CRTP base so the eviction path
// reaches the derived check_failure without a vtable.
//
// An impl is an *observer* of the L2: the cache's columns (tags, ones,
// LRU, dirty) are the same whichever policy watches, so the one piece of
// per-policy line state, reads_since_check, lives here -- a column each
// impl owns, laid out with the cache's padded stride (PolicyContext::
// lines) and indexed by the cache's line index. Any number of impls can
// therefore observe one walk (PolicyObservers below).
//
// Loops that only bump accumulation counters go through
// CacheSetView::accumulate_valid — a whole-set vector kernel
// (sim/simd.hpp) when the view spans the cache's padded columns, the
// branchless scalar walk (counter += valid_bit) otherwise; both are
// value-identical. Loops that append ledger entries per way keep the
// branchy form: the ledger's floating-point sum and histogram sequence
// must stay in exact way order.
#pragma once

#include <tuple>
#include <type_traits>
#include <vector>

#include "reap/common/assert.hpp"
#include "reap/core/read_path.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/simd.hpp"

namespace reap::core {

template <class Derived>
class PolicyImplBase {
 public:
  explicit PolicyImplBase(const PolicyContext& ctx)
      : ctx_(ctx), reads_(ctx.lines) {
    REAP_EXPECTS(ctx.model != nullptr);
    REAP_EXPECTS(ctx.ledger != nullptr);
    REAP_EXPECTS(ctx.ways >= 1);
    REAP_EXPECTS(ctx.lines >= sim::simd::padded_ways(ctx.ways));
  }

  const EnergyEvents& events() const { return events_; }
  void reset_events() { events_ = EnergyEvents{}; }

  // This observer's concealed reads since the last ECC check or rewrite
  // of the line at index `line` (the paper's N - 1).
  std::uint32_t reads_since_check(std::size_t line) const {
    return reads_[line];
  }
  std::uint32_t& reads_since_check(std::size_t line) { return reads_[line]; }

  void prefetch(std::size_t base) const { sim::simd::prefetch(&reads_[base]); }

  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    if (hit_way >= 0) {
      // The hit way's data (and its freshly-encoded ECC) is rewritten, so
      // every cell is refreshed: its concealed-read window closes.
      ++events_.way_data_writes;
      ++events_.ecc_encodes;
      ++events_.tag_writes;  // dirty-bit / LRU state update
      reads_[set.base() + static_cast<std::size_t>(hit_way)] = 0;
    }
  }

  void on_fill(std::size_t line) {
    reads_[line] = 0;  // a freshly written line has no concealed reads
    ++events_.way_data_writes;
    ++events_.ecc_encodes;
    ++events_.tag_writes;
  }

  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    if (!ctx_.check_on_dirty_eviction || !dirty) return;
    // Extension: the victim is read out through the ECC path before its
    // writeback, which both costs a decode and realizes any accumulated
    // uncorrectable state. Only this check needs the victim's ones count,
    // so only it looks the count up.
    ++events_.ecc_decodes;
    ++events_.way_data_reads;
    std::uint32_t& reads = set_reads(set)[way];
    ctx_.ledger->record_unattributed(
        derived().check_failure(set.ones(way), reads));
    reads = 0;
  }

 protected:
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }

  // This observer's reads_since_check slice for `set` (way w at [w]).
  std::uint32_t* set_reads(const sim::CacheSetView& set) {
    return reads_.data() + set.base();
  }

  // The Fig. 2 lookup shape: every way sensed in parallel, only the hit
  // way ECC-checked with Eq. (3)'s accumulated window. Shared by
  // ConventionalPolicyImpl and ScrubPolicyImpl's non-scrub accesses.
  void conventional_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    // Fast-access mode: every way's data is read in parallel with the tag
    // compare, hit or miss.
    events_.way_data_reads += set.size();

    // Every valid way's data is sensed; count the read on all of them,
    // then rewind the hit way, whose read is checked, not concealed.
    std::uint32_t* reads = set_reads(set);
    set.accumulate_valid(reads);

    if (hit_way >= 0) {
      // The requested way goes through the single ECC decoder. Its failure
      // probability reflects the disturbance accumulated over the
      // concealed reads since its last check, plus this read (Eq. 3's N).
      ++events_.ecc_decodes;
      const auto w = static_cast<std::size_t>(hit_way);
      const std::uint64_t concealed = reads[w] - 1;
      ctx_.ledger->record_check(
          concealed, ctx_.model->conventional(set.ones(w), concealed + 1));
      reads[w] = 0;  // checked (and scrubbed) now
    }
  }

  PolicyContext ctx_;
  EnergyEvents events_;

 private:
  sim::simd::AlignedVec<std::uint32_t> reads_;  // reads_since_check column
};

// Fig. 2: parallel access, single ECC decoder after the way MUX.
class ConventionalPolicyImpl final
    : public PolicyImplBase<ConventionalPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::conventional_parallel;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    conventional_read_lookup(set, hit_way);
  }

  double check_failure(std::uint32_t ones, std::uint32_t reads) const {
    return ctx_.model->conventional(ones, reads + 1);
  }
};

// Fig. 4: parallel access, k ECC decoders before the way MUX (the paper's
// proposal).
class ReapPolicyImpl final : public PolicyImplBase<ReapPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::reap;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();
    // One decoder per way: all of them fire on every read access (Fig. 4).
    events_.ecc_decodes += set.size();

    // The counter still advances on concealed reads so Eq. (6)'s N is
    // known at the next real read; the physical scrub is what
    // distinguishes this from the conventional counter (the formula, not
    // the bookkeeping, changes).
    std::uint32_t* reads = set_reads(set);
    set.accumulate_valid(reads);

    if (hit_way >= 0) {
      // Every read since the last delivery was individually checked and
      // scrubbed; correct delivery requires all N per-read checks to have
      // passed (Eq. 6).
      const auto w = static_cast<std::size_t>(hit_way);
      const std::uint64_t concealed = reads[w] - 1;
      ctx_.ledger->record_check(concealed,
                                ctx_.model->reap(set.ones(w), concealed + 1));
      reads[w] = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint32_t reads) const {
    return ctx_.model->reap(ones, reads + 1);
  }
};

// Sec. IV approach (1): read the data way only after the tag compare.
class SerialPolicyImpl final : public PolicyImplBase<SerialPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::serial_tag_then_data;
  using PolicyImplBase::PolicyImplBase;

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    if (hit_way < 0) return;  // miss costs only the tag compare

    // Only the matching way is ever read, after the compare: no concealed
    // reads exist anywhere, so every check sees N = 1.
    const auto w = static_cast<std::size_t>(hit_way);
    ++events_.way_data_reads;
    ++events_.ecc_decodes;
    REAP_ASSERT(set_reads(set)[w] == 0);
    ctx_.ledger->record_check(0, ctx_.model->single(set.ones(w)));
  }

  double check_failure(std::uint32_t ones, std::uint32_t) const {
    return ctx_.model->single(ones);
  }
};

// Refs [14][15]: parallel access with a restore write after every read of
// every way. Removes accumulation without extra decoders, but each restore
// can fail as a write and burns write energy -- the trade-off the paper
// criticizes.
class RestorePolicyImpl final : public PolicyImplBase<RestorePolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::disruptive_restore;

  explicit RestorePolicyImpl(const PolicyContext& ctx) : PolicyImplBase(ctx) {
    REAP_EXPECTS(ctx.write_fail_per_cell >= 0.0 &&
                 ctx.write_fail_per_cell < 1.0);
    // A restore rewrites the whole codeword; the line fails when more
    // write errors land than the code corrects.
    p_restore_fail_ = reliability::p_uncorrectable(
        ctx.codeword_bits, ctx.model->t(), ctx.write_fail_per_cell);
  }

  double restore_failure_prob() const { return p_restore_fail_; }

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();

    // Branchy on purpose: every valid way appends a ledger entry, and the
    // ledger sum must accumulate in exact way order.
    std::uint32_t* reads = set_reads(set);
    for (int w = 0; w < static_cast<int>(set.size()); ++w) {
      const auto way = static_cast<std::size_t>(w);
      if (!set.valid(way)) continue;
      // Restore-after-read: the sensed value (captured before the
      // disturbance manifests) is immediately written back, so no
      // accumulation survives -- but the restore write itself can fail.
      ++events_.way_data_writes;
      if (w == hit_way) {
        ++events_.ecc_decodes;
        ctx_.ledger->record_check(
            reads[way], ctx_.model->single(set.ones(way)) + p_restore_fail_);
      } else {
        ctx_.ledger->record_unattributed(p_restore_fail_);
      }
      reads[way] = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint32_t) const {
    return ctx_.model->single(ones);
  }

 private:
  double p_restore_fail_;  // P(> t write failures in one restored codeword)
};

// Extension: conventional read path + periodic piggyback scrubbing. Every
// scrub_every-th read lookup behaves like a REAP access for its set (all
// ways checked and scrubbed); all other lookups are plain conventional.
// Interpolates between the two designs at proportional decode energy.
class ScrubPolicyImpl final : public PolicyImplBase<ScrubPolicyImpl> {
 public:
  static constexpr PolicyKind kKind = PolicyKind::scrub_piggyback;

  explicit ScrubPolicyImpl(const PolicyContext& ctx)
      : PolicyImplBase(ctx), countdown_(ctx.scrub_every) {
    REAP_EXPECTS(ctx.scrub_every >= 1);
  }

  std::uint64_t scrubs_performed() const { return scrubs_; }

  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    const bool scrub_now = --countdown_ == 0;
    if (!scrub_now) {
      conventional_read_lookup(set, hit_way);
      return;
    }

    ++events_.lookups;
    ++events_.tag_reads;
    events_.way_data_reads += set.size();
    countdown_ = ctx_.scrub_every;
    ++scrubs_;
    // Scrub access: every way's window closes with a full check, so the
    // ledger sees one entry per valid way — keep exact way order.
    std::uint32_t* reads = set_reads(set);
    for (int w = 0; w < static_cast<int>(set.size()); ++w) {
      ++events_.ecc_decodes;  // decoder fires even on invalid ways
      const auto way = static_cast<std::size_t>(w);
      if (!set.valid(way)) continue;
      if (w == hit_way) {
        // The requested way is always checked (conventional behaviour).
        // Its window accumulated since the last check or scrub (Eq. 3).
        const std::uint64_t concealed = reads[way];
        ctx_.ledger->record_check(
            concealed, ctx_.model->conventional(set.ones(way), concealed + 1));
      } else {
        // Scrubbed concealed way: its window ends here with a full check,
        // so the accumulated risk is realized now instead of at the next
        // real read (same Eq. 3 window, just closed early).
        ctx_.ledger->record_check(
            reads[way],
            ctx_.model->conventional(set.ones(way), reads[way] + 1));
      }
      reads[way] = 0;
    }
  }

  double check_failure(std::uint32_t ones, std::uint32_t reads) const {
    return ctx_.model->conventional(ones, reads + 1);
  }

 private:
  std::uint64_t countdown_;
  std::uint64_t scrubs_ = 0;
};

// The single point where a runtime PolicyKind becomes a compile-time type:
// constructs the matching impl and invokes fn with it. Every caller's fn
// must return the same type for all impls.
template <class Fn>
decltype(auto) with_policy_impl(PolicyKind kind, const PolicyContext& ctx,
                                Fn&& fn) {
  switch (kind) {
    case PolicyKind::conventional_parallel: {
      ConventionalPolicyImpl p(ctx);
      return fn(p);
    }
    case PolicyKind::reap: {
      ReapPolicyImpl p(ctx);
      return fn(p);
    }
    case PolicyKind::serial_tag_then_data: {
      SerialPolicyImpl p(ctx);
      return fn(p);
    }
    case PolicyKind::disruptive_restore: {
      RestorePolicyImpl p(ctx);
      return fn(p);
    }
    case PolicyKind::scrub_piggyback: {
      ScrubPolicyImpl p(ctx);
      return fn(p);
    }
  }
  REAP_ASSERT(false && "unreachable: sealed PolicyKind");
  ConventionalPolicyImpl p(ctx);
  return fn(p);
}

// Every read-path observer of one hierarchy walk: one vector per impl
// type, so each hook is a fixed run of typed loops -- no per-access switch
// on PolicyKind, and a group of one runs the same code as a group of
// many. The observers share nothing but the walk: each owns its
// reads_since_check column and events, and records into the ledger its
// context names. This is the L2 hooks type core::run_experiment_group
// drives the hierarchy with.
class PolicyObservers {
 public:
  // Where an added observer lives: its impl type and its slot there.
  struct Handle {
    PolicyKind kind;
    std::size_t slot;
  };

  Handle add(PolicyKind kind, const PolicyContext& ctx) {
    return with_policy_impl(kind, ctx, [&](auto& policy) {
      using Impl = std::remove_reference_t<decltype(policy)>;
      auto& slots = std::get<std::vector<Impl>>(impls_);
      slots.push_back(std::move(policy));
      return Handle{kind, slots.size() - 1};
    });
  }

  const EnergyEvents& events(Handle h) const {
    const EnergyEvents* out = nullptr;
    each(*this, [&](const auto& policy, std::size_t slot) {
      if (std::remove_cvref_t<decltype(policy)>::kKind == h.kind &&
          slot == h.slot)
        out = &policy.events();
    });
    REAP_EXPECTS(out != nullptr);
    return *out;
  }

  void reset_events() {
    each(*this, [](auto& policy, std::size_t) { policy.reset_events(); });
  }

  // The hooks shape (sim/cache.hpp NullHooks), fanned out to every
  // observer.
  void on_read_lookup(sim::CacheSetView set, int hit_way) {
    each(*this, [&](auto& policy, std::size_t) {
      policy.on_read_lookup(set, hit_way);
    });
  }
  void on_write_lookup(sim::CacheSetView set, int hit_way) {
    each(*this, [&](auto& policy, std::size_t) {
      policy.on_write_lookup(set, hit_way);
    });
  }
  void on_fill(std::size_t line) {
    each(*this, [&](auto& policy, std::size_t) { policy.on_fill(line); });
  }
  void on_evict(sim::CacheSetView set, std::size_t way, bool dirty) {
    each(*this, [&](auto& policy, std::size_t) {
      policy.on_evict(set, way, dirty);
    });
  }
  void prefetch(std::size_t base) const {
    each(*this, [&](const auto& policy, std::size_t) {
      policy.prefetch(base);
    });
  }

 private:
  // fn(policy, slot) for every observer, impl type by impl type.
  template <class Self, class Fn>
  static void each(Self& self, Fn&& fn) {
    std::apply(
        [&](auto&... slots) {
          const auto visit = [&](auto& impls) {
            for (std::size_t i = 0; i < impls.size(); ++i) fn(impls[i], i);
          };
          (visit(slots), ...);
        },
        self.impls_);
  }

  std::tuple<std::vector<ConventionalPolicyImpl>, std::vector<ReapPolicyImpl>,
             std::vector<SerialPolicyImpl>, std::vector<RestorePolicyImpl>,
             std::vector<ScrubPolicyImpl>>
      impls_;
};

}  // namespace reap::core
