// Unit tests driving the read-path policies directly on synthetic cache
// sets, verifying the accumulation bookkeeping (each policy's own
// reads_since_check column), ledger entries, and energy event counts of
// each policy.
#include "reap/core/policy_impl.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "reap/reliability/binomial.hpp"

namespace reap::core {
namespace {

constexpr double kPrd = 1e-8;

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture() : model_(kPrd, 1, 512) {
    ctx_.model = &model_;
    ctx_.ledger = &ledger_;
    ctx_.ways = 4;
    ctx_.lines = 4;  // one 4-way set at line index 0
    ctx_.write_fail_per_cell = 1e-9;
    ctx_.codeword_bits = 523;
    // 4-way set: ways 0..2 valid with 100 ones each, way 3 invalid.
    for (int w = 0; w < 3; ++w) {
      tagv_[w] = (std::uint64_t(10 + w) << 1) | 1;
      ones_[w] = 100;
    }
  }

  sim::CacheSetView ways() { return {tagv_, ones_, 4}; }

  reliability::UncorrectableModel model_;
  reliability::FailureLedger ledger_;
  PolicyContext ctx_;
  std::uint64_t tagv_[4] = {0, 0, 0, 0};
  std::uint32_t ones_[4] = {0, 0, 0, 0};
};

// Every way's reads_since_check in `p`'s own column.
template <class Policy>
std::vector<std::uint32_t> reads_of(const Policy& p) {
  std::vector<std::uint32_t> out;
  for (std::size_t w = 0; w < 4; ++w) out.push_back(p.reads_since_check(w));
  return out;
}

TEST_F(PolicyFixture, FactoryProducesAllKinds) {
  for (const PolicyKind k : all_policies()) {
    const PolicyKind made = with_policy_impl(k, ctx_, [](auto& policy) {
      return std::remove_reference_t<decltype(policy)>::kKind;
    });
    EXPECT_EQ(made, k);
  }
}

TEST_F(PolicyFixture, PolicyNamesRoundTrip) {
  for (const PolicyKind k : all_policies()) {
    const auto parsed = policy_from_string(to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(policy_from_string("bogus").has_value());
}

// ----------------------------------------------------------- conventional

TEST_F(PolicyFixture, ConventionalConcealedReadsAccumulate) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), /*hit_way=*/0);
  EXPECT_EQ(p.reads_since_check(0), 0u);  // checked
  EXPECT_EQ(p.reads_since_check(1), 1u);  // concealed
  EXPECT_EQ(p.reads_since_check(2), 1u);
  EXPECT_EQ(p.reads_since_check(3), 0u);  // invalid: untouched

  p.on_read_lookup(ways(), /*hit_way=*/-1);  // miss: everyone concealed
  EXPECT_EQ(p.reads_since_check(0), 1u);
  EXPECT_EQ(p.reads_since_check(1), 2u);
}

TEST_F(PolicyFixture, ConventionalChecksOnlyHitWay) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 1);
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_EQ(p.events().ecc_decodes, 1u);
  p.on_read_lookup(ways(), -1);  // miss: no decode at all
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_EQ(p.events().ecc_decodes, 1u);
}

TEST_F(PolicyFixture, ConventionalFailureUsesEq3) {
  ConventionalPolicyImpl p(ctx_);
  // Accumulate 5 concealed reads on way 1 (6 misses would also bump others).
  for (int i = 0; i < 5; ++i) p.on_read_lookup(ways(), 0);
  ledger_.reset();
  p.on_read_lookup(ways(), 1);  // way 1 now read with N = 5 + 1
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_acc(100, 6, kPrd), 1e-20);
  EXPECT_EQ(ledger_.max_concealed(), 5u);
}

TEST_F(PolicyFixture, ConventionalReadsAllWaysEvenOnMiss) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_reads, 4u);
  EXPECT_EQ(p.events().tag_reads, 1u);
  EXPECT_EQ(p.events().lookups, 1u);
}

// ------------------------------------------------------------------- reap

TEST_F(PolicyFixture, ReapDecodesEveryWayEveryAccess) {
  ReapPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().ecc_decodes, 4u);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().ecc_decodes, 8u);
}

TEST_F(PolicyFixture, ReapFailureUsesEq6) {
  ReapPolicyImpl p(ctx_);
  for (int i = 0; i < 5; ++i) p.on_read_lookup(ways(), 0);
  ledger_.reset();
  p.on_read_lookup(ways(), 1);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_reap(100, 6, kPrd), 1e-20);
}

TEST_F(PolicyFixture, ReapStrictlyBeatsConventionalOnAccumulatedLines) {
  // Both observe the same set; each keeps its own accumulation column.
  ConventionalPolicyImpl pc(ctx_);
  reliability::FailureLedger ledger2;
  PolicyContext ctx2 = ctx_;
  ctx2.ledger = &ledger2;
  ReapPolicyImpl pr(ctx2);

  for (int i = 0; i < 50; ++i) {
    pc.on_read_lookup(ways(), 0);
    pr.on_read_lookup(ways(), 0);
  }
  pc.on_read_lookup(ways(), 1);
  pr.on_read_lookup(ways(), 1);
  EXPECT_GT(ledger_.total_failure_prob(), ledger2.total_failure_prob() * 10);
}

// ----------------------------------------------------------------- serial

TEST_F(PolicyFixture, SerialNeverCreatesConcealedReads) {
  SerialPolicyImpl p(ctx_);
  for (int i = 0; i < 10; ++i) p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.reads_since_check(1), 0u);
  EXPECT_EQ(p.reads_since_check(2), 0u);
}

TEST_F(PolicyFixture, SerialReadsOnlyHitWay) {
  SerialPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 2);
  EXPECT_EQ(p.events().way_data_reads, 1u);
  p.on_read_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_reads, 1u);  // miss reads nothing
}

TEST_F(PolicyFixture, SerialFailureIsSingleRead) {
  SerialPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block(100, kPrd), 1e-20);
}

// ---------------------------------------------------------------- restore

TEST_F(PolicyFixture, RestoreWritesEveryValidWay) {
  RestorePolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().way_data_writes, 3u);  // 3 valid ways restored
  EXPECT_EQ(p.events().way_data_reads, 4u);
}

TEST_F(PolicyFixture, RestoreClearsAccumulationEverywhere) {
  RestorePolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  for (const auto reads : reads_of(p)) EXPECT_EQ(reads, 0u);
}

TEST_F(PolicyFixture, RestoreChargesWriteFailures) {
  RestorePolicyImpl p(ctx_);
  EXPECT_GT(p.restore_failure_prob(), 0.0);
  p.on_read_lookup(ways(), 0);
  // 1 checked read (single-read formula) + 3 restore failures... the hit
  // way's entry already folds its own restore failure in.
  const double expected =
      reliability::p_uncorrectable_block(100, kPrd) +
      3.0 * p.restore_failure_prob();
  EXPECT_NEAR(ledger_.total_failure_prob(), expected, expected * 1e-9);
}

// ------------------------------------------------------------------ scrub

TEST_F(PolicyFixture, ScrubEveryOneMatchesReapDecodeCount) {
  ctx_.scrub_every = 1;
  ScrubPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.events().ecc_decodes, 4u);  // all ways, like REAP
  EXPECT_EQ(p.scrubs_performed(), 1u);
  for (const auto reads : reads_of(p)) EXPECT_EQ(reads, 0u);
}

TEST_F(PolicyFixture, ScrubPeriodicityHonored) {
  ctx_.scrub_every = 4;
  ScrubPolicyImpl p(ctx_);
  for (int i = 0; i < 8; ++i) p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.scrubs_performed(), 2u);
  // Non-scrub accesses decode only the hit way: 6 x 1 + 2 x 4.
  EXPECT_EQ(p.events().ecc_decodes, 6u + 8u);
}

TEST_F(PolicyFixture, ScrubClosesConcealedWindowsEarly) {
  ctx_.scrub_every = 3;
  ScrubPolicyImpl p(ctx_);
  // Two conventional lookups accumulate on ways 1 and 2; the third scrubs.
  p.on_read_lookup(ways(), 0);
  p.on_read_lookup(ways(), 0);
  EXPECT_EQ(p.reads_since_check(1), 2u);
  ledger_.reset();
  p.on_read_lookup(ways(), 0);  // scrub access
  EXPECT_EQ(p.reads_since_check(1), 0u);
  EXPECT_EQ(p.reads_since_check(2), 0u);
  // Ledger saw: the hit way (N=1) plus two scrubbed ways (N=3 windows).
  EXPECT_EQ(ledger_.checks(), 3u);
}

TEST_F(PolicyFixture, ScrubBetweenConventionalAndReap) {
  // Total accumulated failure mass: conventional >= scrub(16) >= reap.
  auto run_total = [&](PolicyKind kind, std::uint64_t every) {
    reliability::FailureLedger ledger;
    PolicyContext ctx = ctx_;
    ctx.ledger = &ledger;
    ctx.scrub_every = every;
    with_policy_impl(kind, ctx, [&](auto& policy) {
      for (int i = 0; i < 200; ++i) {
        policy.on_read_lookup(ways(), i % 50 == 0 ? 1 : 0);
      }
    });
    return ledger.total_failure_prob();
  };
  const double conv = run_total(PolicyKind::conventional_parallel, 0);
  const double scrub = run_total(PolicyKind::scrub_piggyback, 16);
  const double reap = run_total(PolicyKind::reap, 0);
  EXPECT_GT(conv, scrub);
  EXPECT_GT(scrub, reap);
}

// ------------------------------------------------------- shared behaviour

TEST_F(PolicyFixture, WriteLookupCountsEncodeOnHit) {
  ConventionalPolicyImpl p(ctx_);
  p.on_write_lookup(ways(), 1);
  EXPECT_EQ(p.events().way_data_writes, 1u);
  EXPECT_EQ(p.events().ecc_encodes, 1u);
  p.on_write_lookup(ways(), -1);
  EXPECT_EQ(p.events().way_data_writes, 1u);  // miss writes nothing here
  EXPECT_EQ(p.events().lookups, 2u);
}

TEST_F(PolicyFixture, WriteHitClearsOnlyTheHitWaysAccumulation) {
  ConventionalPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), -1);  // ways 0..2 accumulate one concealed read
  p.on_write_lookup(ways(), 1);  // way 1 rewritten: its window closes
  EXPECT_EQ(reads_of(p), (std::vector<std::uint32_t>{1, 0, 1, 0}));
  p.on_write_lookup(ways(), -1);  // a write miss rewrites nothing
  EXPECT_EQ(reads_of(p), (std::vector<std::uint32_t>{1, 0, 1, 0}));
}

TEST_F(PolicyFixture, FillCountsAsWrite) {
  ReapPolicyImpl p(ctx_);
  p.reads_since_check(3) = 7;  // whatever the way's previous line left
  p.on_fill(3);
  EXPECT_EQ(p.reads_since_check(3), 0u);  // a fresh line starts unread
  EXPECT_EQ(p.events().way_data_writes, 1u);
  EXPECT_EQ(p.events().ecc_encodes, 1u);
}

TEST_F(PolicyFixture, EvictionCheckOffByDefault) {
  ConventionalPolicyImpl p(ctx_);
  p.reads_since_check(0) = 100;
  p.on_evict(ways(), 0, /*dirty=*/true);
  EXPECT_EQ(ledger_.checks(), 0u);
  EXPECT_EQ(p.events().ecc_decodes, 0u);
}

TEST_F(PolicyFixture, EvictionCheckExtensionChargesDirtyVictims) {
  ctx_.check_on_dirty_eviction = true;
  ConventionalPolicyImpl p(ctx_);
  p.reads_since_check(0) = 99;
  p.on_evict(ways(), 0, /*dirty=*/true);
  EXPECT_EQ(ledger_.checks(), 1u);
  EXPECT_NEAR(ledger_.total_failure_prob(),
              reliability::p_uncorrectable_block_acc(100, 100, kPrd), 1e-18);
  EXPECT_EQ(p.reads_since_check(0), 0u);
  // Clean victims stay free.
  p.on_evict(ways(), 1, /*dirty=*/false);
  EXPECT_EQ(ledger_.checks(), 1u);
}

TEST_F(PolicyFixture, ObserversOfOneSetKeepSeparateColumns) {
  // PolicyObservers fans every hook out to each observer; an observer's
  // column moves only by its own policy's rules.
  reliability::FailureLedger ledger2;
  PolicyContext ctx2 = ctx_;
  ctx2.ledger = &ledger2;
  PolicyObservers obs;
  const auto conv = obs.add(PolicyKind::conventional_parallel, ctx_);
  const auto serial = obs.add(PolicyKind::serial_tag_then_data, ctx2);
  for (int i = 0; i < 3; ++i) obs.on_read_lookup(ways(), 0);
  EXPECT_EQ(obs.events(conv).ecc_decodes, 3u);
  EXPECT_EQ(obs.events(serial).ecc_decodes, 3u);
  EXPECT_EQ(obs.events(conv).way_data_reads, 12u);  // every way, parallel
  EXPECT_EQ(obs.events(serial).way_data_reads, 3u);  // the hit way only
  EXPECT_EQ(ledger_.max_concealed(), 0u);
  obs.on_read_lookup(ways(), 1);  // way 1 had 3 concealed reads, or none
  EXPECT_EQ(ledger_.max_concealed(), 3u);
  EXPECT_EQ(ledger2.max_concealed(), 0u);
  obs.reset_events();
  EXPECT_EQ(obs.events(conv).lookups, 0u);
  EXPECT_EQ(obs.events(serial).lookups, 0u);
}

TEST_F(PolicyFixture, ResetEventsZeroes) {
  ReapPolicyImpl p(ctx_);
  p.on_read_lookup(ways(), 0);
  p.reset_events();
  EXPECT_EQ(p.events().ecc_decodes, 0u);
  EXPECT_EQ(p.events().lookups, 0u);
}

}  // namespace
}  // namespace reap::core
