// The fault-injection registry is itself load-bearing test
// infrastructure (the chaos suite trusts it), so its grammar, matching
// and counting semantics get their own unit tests.
#include "reap/common/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

namespace reap::common::fault {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm(); }
  void TearDown() override {
    disarm();
    ::unsetenv(kEnvVar);
  }
};

TEST_F(FaultTest, UnarmedSitesAreSilent) {
  EXPECT_FALSE(armed());
  EXPECT_FALSE(hit("journal.write", "any/context").has_value());
  EXPECT_FALSE(hit("runner.point").has_value());
}

TEST_F(FaultTest, ArmRejectsBadGrammar) {
  std::string error;
  EXPECT_FALSE(arm("", &error));
  EXPECT_FALSE(arm("journal.write", &error));          // missing kind
  EXPECT_FALSE(arm("no.such.site:eio", &error));       // unknown site
  EXPECT_FALSE(arm("journal.write:sparks", &error));   // unknown kind
  EXPECT_FALSE(arm("journal.write:eio:0", &error));    // nth must be >= 1
  EXPECT_FALSE(arm("journal.write:eio:bogus", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(armed());  // nothing half-armed after a rejected spec
}

TEST_F(FaultTest, KnownSitesListTheCompiledInSet) {
  const auto& sites = known_sites();
  for (const char* site : {"journal.write", "journal.fsync", "worker.spawn",
                           "runner.point", "transport.connect",
                           "transport.stream"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
}

TEST_F(FaultTest, DefaultNthIsOneShot) {
  ASSERT_TRUE(arm("journal.write:eio"));
  EXPECT_TRUE(armed());
  const auto first = hit("journal.write", "row-1");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, Kind::eio);
  // One-shot: the second execution passes through.
  EXPECT_FALSE(hit("journal.write", "row-2").has_value());
}

TEST_F(FaultTest, NthFiresOnExactlyTheNthExecution) {
  ASSERT_TRUE(arm("journal.write:enospc:3"));
  EXPECT_FALSE(hit("journal.write").has_value());
  EXPECT_FALSE(hit("journal.write").has_value());
  const auto third = hit("journal.write");
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->kind, Kind::enospc);
  EXPECT_FALSE(hit("journal.write").has_value());
}

TEST_F(FaultTest, StarFiresOnEveryExecution) {
  ASSERT_TRUE(arm("journal.fsync:eio:*"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(hit("journal.fsync").has_value()) << "execution " << i;
  }
}

TEST_F(FaultTest, KeySubstringScopesTheFaultToMatchingContexts) {
  ASSERT_TRUE(arm("runner.point:eio:*:key=mcf/reap"));
  EXPECT_FALSE(hit("runner.point", "gcc/reap/t1/sc-/rr-/s0").has_value());
  EXPECT_TRUE(hit("runner.point", "mcf/reap/t1/sc-/rr-/s0").has_value());
  // Counting is per *matching* execution: a non-matching context does not
  // consume the occurrence budget.
  disarm();
  ASSERT_TRUE(arm("runner.point:eio:2:key=mcf"));
  EXPECT_FALSE(hit("runner.point", "mcf/a").has_value());  // match #1
  EXPECT_FALSE(hit("runner.point", "gcc/a").has_value());  // no match
  EXPECT_TRUE(hit("runner.point", "mcf/b").has_value());   // match #2
}

TEST_F(FaultTest, SitesAreIndependent) {
  ASSERT_TRUE(arm("journal.write:eio:*"));
  EXPECT_FALSE(hit("journal.fsync").has_value());
  EXPECT_FALSE(hit("transport.stream").has_value());
  EXPECT_TRUE(hit("journal.write").has_value());
}

TEST_F(FaultTest, CommaSeparatedSpecsArmTogether) {
  ASSERT_TRUE(arm("journal.write:eio:*,transport.stream:drop:*"));
  EXPECT_TRUE(hit("journal.write").has_value());
  const auto t = hit("transport.stream");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, Kind::drop);
}

TEST_F(FaultTest, TornWriteCarriesItsByteParam) {
  ASSERT_TRUE(arm("journal.write:torn-write:1:17"));
  const auto f = hit("journal.write");
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, Kind::torn_write);
  EXPECT_EQ(f->param, 17u);
}

TEST_F(FaultTest, SlowSleepsThenLetsTheCallProceed) {
  ASSERT_TRUE(arm("runner.point:slow:1:30"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(hit("runner.point").has_value());  // acted, nothing to do
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST_F(FaultTest, DisarmResetsCountersAndArming) {
  ASSERT_TRUE(arm("journal.write:eio:2"));
  EXPECT_FALSE(hit("journal.write").has_value());
  disarm();
  EXPECT_FALSE(armed());
  ASSERT_TRUE(arm("journal.write:eio:2"));
  EXPECT_FALSE(hit("journal.write").has_value());  // count restarted at 0
  EXPECT_TRUE(hit("journal.write").has_value());
}

TEST_F(FaultTest, ArmFromEnvIsANoOpWhenUnset) {
  ::unsetenv(kEnvVar);
  std::string error;
  EXPECT_TRUE(arm_from_env(&error));
  EXPECT_FALSE(armed());
}

TEST_F(FaultTest, ArmFromEnvReadsTheVariable) {
  ::setenv(kEnvVar, "journal.write:eio:*", 1);
  ASSERT_TRUE(arm_from_env());
  EXPECT_TRUE(hit("journal.write").has_value());
  ::setenv(kEnvVar, "garbage", 1);
  disarm();
  std::string error;
  EXPECT_FALSE(arm_from_env(&error));
  EXPECT_FALSE(error.empty());
}

TEST_F(FaultTest, KindNamesRoundTripThroughToString) {
  EXPECT_STREQ(to_string(Kind::crash), "crash");
  EXPECT_STREQ(to_string(Kind::hang), "hang");
  EXPECT_STREQ(to_string(Kind::eio), "eio");
  EXPECT_STREQ(to_string(Kind::enospc), "enospc");
  EXPECT_STREQ(to_string(Kind::torn_write), "torn-write");
  EXPECT_STREQ(to_string(Kind::slow), "slow");
  EXPECT_STREQ(to_string(Kind::drop), "drop");
  EXPECT_STREQ(to_string(Kind::stall), "stall");
  EXPECT_STREQ(to_string(Kind::garble), "garble");
}

// The transport kinds are returned to the call site like the I/O kinds:
// hit() itself must not act on them.
TEST_F(FaultTest, TransportKindsAreReturnedNotActedOn) {
  ASSERT_TRUE(arm(
      "transport.stream:drop:1:key=hosta,"
      "transport.stream:stall:1:key=hostb,transport.connect:garble"));
  const auto drop = hit("transport.stream", "hosta");
  ASSERT_TRUE(drop.has_value());
  EXPECT_EQ(drop->kind, Kind::drop);
  const auto stall = hit("transport.stream", "hostb");
  ASSERT_TRUE(stall.has_value());
  EXPECT_EQ(stall->kind, Kind::stall);
  const auto garble = hit("transport.connect", "hostc");
  ASSERT_TRUE(garble.has_value());
  EXPECT_EQ(garble->kind, Kind::garble);
}

// crash acts inside hit(): the process _exits with kCrashExit. Run it in
// a death-test child so the suite survives.
TEST_F(FaultTest, CrashExitsWithTheDedicatedCode) {
  ASSERT_TRUE(arm("runner.point:crash"));
  EXPECT_EXIT(hit("runner.point"), ::testing::ExitedWithCode(kCrashExit),
              "");
}

}  // namespace
}  // namespace reap::common::fault
