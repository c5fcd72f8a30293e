// Shared walks in a campaign run: WalkGroups runs each trace group once,
// over the members still to run, whichever thread asks first; every other
// member takes its own result -- and a campaign's bytes never depend on
// which points shared a walk or on which threads they landed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/campaign/walk_groups.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::file_bytes;
using testutil::temp_path;

// A group function that fakes each member's result and logs the call.
struct GroupLog {
  std::mutex mu;
  std::vector<std::vector<std::size_t>> calls;  // member indices per call

  WalkGroups::GroupFn fn() {
    return [this](const std::vector<const CampaignPoint*>& members) {
      std::vector<core::ExperimentResult> out;
      std::vector<std::size_t> indices;
      for (const auto* m : members) {
        out.push_back(fake_run(m->config));
        indices.push_back(m->index);
      }
      std::lock_guard lock(mu);
      calls.push_back(std::move(indices));
      return out;
    };
  }
};

RunnerOptions walk_options(WalkGroups& walks, unsigned threads) {
  RunnerOptions opts;
  opts.threads = threads;
  opts.group_key = [](const CampaignPoint& pt) { return pt.trace_key; };
  opts.run_point_fn = [&walks](const CampaignPoint& pt) {
    return walks.take(pt);
  };
  return opts;
}

TEST(WalkGroups, EachGroupRunsOnceOverItsRemainingMembers) {
  // A resumed run: some points are already journaled, so a group's walk
  // covers only the members still to run, in input order.
  const auto all = expand(testutil::grid_24());
  std::vector<CampaignPoint> to_run;
  for (const auto& pt : all)
    if (pt.index % 3 != 1) to_run.push_back(pt);

  GroupLog log;
  WalkGroups walks(to_run, log.fn());
  const auto results = CampaignRunner(walk_options(walks, 3)).run(to_run);

  ASSERT_EQ(log.calls.size(), 4u);  // 2 workloads x 2 seeds
  std::set<std::size_t> seen;
  for (const auto& call : log.calls) {
    for (std::size_t i = 0; i < call.size(); ++i) {
      const auto& pt = all[call[i]];
      EXPECT_EQ(pt.trace_key, all[call.front()].trace_key);
      EXPECT_NE(pt.index % 3, 1u) << "a journaled point was re-run";
      if (i > 0) {
        EXPECT_LT(call[i - 1], call[i]);
      }
      EXPECT_TRUE(seen.insert(pt.index).second);
    }
  }
  EXPECT_EQ(seen.size(), to_run.size());
  for (std::size_t i = 0; i < to_run.size(); ++i) {
    EXPECT_EQ(results[i].cycles, fake_run(to_run[i].config).cycles);
    EXPECT_EQ(results[i].policy, to_run[i].config.policy);
  }
}

TEST(WalkGroups, WaitingMembersOnOtherThreadsTakeTheirOwnResults) {
  // One group of six on eight threads: the first member's thread holds
  // the walk open until another member has asked from another thread, so
  // that member provably waits for the in-flight run.
  auto spec = testutil::grid_24();
  spec.workloads = {"mcf"};
  spec.seeds = {0};
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 6u);

  std::atomic<int> arrivals{0};
  std::mutex mu;
  std::set<std::thread::id> taker_threads;
  GroupLog log;
  const auto inner = log.fn();
  WalkGroups walks(points, [&](const auto& members) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrivals.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    return inner(members);
  });
  RunnerOptions opts = walk_options(walks, 8);
  opts.run_point_fn = [&](const CampaignPoint& pt) {
    {
      std::lock_guard lock(mu);
      taker_threads.insert(std::this_thread::get_id());
    }
    ++arrivals;
    return walks.take(pt);
  };
  const auto results = CampaignRunner(opts).run(points);

  EXPECT_EQ(log.calls.size(), 1u);
  EXPECT_GE(taker_threads.size(), 2u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(results[i].cycles, fake_run(points[i].config).cycles);
}

TEST(WalkGroups, GroupFailureReachesEveryMember) {
  auto spec = testutil::grid_24();
  spec.workloads = {"mcf"};
  spec.seeds = {0};
  const auto points = expand(spec);
  int runs = 0;
  WalkGroups walks(points, [&](const auto&) -> std::vector<core::ExperimentResult> {
    ++runs;
    throw std::runtime_error("walk failed");
  });
  for (const auto& pt : points)
    EXPECT_THROW(walks.take(pt), std::runtime_error);
  EXPECT_EQ(runs, 1);
}

// The real binary, real experiments: 2 trace groups x 5 policies on 8
// threads, so members of one group run on different threads and wait for
// each other's walk. CSV and JSONL must be byte-identical to one thread.
TEST(WalkGroups, MoreThreadsThanGroupsIsByteIdenticalToOneThread) {
  const auto run = [](unsigned threads, const std::string& tag) {
    const auto csv = temp_path(("walks_" + tag + ".csv").c_str());
    const auto jsonl = temp_path(("walks_" + tag + ".jsonl").c_str());
    std::filesystem::remove(csv);
    std::filesystem::remove(jsonl);
    auto child = common::Child::spawn(
        {REAP_CAMPAIGN_BIN, "--workloads=mcf", "--policies=all",
         "--seeds=0,1", "--instructions=20000", "--warmup=2000",
         "--threads=" + std::to_string(threads), "--csv=" + csv,
         "--jsonl=" + jsonl, "--baseline=none", "--quiet"},
        temp_path(("walks_" + tag + ".log").c_str()));
    EXPECT_TRUE(child);
    if (child) {
      EXPECT_TRUE(child->wait().success()) << tag;
    }
    return std::make_pair(file_bytes(csv), file_bytes(jsonl));
  };
  const auto one = run(1, "t1");
  const auto eight = run(8, "t8");
  EXPECT_FALSE(one.first.empty());
  EXPECT_EQ(one.first, eight.first);
  EXPECT_EQ(one.second, eight.second);
}

}  // namespace
}  // namespace reap::campaign
