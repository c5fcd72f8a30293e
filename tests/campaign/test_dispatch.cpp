// Dispatcher fault paths, driven against the real reap_campaign binary
// (REAP_CAMPAIGN_BIN, baked in by CMake): a healthy pool merges to output
// byte-identical to a single-process run; a worker killed mid-shard is
// restarted past its journaled rows and changes nothing; a pre-existing
// torn journal is healed by the dispatcher and resumes instead of
// re-running; a persistently dying worker gets
// its shard reassigned to another slot and then fails the dispatch with
// its log named; an exit-0 worker that journaled nothing counts as a
// failure, not a success.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::expect_no_duplicate_rows;
using testutil::file_bytes;
using testutil::temp_path;

// 2 workloads x 2 policies x 2 seeds = 8 points. `instructions` scales
// per-point runtime: ~20k runs in a few ms (fast-path tests), a few
// hundred k gives a kill window of many poll intervals.
std::map<std::string, std::string> spec_kv(std::uint64_t instructions) {
  return {{"name", "dispatch-test"},
          {"workloads", "mcf,h264ref"},
          {"policies", "conventional,reap"},
          {"seeds", "0,1"},
          {"instructions", std::to_string(instructions)},
          {"warmup", "2000"}};
}

// A fresh work dir per test so journals cannot leak across tests.
std::string fresh_dir(const char* name) {
  const auto dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

// Single-process reference run of the same spec via the real binary.
std::string reference_csv(const std::map<std::string, std::string>& kv,
                          const char* name) {
  const auto csv = temp_path(name);
  std::vector<std::string> argv = {REAP_CAMPAIGN_BIN};
  for (const auto& [k, v] : kv) argv.push_back("--" + k + "=" + v);
  argv.push_back("--threads=2");
  argv.push_back("--csv=" + csv);
  argv.push_back("--baseline=none");
  argv.push_back("--quiet");
  auto child = common::Child::spawn(argv, "");
  EXPECT_TRUE(child);
  if (child) {
    EXPECT_TRUE(child->wait().success());
  }
  return csv;
}

DispatchOptions base_opts(const std::string& work_dir) {
  DispatchOptions opts;
  opts.campaign_binary = REAP_CAMPAIGN_BIN;
  opts.work_dir = work_dir;
  opts.workers = 2;
  opts.poll_interval = std::chrono::milliseconds(5);
  return opts;
}

std::string merged_csv_of(const DispatchResult& result, const char* name) {
  std::string error;
  const auto merged = merge_dispatch_journals(result.journal_paths(), &error);
  EXPECT_TRUE(merged) << error;
  EXPECT_TRUE(covers_all_indices(*merged));
  const auto path = temp_path(name);
  CsvResultSink csv(path);
  for (const auto& row : merged->rows) csv.add_cells(row);
  return path;
}

TEST(Dispatch, MergedOutputByteIdenticalToSingleProcess) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_ref.csv");

  auto opts = base_opts(fresh_dir("dispatch_ok"));
  opts.jobs = 3;  // more shards than workers: exercises queue backfill
  std::size_t last_done = 0, last_total = 0;
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    last_done = done;
    last_total = total;
  };
  const auto result = Dispatcher(kv, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.points, 8u);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_EQ(last_done, 8u);
  EXPECT_EQ(last_total, 8u);
  ASSERT_EQ(result.shards.size(), 3u);
  std::size_t rows = 0;
  for (const auto& s : result.shards) {
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.attempts, 1u);
    rows += s.rows;
  }
  EXPECT_EQ(rows, 8u);
  expect_no_duplicate_rows(result.journal_paths());

  const auto merged = merged_csv_of(result, "dispatch_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, WorkerKilledMidShardResumesAndOutputUnchanged) {
  // ~45 ms per point, 4 points per shard: the first row lands with most
  // of the shard still to run, so the SIGKILL below is mid-shard by many
  // poll intervals.
  const auto kv = spec_kv(600000);
  const auto ref = reference_csv(kv, "dispatch_kill_ref.csv");

  auto opts = base_opts(fresh_dir("dispatch_kill"));
  std::map<std::size_t, long> pid_of_shard;
  std::map<std::size_t, std::size_t> attempt_of_shard;
  opts.on_spawn = [&](std::size_t shard, std::size_t attempt,
                      std::size_t /*slot*/, long pid) {
    pid_of_shard[shard] = pid;
    attempt_of_shard[shard] = attempt;
  };
  bool killed = false;
  opts.on_shard_rows = [&](std::size_t shard, std::size_t rows) {
    if (shard == 1 && rows >= 1 && attempt_of_shard[1] == 0 && !killed) {
      killed = true;
      ::kill(static_cast<pid_t>(pid_of_shard[1]), SIGKILL);
    }
  };
  const auto result = Dispatcher(kv, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(killed);
  EXPECT_GE(result.restarts, 1u);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_EQ(result.shards[1].attempts, 2u);
  EXPECT_TRUE(result.shards[1].completed);

  // The restarted worker skipped the journaled rows rather than starting
  // over: no key landed twice.
  expect_no_duplicate_rows(result.journal_paths());

  const auto merged = merged_csv_of(result, "dispatch_kill_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, ResumesPreexistingTornJournalWithoutRerunningRows) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_resume_ref.csv");
  const auto dir = fresh_dir("dispatch_resume");

  // First dispatch completes and leaves full journals behind.
  const auto first = Dispatcher(kv, base_opts(dir)).run();
  ASSERT_TRUE(first.ok) << first.error;

  // Cut shard 0's journal down to header + one completed row + a torn
  // fragment -- the on-disk state a machine crash leaves.
  const auto journal_path = first.shards[0].journal_path;
  auto journal = read_journal(journal_path);
  ASSERT_TRUE(journal);
  ASSERT_GE(journal->rows.size(), 2u);
  journal->rows.resize(1);
  std::string error;
  ASSERT_TRUE(rewrite_journal(journal_path, *journal, &error)) << error;
  {
    std::ofstream torn(journal_path, std::ios::app);
    torn << "{\"key\":\"torn-mid-write";
  }

  // Re-dispatch over the same work dir: the dispatcher heals shard 0's
  // journal and relaunches it past its one journaled row; shard 1 finds
  // its journal complete and launches nothing.
  auto opts = base_opts(dir);
  std::map<std::size_t, std::size_t> spawns;
  opts.on_spawn = [&](std::size_t shard, std::size_t, std::size_t, long) {
    spawns[shard]++;
  };
  const auto second = Dispatcher(kv, opts).run();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(spawns[0], 1u);
  EXPECT_EQ(spawns[1], 0u);
  EXPECT_EQ(second.shards[1].attempts, 0u);
  EXPECT_TRUE(second.shards[1].completed);

  const auto healed = read_journal(journal_path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_FALSE(healed->truncated_tail);
  EXPECT_TRUE(healed->corrupt.empty());
  expect_no_duplicate_rows(second.journal_paths());

  const auto merged = merged_csv_of(second, "dispatch_resume_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));
}

TEST(Dispatch, RerunAdoptsTheJournalsShardSplitAndRefusesOtherSpecs) {
  const auto kv = spec_kv(20000);
  const auto ref = reference_csv(kv, "dispatch_adopt_ref.csv");
  const auto dir = fresh_dir("dispatch_adopt");

  auto opts = base_opts(dir);
  opts.jobs = 2;
  ASSERT_TRUE(Dispatcher(kv, opts).run().ok);

  // Re-running with a different shard plan must adopt the 2-way split
  // the journals record (shards are meaningless under a different N):
  // nothing re-runs, and the merge still matches.
  opts.jobs = 3;
  const auto rerun = Dispatcher(kv, opts).run();
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_EQ(rerun.shards.size(), 2u);
  EXPECT_EQ(rerun.restarts, 0u);
  expect_no_duplicate_rows(rerun.journal_paths());
  const auto merged = merged_csv_of(rerun, "dispatch_adopt_merged.csv");
  EXPECT_EQ(file_bytes(ref), file_bytes(merged));

  // A different spec over the same work dir fails fast, before any
  // worker burns its attempts on 'cannot resume' exits.
  auto other = kv;
  other["seeds"] = "0,1,2";
  const auto refused = Dispatcher(other, opts).run();
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("different spec"), std::string::npos)
      << refused.error;
  EXPECT_NE(refused.error.find("--work-dir"), std::string::npos);

  // So does a *mixed* work dir where only a later shard's journal is
  // stale (the scan validates every journal, not just the first).
  const auto other_spec = CampaignSpec::from_kv(other);
  ASSERT_TRUE(other_spec);
  {
    JournalWriter stale(dir + "/shard_1.journal",
                        JournalHeader::for_run(*other_spec, 12, 1, 2));
  }
  const auto mixed = Dispatcher(kv, opts).run();
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST(Dispatch, PersistentFailureReassignsSlotsThenFailsWithLog) {
  auto opts = base_opts(fresh_dir("dispatch_false"));
  opts.campaign_binary = "/bin/false";  // dies instantly, every time
  opts.jobs = 1;                        // both slots free for reassignment
  opts.max_attempts = 3;
  std::vector<std::size_t> slots;
  opts.on_spawn = [&](std::size_t /*shard*/, std::size_t /*attempt*/,
                      std::size_t slot, long /*pid*/) {
    slots.push_back(slot);
  };
  std::size_t failures = 0;
  std::vector<bool> retries;
  opts.on_worker_exit = [&](std::size_t /*shard*/, std::size_t /*attempt*/,
                            bool ok, bool will_retry) {
    EXPECT_FALSE(ok);
    failures++;
    retries.push_back(will_retry);
  };
  const auto result = Dispatcher(spec_kv(20000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("shard 0 failed 3/3"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find(result.shards[0].log_path), std::string::npos)
      << result.error;
  EXPECT_EQ(failures, 3u);
  EXPECT_EQ(result.restarts, 2u);
  // The first two failures retry; the last one abandons the shard.
  EXPECT_EQ(retries, (std::vector<bool>{true, true, false}));
  EXPECT_FALSE(result.shards[0].completed);
  // Reassignment: every retry ran on a different slot than the attempt
  // before it (both slots are free each time -- the shard must move).
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_NE(slots[1], slots[0]);
  EXPECT_NE(slots[2], slots[1]);
}

TEST(Dispatch, CleanExitWithoutJournalIsAFailureNotSilentDataLoss) {
  auto opts = base_opts(fresh_dir("dispatch_true"));
  opts.campaign_binary = "/bin/true";  // exit 0, journals nothing
  opts.jobs = 1;
  opts.max_attempts = 2;
  const auto result = Dispatcher(spec_kv(20000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("exit 0"), std::string::npos) << result.error;
  EXPECT_EQ(result.shards[0].rows, 0u);
}

TEST(Dispatch, MissingWorkerBinaryIsAnImmediateError) {
  auto opts = base_opts(fresh_dir("dispatch_nobin"));
  opts.campaign_binary = "/no/such/reap_campaign";
  const auto result = Dispatcher(spec_kv(20000), opts).run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot exec"), std::string::npos)
      << result.error;
}

TEST(Dispatch, RejectsABadSpecBeforeLaunchingAnything) {
  auto kv = spec_kv(20000);
  kv["workloads"] = "no-such-workload";
  const auto result = Dispatcher(kv, base_opts(fresh_dir("dispatch_badspec")))
                          .run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace reap::campaign
