// The campaign trace-replay subsystem: byte-identity of replayed campaigns
// (the golden guarantee), LRU eviction under a byte cap, single-flight
// materialization, and the grouped runner schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/campaign/journal.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/runner.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/campaign/trace_cache.hpp"
#include "reap/core/experiment.hpp"
#include "reap/trace/trace_io.hpp"
#include "reap/trace/trace_store.hpp"

namespace reap::campaign {
namespace {

using testutil::fake_run;
using testutil::file_bytes;
using testutil::temp_path;

// A short but real grid over the full policy axis: every policy replays
// the same two traces (2 workloads x 1 seed).
CampaignSpec policy_grid() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = core::all_policies();
  spec.base.instructions = 20'000;
  spec.base.warmup_instructions = 2'000;
  return spec;
}

// The production replay run_point_fn, minus the CLI: materialize through
// `cache`, replay through run_experiment_replay.
RunnerOptions replay_options(TraceCache& cache, unsigned threads = 1) {
  RunnerOptions opts;
  opts.threads = threads;
  opts.group_key = [](const CampaignPoint& pt) { return pt.trace_key; };
  opts.run_point_fn = [&cache](const CampaignPoint& pt) {
    const std::uint64_t budget =
        pt.config.warmup_instructions + pt.config.instructions;
    const auto trace = cache.acquire(pt.trace_key, [&] {
      trace::WorkloadTraceSource gen(pt.config.workload);
      return trace::MaterializedTrace::materialize(gen, budget);
    });
    trace::ReplayTraceSource source(*trace);
    return core::run_experiment_replay(pt.config, source);
  };
  return opts;
}

struct CampaignFiles {
  std::string csv, jsonl, journal;
};

// Runs `points` through the full sink + journal pipeline, the way
// reap_campaign does: journal rows in completion order, then the merge
// emits CSV/JSONL in index order.
CampaignFiles run_pipeline(const CampaignSpec& spec,
                           const std::vector<CampaignPoint>& points,
                           RunnerOptions opts, const char* tag) {
  CampaignFiles files{temp_path((std::string(tag) + ".csv").c_str()),
                      temp_path((std::string(tag) + ".jsonl").c_str()),
                      temp_path((std::string(tag) + ".journal").c_str())};
  std::vector<JournalRow> rows;
  JournalWriter journal(files.journal,
                        JournalHeader::for_run(spec, points.size(), 0, 1));
  EXPECT_TRUE(journal.ok());
  opts.on_result = [&](const CampaignPoint& pt,
                       const core::ExperimentResult& r) {
    auto cells = result_cells(pt, r);
    journal.add(pt.key, cells);
    rows.push_back({pt.key, pt.index, std::move(cells)});
  };
  CampaignRunner(opts).run(points);

  CsvResultSink csv(files.csv);
  JsonlResultSink jsonl(files.jsonl);
  MultiSink sinks;
  sinks.attach(&csv);
  sinks.attach(&jsonl);
  const auto merged = merge_journal_rows(std::move(rows), {});
  emit_rows(merged, sinks);
  return files;
}

// --- Golden byte-identity -------------------------------------------------

// The acceptance pin: a full policy grid run with trace replay produces
// CSV, JSONL, and journal *content* identical to the regenerate-per-point
// path. CSV/JSONL are byte-compared (the merge path is index-ordered
// either way); journal rows are completion-ordered by design — grouped
// scheduling legitimately reorders completions — so journals are compared
// as key->line maps, which must match byte-for-byte per row.
TEST(TraceReplayGolden, FullPolicyGridByteIdenticalToRegenerate) {
  const auto spec = policy_grid();
  const auto points = expand(spec);
  ASSERT_EQ(points.size(), 10u);  // 2 workloads x 5 policies

  RunnerOptions plain;
  plain.threads = 1;
  const auto ref = run_pipeline(spec, points, plain, "replay_off");

  TraceCache cache(std::size_t{512} << 20);
  const auto got =
      run_pipeline(spec, points, replay_options(cache), "replay_on");

  EXPECT_EQ(file_bytes(got.csv), file_bytes(ref.csv));
  EXPECT_EQ(file_bytes(got.jsonl), file_bytes(ref.jsonl));
  EXPECT_FALSE(file_bytes(got.csv).empty());

  const auto rows_by_key = [](const std::string& path) {
    auto j = read_journal(path);
    EXPECT_TRUE(j.has_value());
    std::map<std::string, std::vector<std::string>> rows;
    for (auto& row : j->rows) rows[row.key] = row.cells;
    return rows;
  };
  EXPECT_EQ(rows_by_key(got.journal), rows_by_key(ref.journal));

  // Every point of a paired group after the first was a cache hit: 2
  // materializations serve 10 points.
  EXPECT_EQ(cache.stats().misses.load(), 2u);
  EXPECT_EQ(cache.stats().hits.load(), 8u);
  EXPECT_EQ(cache.stats().evictions.load(), 0u);
}

// Multi-threaded replay stays byte-identical too (the runner's positional
// results contract is schedule-independent).
TEST(TraceReplayGolden, FourThreadReplayMatchesSerialRegenerate) {
  const auto spec = policy_grid();
  const auto points = expand(spec);

  RunnerOptions plain;
  plain.threads = 1;
  const auto ref = run_pipeline(spec, points, plain, "mt_ref");

  TraceCache cache(std::size_t{512} << 20);
  const auto got =
      run_pipeline(spec, points, replay_options(cache, 4), "mt_replay");

  EXPECT_EQ(file_bytes(got.csv), file_bytes(ref.csv));
  EXPECT_EQ(file_bytes(got.jsonl), file_bytes(ref.jsonl));
}

// --- Eviction under a tight cap ------------------------------------------

TEST(TraceCacheEviction, TightCapEvictsAndStaysUnderCapWithIdenticalResults) {
  const auto spec = policy_grid();
  const auto points = expand(spec);

  // Reference: regenerate per point.
  RunnerOptions plain;
  plain.threads = 1;
  plain.run_fn = core::run_experiment;
  const auto ref = CampaignRunner(plain).run(points);

  // Size the cap to hold EITHER of the two traces but not both: the
  // second group's admission must evict the first. Real arena bytes,
  // measured per workload (their op mixes differ).
  std::size_t big = 0, small = SIZE_MAX;
  for (const auto& wl : spec.workloads) {
    for (const auto& pt : points) {
      if (pt.config.workload.name != wl) continue;
      trace::WorkloadTraceSource gen(pt.config.workload);
      const auto probe = trace::MaterializedTrace::materialize(
          gen,
          pt.config.warmup_instructions + pt.config.instructions);
      big = std::max(big, probe.bytes());
      small = std::min(small, probe.bytes());
      break;
    }
  }
  const std::size_t cap = big + small / 2;

  TraceCache cache(cap);
  const auto got =
      CampaignRunner(replay_options(cache)).run(points);

  ASSERT_EQ(got.size(), ref.size());
  std::ostringstream a, b;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], ref[i])) a << cell << '|';
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], got[i])) b << cell << '|';
  EXPECT_EQ(a.str(), b.str());

  // The grouped schedule runs each group en bloc, so a one-trace cap still
  // yields one miss per group; the group switch evicts.
  EXPECT_EQ(cache.stats().misses.load(), 2u);
  EXPECT_GE(cache.stats().evictions.load(), 1u);
  // The accounting invariant the cache's cap promises: peak accounted
  // bytes never exceeded the cap.
  EXPECT_LE(cache.stats().peak_bytes.load(), cap);
  EXPECT_GT(cache.stats().peak_bytes.load(), 0u);
}

TEST(TraceCacheEviction, CapSmallerThanOneTraceStillCompletes) {
  // A cap smaller than any single trace: every acquire is an uncached
  // bypass, nothing is ever retained, results are still identical.
  const auto spec = policy_grid();
  const auto points = expand(spec);

  RunnerOptions plain;
  plain.threads = 1;
  plain.run_fn = core::run_experiment;
  const auto ref = CampaignRunner(plain).run(points);

  TraceCache cache(1024);  // 1 KB: far below any real trace
  const auto got = CampaignRunner(replay_options(cache)).run(points);

  std::ostringstream a, b;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], ref[i])) a << cell << '|';
  for (std::size_t i = 0; i < points.size(); ++i)
    for (const auto& cell : result_cells(points[i], got[i])) b << cell << '|';
  EXPECT_EQ(a.str(), b.str());

  EXPECT_EQ(cache.stats().hits.load(), 0u);
  EXPECT_EQ(cache.stats().uncached.load(), points.size());
  EXPECT_EQ(cache.stats().bytes.load(), 0u);
  EXPECT_EQ(cache.stats().peak_bytes.load(), 0u);
}

// --- Cache mechanics ------------------------------------------------------

trace::MaterializedTrace tiny_trace(std::uint64_t seed, std::size_t ops) {
  std::vector<trace::MemOp> v;
  for (std::size_t i = 0; i < ops; ++i)
    v.push_back({trace::OpType::inst_fetch, (seed + i) * 64});
  trace::VectorTraceSource src(std::move(v));
  return trace::MaterializedTrace::materialize(src, ops + 1);
}

TEST(TraceCache, LruEvictsColdestIdleEntry) {
  const std::size_t one = tiny_trace(1, 100).bytes();
  TraceCache cache(2 * one + one / 2);  // room for two traces

  auto a = cache.acquire("a", [] { return tiny_trace(1, 100); });
  auto b = cache.acquire("b", [] { return tiny_trace(2, 100); });
  a.reset();
  b.reset();
  // Touch "a" so "b" is coldest, then admit "c": "b" must go.
  EXPECT_EQ(cache.acquire("a", [] { return tiny_trace(9, 100); }).get(),
            cache.acquire("a", [] { return tiny_trace(9, 100); }).get());
  auto c = cache.acquire("c", [] { return tiny_trace(3, 100); });
  c.reset();
  EXPECT_EQ(cache.stats().evictions.load(), 1u);
  // "a" and "c" still hit; "b" re-materializes.
  const auto hits_before = cache.stats().hits.load();
  cache.acquire("a", [] { return tiny_trace(9, 100); });
  cache.acquire("c", [] { return tiny_trace(9, 100); });
  EXPECT_EQ(cache.stats().hits.load(), hits_before + 2);
  const auto misses_before = cache.stats().misses.load();
  cache.acquire("b", [] { return tiny_trace(2, 100); });
  EXPECT_EQ(cache.stats().misses.load(), misses_before + 1);
}

TEST(TraceCache, InUseTracesAreNeverEvicted) {
  const std::size_t one = tiny_trace(1, 100).bytes();
  TraceCache cache(one + one / 2);  // room for one

  auto pinned = cache.acquire("a", [] { return tiny_trace(1, 100); });
  // Admitting "b" wants to evict "a", but "a" is in use: the cache keeps
  // accounting it (over cap) rather than dropping a live arena's entry.
  auto b = cache.acquire("b", [] { return tiny_trace(2, 100); });
  EXPECT_EQ(pinned->size(), 100u);  // arena untouched
  b.reset();
  // Once "a" is released, the next admission can evict down to cap.
  pinned.reset();
  auto c = cache.acquire("c", [] { return tiny_trace(3, 100); });
  EXPECT_LE(cache.stats().bytes.load(), cache.cap_bytes() + one);
  EXPECT_GE(cache.stats().evictions.load(), 1u);
}

TEST(TraceCache, ConcurrentAcquiresMaterializeOnce) {
  TraceCache cache(std::size_t{64} << 20);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<TraceCache::TracePtr> got(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[t] = cache.acquire("shared", [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return tiny_trace(7, 1000);
      });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);  // single flight
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
  EXPECT_EQ(cache.stats().misses.load(), 1u);
  EXPECT_EQ(cache.stats().hits.load(), kThreads - 1u);
}

TEST(TraceCache, BorrowedMappedTracesAreRetainedAtZeroCost) {
  // A trace borrowed from an mmapped store file accounts zero bytes (the
  // pages are the kernel's to reclaim), so even a cap-0 cache retains
  // every mapped trace instead of treating it as an oversize bypass.
  const auto path = temp_path("cache_borrow.reaptrace");
  const auto owned = tiny_trace(4, 256);
  std::string error;
  ASSERT_TRUE(trace::write_trace_file(path, owned, "k", {}, &error)) << error;
  auto mapped = trace::MappedTraceFile::open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  TraceCache cache(0);
  int builds = 0;
  const auto borrow = [&] {
    ++builds;
    return mapped->borrow(mapped);
  };
  auto a = cache.acquire("k", borrow);
  a.reset();
  auto b = cache.acquire("k", borrow);
  EXPECT_EQ(builds, 1);  // retained across a full release, cap 0
  EXPECT_EQ(cache.stats().hits.load(), 1u);
  EXPECT_EQ(cache.stats().uncached.load(), 0u);
  EXPECT_EQ(cache.stats().bytes.load(), 0u);
  EXPECT_EQ(b->bytes(), 0u);
  EXPECT_EQ(b->size(), owned.size());
  std::remove(path.c_str());
}

// --- Grouped scheduling ---------------------------------------------------

TEST(RunnerGrouping, GroupKeyRunsGroupsContiguouslyOnOneThread) {
  const auto spec = testutil::grid_24();
  const auto points = expand(spec);

  std::vector<std::string> completion_order;
  RunnerOptions opts;
  opts.threads = 1;
  opts.run_fn = fake_run;
  opts.group_key = [](const CampaignPoint& pt) { return pt.trace_key; };
  opts.on_result = [&](const CampaignPoint& pt,
                       const core::ExperimentResult&) {
    completion_order.push_back(pt.trace_key);
  };
  const auto results = CampaignRunner(opts).run(points);

  // Results stay positionally aligned regardless of the schedule.
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(results[i].workload, points[i].config.workload.name);

  // Every group's points completed en bloc: a trace_key never reappears
  // after a different one has been seen.
  std::set<std::string> closed;
  std::string current;
  for (const auto& key : completion_order) {
    if (key == current) continue;
    EXPECT_FALSE(closed.count(key)) << "group " << key << " was split";
    if (!current.empty()) closed.insert(current);
    current = key;
  }
  // And groups are visited in first-appearance (grid index) order.
  std::vector<std::string> first_appearance;
  for (const auto& pt : points)
    if (first_appearance.empty() ||
        std::find(first_appearance.begin(), first_appearance.end(),
                  pt.trace_key) == first_appearance.end())
      first_appearance.push_back(pt.trace_key);
  std::vector<std::string> visited;
  for (const auto& key : completion_order)
    if (visited.empty() || visited.back() != key) visited.push_back(key);
  EXPECT_EQ(visited, first_appearance);
}

TEST(RunnerGrouping, NoGroupKeyPreservesInputOrderOnOneThread) {
  const auto spec = testutil::grid_24();
  const auto points = expand(spec);
  std::vector<std::size_t> completion;
  RunnerOptions opts;
  opts.threads = 1;
  opts.run_fn = fake_run;
  opts.on_result = [&](const CampaignPoint& pt,
                       const core::ExperimentResult&) {
    completion.push_back(pt.index);
  };
  CampaignRunner(opts).run(points);
  ASSERT_EQ(completion.size(), points.size());
  for (std::size_t i = 0; i < completion.size(); ++i)
    EXPECT_EQ(completion[i], i);
}

TEST(RunnerGrouping, RunPointFnReceivesTheGridPoint) {
  const auto spec = testutil::grid_24();
  const auto points = expand(spec);
  std::atomic<std::size_t> calls{0};
  RunnerOptions opts;
  opts.threads = 4;
  opts.run_fn = [](const core::ExperimentConfig&) {
    ADD_FAILURE() << "run_fn must lose to run_point_fn";
    core::ExperimentResult r;
    return r;
  };
  opts.run_point_fn = [&](const CampaignPoint& pt) {
    calls.fetch_add(1);
    EXPECT_FALSE(pt.trace_key.empty());
    return fake_run(pt.config);
  };
  const auto results = CampaignRunner(opts).run(points);
  EXPECT_EQ(calls.load(), points.size());
  ASSERT_EQ(results.size(), points.size());
}

}  // namespace
}  // namespace reap::campaign
