// reap_dispatch: one-command distributed campaign. Expands a spec, splits
// it into shards, keeps a pool of reap_campaign worker processes busy
// (restarting crashed workers past their journaled rows, reassigning
// shards whose workers keep dying), journals every row the workers stream
// back, reports one progress line, and merges the journals into
// CSV/JSONL/figures byte-identical to a single-process run. See
// docs/campaign.md.
//
// Usage:
//   reap_dispatch --spec=specs/fig5.spec --workers=8 --csv=fig5.csv
//   reap_dispatch --spec=grid.spec --workers=4 --jobs=16 --figures=figdata/
//   reap_dispatch --spec=grid.spec --workers=2 --work-dir=run1   # re-run to resume
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_set>

#include "reap/campaign/aggregate.hpp"
#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/campaign/exit_codes.hpp"
#include "reap/campaign/progress.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/trace_cache.hpp"
#include "reap/campaign/transport.hpp"
#include "reap/campaign/version.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/strings.hpp"

using namespace reap;

namespace {

int usage(const char* argv0) {
  std::printf(campaign::kDispatchUsage, argv0);
  return 0;
}

// reap_campaign normally sits next to reap_dispatch; a bare name (PATH
// lookup) is the fallback when argv[0] carries no directory.
std::string default_campaign_binary(const char* argv0) {
  const auto dir = std::filesystem::path(argv0).parent_path();
  if (dir.empty()) return "reap_campaign";
  return (dir / "reap_campaign").string();
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("help")) return usage(argv[0]);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_dispatch").c_str());
    return 0;
  }

  // Fault injection (chaos testing). --inject-fault arms sites in *this*
  // process only (worker.spawn, transport.*, and journal.write on the
  // shard journals the dispatcher appends to); REAP_FAULT is inherited by
  // the spawned workers too, so worker-side sites (runner.point, ...) are
  // armed through the environment.
  {
    std::string ferr;
    if (!common::fault::arm_from_env(&ferr)) {
      std::fprintf(stderr, "bad %s: %s\n", common::fault::kEnvVar,
                   ferr.c_str());
      return 1;
    }
    if (args.has("inject-fault") &&
        !common::fault::arm(args.get_string("inject-fault", ""), &ferr)) {
      std::fprintf(stderr, "bad --inject-fault: %s\n", ferr.c_str());
      return 1;
    }
  }

  std::string error;
  const auto kv = campaign::spec_kv_from_cli(args, &error);
  if (!kv) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (kv->empty()) return usage(argv[0]);
  const auto spec = campaign::CampaignSpec::from_kv(*kv, &error);
  if (!spec) {
    std::fprintf(stderr, "bad spec: %s\n", error.c_str());
    return 1;
  }

  campaign::DispatchOptions opts;
  opts.campaign_binary =
      args.get_string("campaign-bin", default_campaign_binary(argv[0]));
  opts.work_dir = args.get_string("work-dir", spec->name + ".dispatch");
  opts.workers = std::size_t(args.get_u64("workers", 0));
  opts.jobs = std::size_t(args.get_u64("jobs", 0));
  opts.worker_threads = std::size_t(args.get_u64("worker-threads", 1));
  opts.max_attempts = std::size_t(args.get_u64("max-attempts", 3));
  opts.trace_cache_mb = std::size_t(args.get_u64("trace-cache-mb", 0));
  opts.trace_dir = args.get_string("trace-dir", "");
  opts.stall_timeout =
      std::chrono::milliseconds(args.get_u64("stall-timeout", 0) * 1000);
  opts.backoff_base =
      std::chrono::milliseconds(args.get_u64("backoff-ms", 100));
  opts.fail_fast = args.has("fail-fast");
  opts.max_quarantine = std::size_t(args.get_u64("max-quarantine", 4));

  // --hosts: multi-host dispatch. The file's transports replace the
  // default local pool; the handshake refuses hosts whose reap_campaign
  // answers --version with a different build line (fleet skew).
  if (args.has("hosts")) {
    const auto hosts_path = args.get_string("hosts", "");
    const auto hosts = campaign::parse_hosts_file(hosts_path, &error);
    if (!hosts) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (auto h : *hosts) {
      if (h.remote_binary.empty()) h.remote_binary = opts.campaign_binary;
      if (h.remote_dir.empty())
        h.remote_dir = opts.work_dir + "/remote-" + h.name;
      opts.transports.emplace_back(std::move(h));
    }
    opts.expected_worker_version =
        campaign::build_info_line("reap_campaign");
  }
  opts.on_host_lost = [](const std::string& host, const std::string& why) {
    std::fprintf(stderr, "\nlost host: %s (%s); redistributing its shards\n",
                 host.c_str(), why.c_str());
  };
  opts.on_host_note = [](const std::string&, const std::string& note) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  };

  // Consume every real flag before --dry-run can exit, so the unknown-flag
  // refusal never fires on flags the full run would honor.
  const bool quiet = args.has("quiet");
  const bool want_csv = args.has("csv");
  const bool want_jsonl = args.has("jsonl");
  const bool want_figures = args.has("figures");
  const auto csv_path = args.get_string("csv", "");
  const auto jsonl_path = args.get_string("jsonl", "");
  const auto figures_dir = args.get_string("figures", "");
  const auto baseline_name = args.get_string("baseline", "conventional");
  const bool dry_run = args.has("dry-run");
  if (!common::refuse_unused(args)) return 1;

  if (dry_run) {
    std::vector<campaign::CampaignPoint> points;
    try {
      points = campaign::expand(*spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    // The exact plan Dispatcher::run would execute, including a shard
    // split adopted from existing work-dir journals.
    const auto plan =
        campaign::plan_dispatch(*spec, points.size(), opts, &error);
    if (!plan) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf(
        "campaign '%s': %zu points, %zu shards%s, %zu worker slots "
        "(<= %zu concurrent)\n",
        spec->name.c_str(), points.size(), plan->n_shards,
        plan->adopted_split ? " (split adopted from work-dir journals)" : "",
        plan->workers, std::min(plan->workers, plan->n_shards));
    std::printf("work dir: %s\n", opts.work_dir.c_str());
    // Trace-group plan next to the shard plan. Index striping scatters a
    // trace group's points across every shard, so each worker that runs a
    // member walks (and generates, unless --trace-dir has it) the trace.
    const auto tplan = campaign::trace_plan(points);
    std::printf(
        "trace groups: %zu (one walk per worker that runs a member, trace "
        "generated inline unless --trace-dir has it; largest ~%.1f MB as a "
        "store file)\n",
        tplan.groups,
        static_cast<double>(tplan.largest_bytes) / (1024.0 * 1024.0));
    if (opts.trace_cache_mb > 0)
      std::printf(
          "--trace-cache-mb=%zu has no effect: each group's walk reads its "
          "trace once\n",
          opts.trace_cache_mb);
    for (std::size_t i = 0; i < plan->n_shards; ++i)
      std::printf("  shard %zu/%zu: %zu points  (%s --shard=%zu/%zu ...)\n",
                  i, plan->n_shards,
                  campaign::shard_size(points.size(), i, plan->n_shards),
                  opts.campaign_binary.c_str(), i, plan->n_shards);
    return 0;
  }

  campaign::ProgressReporter progress;
  if (!quiet) {
    opts.on_progress = [&progress](std::size_t done, std::size_t total) {
      progress(done, total);
    };
    opts.on_worker_exit = [](std::size_t shard, std::size_t attempt,
                             bool ok, bool will_retry) {
      if (ok) return;
      std::fprintf(stderr, "\nworker for shard %zu died (attempt %zu); %s\n",
                   shard, attempt + 1,
                   will_retry ? "restarting with --resume"
                              : "giving up on this shard");
    };
  }
  // Validate the post-run flags up front: a bad baseline name must not
  // surface only after hours of simulation.
  std::optional<core::PolicyKind> baseline;
  if (baseline_name != "none") {
    baseline = core::policy_from_string(baseline_name);
    if (!baseline) {
      std::fprintf(stderr, "unknown --baseline policy: %s\n",
                   baseline_name.c_str());
      return 1;
    }
  } else if (want_figures) {
    std::fprintf(stderr,
                 "--figures needs aggregates; do not pass "
                 "--baseline=none with it\n");
    return 1;
  }

  campaign::Dispatcher dispatcher(*kv, opts);
  std::printf("dispatching campaign '%s' from %s\n", spec->name.c_str(),
              opts.work_dir.c_str());
  const auto run = dispatcher.run();
  if (!run.ok) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
    switch (run.status) {
      case campaign::DispatchStatus::spec_mismatch:
        return campaign::kDispatchSpecMismatch;
      case campaign::DispatchStatus::abandoned:
        return campaign::kDispatchAbandoned;
      default:
        return campaign::kDispatchError;
    }
  }
  std::printf("%zu points across %zu shards complete", run.points,
              run.shards.size());
  if (run.restarts > 0)
    std::printf(" (%zu worker restart%s)", run.restarts,
                run.restarts == 1 ? "" : "s");
  if (run.stalls > 0)
    std::printf(" (%zu stalled worker%s killed)", run.stalls,
                run.stalls == 1 ? "" : "s");
  if (!run.quarantined.empty())
    std::printf(" (%zu point%s quarantined)", run.quarantined.size(),
                run.quarantined.size() == 1 ? "" : "s");
  if (!run.lost_hosts.empty())
    std::printf(" (%zu host%s lost)", run.lost_hosts.size(),
                run.lost_hosts.size() == 1 ? "" : "s");
  std::printf("\n");
  for (const auto& q : run.quarantined)
    std::fprintf(stderr, "quarantined: %s (index %llu, shard %zu): %s\n",
                 q.key.c_str(), static_cast<unsigned long long>(q.index),
                 q.shard, q.reason.c_str());

  // Merge step: shard journals -> one index-ordered table, re-emitted
  // through the ordinary sinks -- byte-identical to an un-sharded run,
  // minus exactly the quarantined rows (whose indices must account for
  // every hole; any other hole is a merge failure).
  auto merged = campaign::merge_dispatch_journals(run.journal_paths(), &error);
  if (!merged) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return campaign::kDispatchError;
  }
  if (run.quarantined.empty()) {
    if (!campaign::covers_all_indices(*merged)) {
      std::fprintf(stderr, "merge failed: journals do not cover the grid\n");
      return campaign::kDispatchError;
    }
  } else {
    const auto index_col = merged->col("index");
    if (!index_col) {
      std::fprintf(stderr, "merge failed: no `index` column\n");
      return campaign::kDispatchError;
    }
    std::unordered_set<std::uint64_t> present;
    for (const auto& row : merged->rows) {
      std::uint64_t idx = 0;
      if (common::parse_u64(row[*index_col], idx)) present.insert(idx);
    }
    std::unordered_set<std::uint64_t> poisoned;
    for (const auto& q : run.quarantined) poisoned.insert(q.index);
    for (std::uint64_t i = 0; i < run.points; ++i) {
      if (!present.count(i) && !poisoned.count(i)) {
        std::fprintf(stderr,
                     "merge failed: row %llu is missing but not "
                     "quarantined\n",
                     static_cast<unsigned long long>(i));
        return campaign::kDispatchError;
      }
      if (present.count(i) && poisoned.count(i)) {
        std::fprintf(stderr,
                     "merge failed: row %llu is quarantined yet present in "
                     "the journals\n",
                     static_cast<unsigned long long>(i));
        return campaign::kDispatchError;
      }
    }
  }
  if ((want_csv || want_jsonl) &&
      merged->header != campaign::result_header()) {
    std::fprintf(stderr,
                 "cannot write merged rows: worker journals use a different "
                 "column schema than this binary\n");
    return campaign::kDispatchError;
  }
  const auto emit_merged = [&](campaign::ResultSink& sink, bool ok,
                               const char* what, const std::string& path) {
    if (!ok) {
      std::fprintf(stderr, "cannot write %s output: %s\n", what,
                   path.c_str());
      return false;
    }
    for (const auto& row : merged->rows) sink.add_cells(row);
    return true;
  };
  if (want_csv) {
    campaign::CsvResultSink csv(csv_path);
    if (!emit_merged(csv, csv.ok(), "csv", csv_path))
      return campaign::kDispatchError;
  }
  if (want_jsonl) {
    campaign::JsonlResultSink jsonl(jsonl_path);
    if (!emit_merged(jsonl, jsonl.ok(), "jsonl", jsonl_path))
      return campaign::kDispatchError;
  }

  if (!run.quarantined.empty()) {
    // Aggregates (and figures) need the full grid; a quarantined run is
    // complete-minus-named-rows by construction, so say so and exit with
    // the distinct code instead of failing.
    if (baseline)
      std::printf(
          "(skipping aggregates: %zu quarantined row%s leave the grid "
          "partial; see %s/quarantine.jsonl)\n",
          run.quarantined.size(), run.quarantined.size() == 1 ? "" : "s",
          opts.work_dir.c_str());
    return campaign::kDispatchQuarantined;
  }

  std::optional<campaign::CampaignAggregates> agg;
  if (baseline) {
    agg = campaign::aggregate_rows(*merged, *baseline, &error);
    if (!agg) {
      std::fprintf(stderr, "no aggregates: %s\n", error.c_str());
      return campaign::kDispatchError;
    }
    std::printf("\n%s", agg->render().c_str());
  }
  if (want_figures) {
    const auto written =
        campaign::write_figure_data(*agg, figures_dir, &error);
    if (!written) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return campaign::kDispatchError;
    }
    for (const auto& path : *written)
      std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  // Every row ran and merged, but the fleet shrank along the way: the
  // outputs above are complete, and the exit code says hosts were lost.
  if (run.status == campaign::DispatchStatus::host_lost)
    return campaign::kDispatchHostLost;
  return campaign::kDispatchOk;
}
