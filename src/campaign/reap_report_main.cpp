// reap_report: offline campaign post-processing. Reads rows written by
// reap_campaign (CSV, JSONL, or execution journals), merges shard outputs,
// recomputes the cross-experiment aggregates, and emits figure data --
// all without re-running a single experiment. See docs/campaign.md.
//
// Usage:
//   reap_report rows.csv                      # print aggregate tables
//   reap_report shard0.csv shard1.csv --merged-csv=all.csv
//   reap_report all.csv --figures=figdata/    # fig5/fig6 CSV + gnuplot
#include <cstdio>
#include <string>
#include <vector>

#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/report.hpp"
#include "reap/campaign/version.hpp"
#include "reap/campaign/result_sink.hpp"
#include "reap/common/cli.hpp"

using namespace reap;

namespace {

int usage(const char* argv0) {
  std::printf(campaign::kReportUsage, argv0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  if (args.has("version")) {
    std::puts(campaign::build_info_line("reap_report").c_str());
    return 0;
  }
  if (args.has("help") || args.positional().empty()) return usage(argv[0]);
  const bool want_csv = args.has("merged-csv");
  const bool want_jsonl = args.has("merged-jsonl");
  const auto csv_path = args.get_string("merged-csv", "");
  const auto jsonl_path = args.get_string("merged-jsonl", "");
  const std::string baseline_name =
      args.get_string("baseline", "conventional");
  const bool want_figures = args.has("figures");
  const auto figures_dir = args.get_string("figures", "");
  if (!common::refuse_unused(args)) return 1;

  std::string error;
  std::vector<campaign::RowTable> tables;
  for (const auto& path : args.positional()) {
    auto table = campaign::load_rows(path, &error);
    if (!table) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu rows from %s\n", table->rows.size(),
                 path.c_str());
    tables.push_back(std::move(*table));
  }

  auto merged = campaign::merge_tables(std::move(tables), &error);
  if (!merged) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (merged->truncated_tail)
    std::fprintf(stderr,
                 "warning: an input ended in a torn line (killed run?); "
                 "one row was dropped\n");
  if (!campaign::covers_all_indices(*merged)) {
    if (merged->expected_points)
      std::fprintf(stderr,
                   "warning: rows cover %zu of %llu grid points; "
                   "aggregates use the pairs that are present\n",
                   merged->rows.size(),
                   static_cast<unsigned long long>(*merged->expected_points));
    else
      std::fprintf(stderr,
                   "warning: merged rows do not cover a dense 0..n-1 index "
                   "range (missing shard or partial run?); aggregates use "
                   "the pairs that are present\n");
  }

  // Merged row re-emission: cells pass through the ordinary sinks, so the
  // output is byte-identical to what one un-sharded run would have
  // written. The sinks emit this binary's schema, so rows from a binary
  // with a different column set cannot be re-emitted (aggregation below
  // still works -- it looks columns up by name). Checked before any sink
  // opens: constructing one truncates its output file.
  if ((want_csv || want_jsonl) &&
      merged->header != campaign::result_header()) {
    std::fprintf(stderr,
                 "cannot write merged rows: input columns differ from this "
                 "binary's row schema\n");
    return 1;
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
    if (!emit_merged(csv, csv.ok(), "csv", csv_path)) return 1;
  }
  if (want_jsonl) {
    campaign::JsonlResultSink jsonl(jsonl_path);
    if (!emit_merged(jsonl, jsonl.ok(), "jsonl", jsonl_path)) return 1;
  }

  std::optional<campaign::CampaignAggregates> agg;
  if (baseline_name != "none") {
    const auto baseline = core::policy_from_string(baseline_name);
    if (!baseline) {
      std::fprintf(stderr, "unknown --baseline policy: %s\n",
                   baseline_name.c_str());
      return 1;
    }
    agg = campaign::aggregate_rows(*merged, *baseline, &error);
    if (!agg) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("%zu rows, %zu matched comparisons\n\n",
                merged->rows.size(), agg->comparisons.size());
    std::printf("%s", agg->render().c_str());
  }

  if (want_figures) {
    if (!agg) {
      std::fprintf(stderr,
                   "--figures needs aggregates; do not pass "
                   "--baseline=none with it\n");
      return 1;
    }
    const auto written =
        campaign::write_figure_data(*agg, figures_dir, &error);
    if (!written) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    for (const auto& path : *written)
      std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  return 0;
}
