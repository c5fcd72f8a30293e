// reap_layer_trace: the benchmark's traced run, in one process.
//
// Runs one workload's campaign grid through the public calls of the
// campaign layer -- the same calls, in the same order, that reap_campaign
// makes -- and records a span around each call into a src/ module: name,
// start, end, parent, and the grid point's key as the trace id. After the
// grid it runs single-threaded probes on a fixed sample of the grid's own
// trace keys, timing the sublayers the grid run cannot separate (trace
// generation and replay, the hierarchy walk with no policy, the per-point
// rig parts, each policy's point, the trace store and CRC32C), then a
// small reap_dispatch run over the sample. Spans stay in memory and are
// written out when the run ends; perfbench/run.py turns them into
// per-layer metrics.
//
// A span around a call into a module is named `<module>.<call>`, so its
// first component is the layer its self time counts to. The harness's own
// code -- the grid and probe roots, and the per-point function that
// reap_campaign's main defines -- runs in spans named `grid.*` and
// `probe*`, which belong to no layer: their self time is time the
// wrapped calls do not cover.
//
// Usage (run.py builds the flags from the workload definition):
//   reap_layer_trace --out-dir=DIR --campaign-bin=PATH [--report-in-run]
//       [--threads=N] [--trace-cache-mb=N] [--trace-dir=DIR]
//       [spec key=value flags | --spec=FILE]
//
// Writes DIR/spans.jsonl, DIR/facts.json, DIR/rows.csv (the merged rows,
// for the output check) and DIR/figures/ (reap_report's figure data).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "reap/campaign/campaign.hpp"
#include "reap/campaign/dispatch.hpp"
#include "reap/common/cli.hpp"
#include "reap/common/crc32c.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/core/experiment.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/nvsim/cache_model.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/trace_store.hpp"

using namespace reap;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string trace_id;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  unsigned thread = 0;
  std::uint64_t work = 0;  // units of work the call did (instructions, bytes)
};

// In-memory span store. A closing span appends its record to its own
// thread's buffer, taking no lock; nothing is written until the run ends.
class Tracer {
 public:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  std::uint64_t next_id() { return ++last_id_; }
  unsigned thread_index() { return next_thread_++; }
  void record(SpanRecord rec) { buffer().push_back(std::move(rec)); }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& buf : buffers_) {
      for (const auto& s : buf) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << common::json_escape(s.name)
            << "\",\"trace\":\"" << common::json_escape(s.trace_id)
            << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"thread\":" << s.thread
            << ",\"work\":" << s.work << "}\n";
      }
    }
    return static_cast<bool>(out);
  }

 private:
  // The calling thread's buffer, owned here so it outlives the thread.
  std::vector<SpanRecord>& buffer() {
    thread_local std::vector<SpanRecord>* buf = nullptr;
    if (!buf) {
      std::lock_guard<std::mutex> lock(mu_);
      buf = &buffers_.emplace_back();
    }
    return *buf;
  }

  const Clock::time_point t0_ = Clock::now();
  std::atomic<std::uint64_t> last_id_{0};
  std::atomic<unsigned> next_thread_{0};
  std::mutex mu_;
  std::deque<std::vector<SpanRecord>> buffers_;  // stable addresses
};

Tracer g_tracer;
constexpr int kProbeReps = 3;
constexpr std::size_t kSample = 4;  // trace keys probed per workload
constexpr std::size_t kProbeWorkers = 2;  // reap_dispatch probe workers
constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};
thread_local std::uint64_t t_current = 0;
thread_local unsigned t_thread = g_tracer.thread_index();

// RAII span: opens at construction, closes and records at destruction.
// Nested spans on one thread take the innermost open span as parent;
// work on a runner thread names its parent explicitly.
class Span {
 public:
  Span(std::string name, std::string trace_id,
       std::uint64_t parent = kInheritParent) {
    rec_.id = g_tracer.next_id();
    rec_.parent = parent == kInheritParent ? t_current : parent;
    rec_.name = std::move(name);
    rec_.trace_id = std::move(trace_id);
    rec_.thread = t_thread;
    saved_ = t_current;
    t_current = rec_.id;
    rec_.start_ns = g_tracer.now_ns();
  }
  ~Span() {
    rec_.end_ns = g_tracer.now_ns();
    t_current = saved_;
    g_tracer.record(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }
  void set_work(std::uint64_t work) { rec_.work = work; }

 private:
  SpanRecord rec_;
  std::uint64_t saved_ = 0;
};

// Flat name -> number map written as facts.json: counts the program
// reports that are not times (times come from the spans).
class Facts {
 public:
  void set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] = value;
  }
  void add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] += value;
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{";
    bool first = true;
    for (const auto& [k, v] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out << (first ? "" : ",") << "\n  \"" << common::json_escape(k)
          << "\": " << buf;
      first = false;
    }
    out << "\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::mutex mu_;
  std::map<std::string, double> values_;
};

Facts g_facts;

std::uint64_t budget_of(const core::ExperimentConfig& cfg) {
  return cfg.warmup_instructions + cfg.instructions;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

// The experiment's L2 circuit geometry, built the way core's rig builds it.
nvsim::CacheGeometry l2_geometry(const core::ExperimentConfig& cfg) {
  nvsim::CacheGeometry geom;
  geom.capacity_bytes = cfg.hierarchy.l2.capacity_bytes;
  geom.ways = cfg.hierarchy.l2.ways;
  geom.block_bytes = cfg.hierarchy.l2.block_bytes;
  geom.data_cell = nvsim::CellType::stt_mram;
  return geom;
}

struct GridOptions {
  std::string out_dir;
  std::string trace_dir;
  std::uint64_t trace_cache_mb = 0;
  unsigned threads = 0;
  bool report_in_run = false;
};

int fail(const std::string& msg) {
  std::fprintf(stderr, "reap_layer_trace: %s\n", msg.c_str());
  return 1;
}

// reap_report's steps over the run's journal: load, merge, aggregate vs
// the conventional baseline, write figure data.
bool traced_report(const std::string& journal, const std::string& fig_dir,
                   std::string* error) {
  Span report("campaign.report", "report");
  std::vector<campaign::RowTable> tables;
  {
    Span s("campaign.report.load", "report");
    auto table = campaign::load_rows(journal, error);
    if (!table) return false;
    tables.push_back(std::move(*table));
  }
  std::optional<campaign::RowTable> merged;
  {
    Span s("campaign.report.merge", "report");
    merged = campaign::merge_tables(std::move(tables), error);
    if (!merged) return false;
  }
  std::optional<campaign::CampaignAggregates> agg;
  {
    Span s("campaign.report.aggregate", "report");
    agg = campaign::aggregate_rows(
        *merged, core::PolicyKind::conventional_parallel, error);
    if (!agg) return false;
  }
  Span s("campaign.report.figures", "report");
  return campaign::write_figure_data(*agg, fig_dir, error).has_value();
}

// The reap_campaign path: expand, open the store and sinks, run the grid
// on the campaign runner (trace cache + replay when enabled), journal each
// row, merge and emit.
bool traced_campaign(const campaign::CampaignSpec& spec,
                     const GridOptions& opt, const std::string& root,
                     const std::string& csv_path, std::string* error) {
  const std::string journal_path = opt.out_dir + "/" + root + ".journal";
  Span run(root, "run");
  std::vector<campaign::CampaignPoint> points;
  {
    Span s("campaign.expand", "run");
    points = campaign::expand(spec);
  }

  std::unordered_map<std::string, trace::MaterializedTrace> mapped;
  if (!opt.trace_dir.empty()) {
    for (const auto& pt : points) {
      if (mapped.count(pt.trace_key)) continue;
      const auto path = (fs::path(opt.trace_dir) /
                         trace::trace_store_filename(pt.trace_key))
                            .string();
      if (!fs::exists(path)) continue;
      Span s("trace.store.open", pt.trace_key);
      const auto file = trace::MappedTraceFile::open(path, error);
      if (!file) return false;
      mapped.emplace(pt.trace_key, file->borrow(file));
    }
  }

  std::optional<campaign::CsvResultSink> csv;
  std::optional<campaign::JournalWriter> journal;
  {
    Span s("campaign.sinks.open", "run");
    csv.emplace(csv_path);
    journal.emplace(journal_path, campaign::JournalHeader::for_run(
                                      spec, points.size(), 0, 1));
    if (!csv->ok() || !journal->ok()) {
      *error = "cannot open outputs in " + opt.out_dir;
      return false;
    }
  }

  std::optional<campaign::TraceCache> cache;
  std::vector<core::ExperimentResult> results;
  std::vector<campaign::JournalRow> fresh;
  fresh.reserve(points.size());
  {
    Span runner_span("campaign.runner", "run");
    const std::uint64_t runner_id = runner_span.id();
    campaign::RunnerOptions ropts;
    ropts.threads = opt.threads;
    ropts.on_result = [&](const campaign::CampaignPoint& pt,
                          const core::ExperimentResult& r) {
      Span s("campaign.journal.add", pt.key, runner_id);
      auto cells = campaign::result_cells(pt, r);
      journal->add(pt.key, cells);
      fresh.push_back({pt.key, pt.index, std::move(cells)});
    };
    const bool use_cache = opt.trace_cache_mb > 0 || !mapped.empty();
    if (use_cache) cache.emplace(opt.trace_cache_mb << 20);
    ropts.run_point_fn = [&](const campaign::CampaignPoint& pt) {
      Span point("grid.point", pt.key, runner_id);
      const std::string core_name =
          "core.point." + core::to_string(pt.config.policy);
      const auto it = mapped.find(pt.trace_key);
      if (!use_cache || (it == mapped.end() && opt.trace_cache_mb == 0)) {
        Span s(core_name, pt.key);
        s.set_work(budget_of(pt.config));
        return core::run_experiment(pt.config);
      }
      std::shared_ptr<const trace::MaterializedTrace> trace;
      {
        Span s("campaign.cache.acquire", pt.key);
        trace = cache->acquire(pt.trace_key, [&] {
          if (it != mapped.end()) return it->second;
          Span g("trace.generate", pt.key);
          g.set_work(budget_of(pt.config));
          trace::WorkloadTraceSource gen(pt.config.workload);
          return trace::MaterializedTrace::materialize(gen,
                                                       budget_of(pt.config));
        });
      }
      trace::ReplayTraceSource source(*trace);
      Span s(core_name, pt.key);
      s.set_work(budget_of(pt.config));
      return core::run_experiment_replay(pt.config, source);
    };
    if (use_cache)
      ropts.group_key = [](const campaign::CampaignPoint& pt) {
        return pt.trace_key;
      };
    campaign::CampaignRunner runner(ropts);
    g_facts.set("grid.threads", runner.effective_threads(points.size()));
    results = runner.run(points);
  }
  if (cache) {
    const auto& st = cache->stats();
    g_facts.set("campaign.cache.hits", static_cast<double>(st.hits.load()));
    g_facts.set("campaign.cache.misses",
                static_cast<double>(st.misses.load()));
    g_facts.set("campaign.cache.peak_bytes",
                static_cast<double>(st.peak_bytes.load()));
    Span s("campaign.cache.release", "run");
    cache.reset();
  }
  {
    Span s("campaign.merge", "run");
    const auto merged = campaign::merge_journal_rows({}, std::move(fresh));
    campaign::emit_rows(merged, *csv);
  }
  {
    // reap_campaign ends by rendering the per-policy aggregate tables.
    Span s("campaign.aggregate", "run");
    const auto agg = campaign::aggregate(
        spec, points, results, core::PolicyKind::conventional_parallel);
    if (agg) std::fputs(agg->render().c_str(), stdout);
  }
  {
    Span s("campaign.sinks.close", "run");
    csv.reset();
    journal.reset();
  }
  if (opt.report_in_run)
    return traced_report(journal_path, opt.out_dir + "/figures", error);
  return true;
}

// The reap_dispatch path: shard the grid over worker processes, tail
// their journals, merge the shard journals and emit.
bool traced_dispatch(const std::map<std::string, std::string>& kv,
                     campaign::DispatchOptions opts,
                     const std::string& csv_path, const std::string& root,
                     std::string* error) {
  Span run(root, "dispatch");
  std::mutex mu;
  std::unordered_map<std::size_t, std::int64_t> spawned_ns;
  std::unordered_map<std::size_t, std::int64_t> first_row_ns;
  opts.on_spawn = [&](std::size_t shard, std::size_t, std::size_t, long) {
    std::lock_guard<std::mutex> lock(mu);
    spawned_ns.try_emplace(shard, g_tracer.now_ns());
  };
  opts.on_shard_rows = [&](std::size_t shard, std::size_t rows) {
    std::lock_guard<std::mutex> lock(mu);
    if (rows > 0) first_row_ns.try_emplace(shard, g_tracer.now_ns());
  };
  campaign::DispatchResult result;
  {
    Span s("campaign.dispatch.workers", "dispatch");
    result = campaign::Dispatcher(kv, opts).run();
  }
  if (!result.ok) {
    *error = "dispatch failed: " + result.error;
    return false;
  }
  g_facts.set("campaign.dispatch.restarts",
              static_cast<double>(result.restarts));
  std::vector<double> first_rows;
  for (const auto& [shard, t] : first_row_ns)
    if (spawned_ns.count(shard))
      first_rows.push_back(static_cast<double>(t - spawned_ns[shard]) * 1e-9);
  std::sort(first_rows.begin(), first_rows.end());
  if (first_rows.empty()) {
    *error = "dispatch reported no rows";
    return false;
  }
  g_facts.set("campaign.dispatch.first_row_p50_s",
              first_rows[first_rows.size() / 2]);
  g_facts.set("campaign.dispatch.first_row_max_s", first_rows.back());
  Span s("campaign.dispatch.merge", "dispatch");
  const auto merged =
      campaign::merge_dispatch_journals(result.journal_paths(), error);
  if (!merged || !campaign::covers_all_indices(*merged)) {
    if (error->empty()) *error = "dispatch journals do not cover the grid";
    return false;
  }
  campaign::CsvResultSink csv(csv_path);
  if (!csv.ok()) {
    *error = "cannot write " + csv_path;
    return false;
  }
  for (const auto& row : merged->rows) csv.add_cells(row);
  return true;
}

// One sample trace: every sublayer probe on its config, single-threaded.
void probe_point(const core::ExperimentConfig& base, const std::string& key,
                 const std::string& store_dir) {
  Span root("probe", key);
  const std::uint64_t budget = budget_of(base);
  trace::MaterializedTrace trace;
  {
    Span s("trace.generate", key);
    s.set_work(budget);
    trace::WorkloadTraceSource gen(base.workload);
    trace = trace::MaterializedTrace::materialize(gen, budget);
  }
  {
    Span s("trace.replay", key);
    s.set_work(budget);
    trace::ReplayTraceSource src(trace);
    std::vector<trace::MemOp> buf(sim::TraceCpu::kBatchOps);
    while (src.next_batch({buf.data(), buf.size()}) > 0) {
    }
  }
  const auto path =
      (fs::path(store_dir) / trace::trace_store_filename(key)).string();
  {
    Span s("trace.store.write", key);
    s.set_work(trace.size() * sizeof(std::uint64_t));
    std::string error;
    if (!trace::write_trace_file(path, trace, key, {}, &error))
      std::fprintf(stderr, "probe: %s\n", error.c_str());
  }
  {
    Span s("trace.store.open", key);
    std::string error;
    if (!trace::MappedTraceFile::open(path, &error))
      std::fprintf(stderr, "probe: %s\n", error.c_str());
  }

  // The rig's parts, in core's construction order, each span named by the
  // module it constructs; page faults of the whole rig are counted on this
  // thread.
  const unsigned bits = base.hierarchy.l2.block_bytes * 8;
  {
    const long faults0 = minor_faults();
    Span rig("core.rig", key);
    std::unique_ptr<ecc::Code> code;
    {
      Span s("core.make_line_code", key);
      code = core::make_line_code(bits, base.ecc_t);
    }
    std::optional<nvsim::CacheModel> circuit;
    {
      Span s("nvsim.cache_model", key);
      circuit.emplace(l2_geometry(base), base.tech, *code, &base.mtj);
    }
    std::optional<reliability::UncorrectableModel> model;
    {
      Span s("reliability.uncorrectable_model", key);
      model.emplace(mtj::read_disturb_probability(base.mtj), base.ecc_t,
                    bits);
    }
    std::optional<sim::MemoryHierarchy> hier;
    {
      Span s("sim.hierarchy", key);
      hier.emplace(base.hierarchy, base.seed);
    }
    {
      Span s("trace.datavalue", key);
      trace::DataValueModel values(base.workload.values, bits,
                                   base.workload.seed ^ 0xABCD);
    }
    g_facts.add("probe.rig.page_faults",
                static_cast<double>(minor_faults() - faults0));
    g_facts.add("probe.rig.count", 1);
  }

  // Hierarchy walk with no policy: L1 + L2 only.
  {
    sim::MemoryHierarchy hier(base.hierarchy, base.seed);
    trace::DataValueModel values(base.workload.values, bits,
                                 base.workload.seed ^ 0xABCD);
    hier.set_l2_ones_provider(sim::OnesProvider(values));
    trace::ReplayTraceSource src(trace);
    sim::TraceCpu cpu(src, hier, base.clock_ghz);
    sim::NullHooks hooks;
    Span s("sim.walk", key);
    s.set_work(budget);
    cpu.run_vectorized(base.warmup_instructions, hooks);
    hier.reset_stats();
    cpu.reset_counters();
    cpu.run_vectorized(base.instructions, hooks);
    const auto& l2 = hier.stats().l2;
    g_facts.add("probe.sim.instructions",
                static_cast<double>(cpu.instructions()));
    g_facts.add("probe.sim.l2_accesses",
                static_cast<double>(l2.read_lookups + l2.write_lookups));
    g_facts.add("probe.sim.l2_hits",
                static_cast<double>(l2.read_hits + l2.write_hits));
  }

  for (const auto kind : core::all_policies()) {
    auto cfg = base;
    cfg.policy = kind;
    const std::string name = core::to_string(kind);
    trace::ReplayTraceSource src(trace);
    core::ExperimentResult r;
    {
      Span s("core.point." + name, key);
      s.set_work(budget);
      r = core::run_experiment_replay(cfg, src);
    }
    g_facts.add("probe.reliability." + name + ".checks",
                static_cast<double>(r.checks));
    g_facts.add("probe.reliability." + name + ".instructions",
                static_cast<double>(r.instructions));
  }
}

void probe_crc32c() {
  // 64 MB of deterministic, non-constant bytes.
  std::string buf(64u << 20, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& c : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  Span root("probe.crc32c", "crc32c");
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Span s("common.crc32c", "crc32c");
    s.set_work(buf.size());
    common::crc32c(buf);
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::CliArgs args(argc, argv);
  std::string error;
  const auto kv = campaign::spec_kv_from_cli(args, &error);
  if (!kv || kv->empty()) return fail(kv ? "no spec given" : error);
  const auto spec = campaign::CampaignSpec::from_kv(*kv, &error);
  if (!spec) return fail("bad spec: " + error);

  GridOptions opt;
  opt.out_dir = args.get_string("out-dir", "");
  opt.trace_dir = args.get_string("trace-dir", "");
  opt.trace_cache_mb = args.get_u64("trace-cache-mb", 0);
  opt.threads = static_cast<unsigned>(args.get_u64("threads", 0));
  opt.report_in_run = args.has("report-in-run");
  if (opt.out_dir.empty()) return fail("--out-dir is required");
  fs::remove_all(opt.out_dir);
  fs::create_directories(opt.out_dir + "/probe_store");

  campaign::DispatchOptions dopts;
  dopts.campaign_binary = args.get_string("campaign-bin", "");
  dopts.workers = kProbeWorkers;
  dopts.jobs = 2 * kProbeWorkers;
  dopts.worker_threads = 1;
  dopts.trace_cache_mb = opt.trace_cache_mb;
  dopts.trace_dir = opt.trace_dir;
  if (dopts.campaign_binary.empty()) return fail("--campaign-bin is required");

  // The grid, traced.
  const std::string rows_csv = opt.out_dir + "/rows.csv";
  if (!traced_campaign(*spec, opt, "grid.campaign", rows_csv, &error))
    return fail(error);
  if (!opt.report_in_run &&
      !traced_report(rows_csv, opt.out_dir + "/figures", &error))
    return fail(error);

  // The fixed sample: kSample trace keys spread evenly over the grid's
  // trace groups (expansion order), each probed with its first point's
  // config.
  const auto points = campaign::expand(*spec);
  std::vector<const campaign::CampaignPoint*> firsts;
  std::unordered_set<std::string> seen;
  for (const auto& pt : points)
    if (seen.insert(pt.trace_key).second) firsts.push_back(&pt);
  std::vector<const campaign::CampaignPoint*> picked;
  const std::size_t n = std::min(kSample, firsts.size());
  for (std::size_t i = 0; i < n; ++i)
    picked.push_back(firsts[i * firsts.size() / n]);
  g_facts.set("probe.sample", static_cast<double>(picked.size()));
  // Each probe repeats; run.py takes the median per sample point, so one
  // cold or preempted repetition does not set a sublayer's time.
  for (int rep = 0; rep < kProbeReps; ++rep)
    for (const auto* pt : picked)
      probe_point(pt->config, pt->trace_key, opt.out_dir + "/probe_store");
  probe_crc32c();

  // The dispatch probe: reap_dispatch over the sample's workloads and seed
  // replicas, so the dispatch and transport layers are timed too.
  std::set<std::string> workloads;
  std::set<std::uint64_t> seeds;
  for (const auto* pt : picked) {
    workloads.insert(pt->config.workload.name);
    seeds.insert(spec->seeds[pt->seed_i]);
  }
  auto probe_kv = *kv;
  std::string list;
  for (const auto& w : workloads) list += (list.empty() ? "" : ",") + w;
  probe_kv["workloads"] = list;
  list.clear();
  for (const auto s : seeds)
    list += (list.empty() ? "" : ",") + std::to_string(s);
  probe_kv["seeds"] = list;
  dopts.work_dir = opt.out_dir + "/dispatch_probe";
  if (!traced_dispatch(probe_kv, dopts, opt.out_dir + "/probe_rows.csv",
                       "probe.dispatch", &error))
    return fail(error);

  if (!g_tracer.write(opt.out_dir + "/spans.jsonl") ||
      !g_facts.write(opt.out_dir + "/facts.json"))
    return fail("cannot write spans/facts to " + opt.out_dir);
  return 0;
}
