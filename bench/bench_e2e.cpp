// End-to-end experiment throughput (google-benchmark): instructions/sec of
// the simulation engine per read-path policy on the paper's default
// Table I configuration, for both trace sources:
//
//   E2E/simd/<policy>     -- the engine generating its trace inline:
//                            batched trace pulls, policy statically
//                            dispatched and inlined into the cache access
//                            path, vectorized drive loop (batch pre-decode
//                            + prefetch + SIMD set scans) (run_experiment)
//   E2E/replay/<policy>   -- the same engine fed from a materialized trace
//                            (run_experiment_replay over a pre-built
//                            arena): the steady-state cost of a campaign
//                            grid point whose trace-cache lookup hits,
//                            i.e. every point of a paired group after the
//                            first. replay/simd isolates the RNG
//                            generation share of the hot path
//   E2E/group             -- one hierarchy walk over the same replayed
//                            arena feeding all five policies as observers
//                            (run_experiment_group): a campaign trace
//                            group's cost. Items are 5 x instructions --
//                            simulated instructions per wall second
//                            summed over the five points -- so
//                            group / replay is the fan-out win over
//                            replaying the arena once per policy
//   E2E/hier              -- the hierarchy walk alone over the same
//                            replayed arena: L1 + L2 with NullHooks, the
//                            data-value model attached as the L2's ones
//                            provider exactly as a group's walk rig
//                            attaches it. replay minus hier is what the
//                            policy hooks and the ledger cost
//
// The replay/simd and group/replay ratios are measured inside one binary
// (bench_diff.py --gate holds their floors in CI); comparing
// BENCH_e2e.json files across
// commits (tools/bench_diff.py) tracks the full perf trajectory, including
// substrate changes both series share. items_per_second is simulated
// instructions per wall second — the number ROADMAP's "SPEC-length
// windows become routine" goal moves on.
//
// Emit the JSON artifact with:
//   bench_e2e --benchmark_out=BENCH_e2e.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <vector>

#include "reap/core/experiment.hpp"
#include "reap/trace/datavalue.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"

using namespace reap;

namespace {

// Default Table I hierarchy/device config; perlbench is the bundled
// workload with the paper's qualitative "average case" mix (hot-set reuse
// + streams + pointer-ish noise).
core::ExperimentConfig bench_cfg(core::PolicyKind policy) {
  core::ExperimentConfig cfg;
  cfg.workload = *trace::spec2006_profile("perlbench");
  cfg.policy = policy;
  cfg.instructions = 400'000;
  cfg.warmup_instructions = 50'000;
  return cfg;
}

void run_e2e(benchmark::State& state, core::PolicyKind policy) {
  const auto cfg = bench_cfg(policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfg.instructions));
}

// Replay steady state: the arena is materialized once outside the timed
// region (amortized to ~zero across a paired group in a real campaign)
// and every iteration replays it, exactly as a campaign point with a
// trace-cache hit does.
void run_e2e_replay(benchmark::State& state, core::PolicyKind policy) {
  const auto cfg = bench_cfg(policy);
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfg.warmup_instructions + cfg.instructions);
  for (auto _ : state) {
    trace::ReplayTraceSource source(trace);
    benchmark::DoNotOptimize(core::run_experiment_replay(cfg, source));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfg.instructions));
}

// One walk, five observers: every policy over the replayed arena in one
// run_experiment_group call.
void run_e2e_group(benchmark::State& state) {
  std::vector<core::ExperimentConfig> cfgs;
  for (const core::PolicyKind policy : core::all_policies())
    cfgs.push_back(bench_cfg(policy));
  trace::WorkloadTraceSource gen(cfgs.front().workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfgs.front().warmup_instructions + cfgs.front().instructions);
  for (auto _ : state) {
    trace::ReplayTraceSource source(trace);
    benchmark::DoNotOptimize(core::run_experiment_group(cfgs, &source));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * cfgs.size() * cfgs.front().instructions));
}

// The walk with no observer: warm-up, stats reset, measured window, as
// run_experiment_group drives it, with the provider attached the same way
// (block bits, workload seed ^ 0xABCD).
void run_e2e_hier(benchmark::State& state) {
  const auto cfg = bench_cfg(core::PolicyKind::conventional_parallel);
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfg.warmup_instructions + cfg.instructions);
  for (auto _ : state) {
    trace::ReplayTraceSource source(trace);
    sim::MemoryHierarchy hier(cfg.hierarchy, cfg.seed);
    const trace::DataValueModel values(cfg.workload.values,
                                       cfg.hierarchy.l2.block_bytes * 8,
                                       cfg.workload.seed ^ 0xABCD);
    hier.set_l2_ones_provider(sim::OnesProvider(values));
    sim::TraceCpu cpu(source, hier, cfg.clock_ghz);
    sim::NullHooks hooks;
    cpu.run_vectorized(cfg.warmup_instructions, hooks);
    hier.reset_stats();
    cpu.reset_counters();
    benchmark::DoNotOptimize(cpu.run_vectorized(cfg.instructions, hooks));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfg.instructions));
}

void register_all() {
  for (const core::PolicyKind policy : core::all_policies()) {
    benchmark::RegisterBenchmark(
        ("E2E/simd/" + core::to_string(policy)).c_str(),
        [policy](benchmark::State& s) { run_e2e(s, policy); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E2E/replay/" + core::to_string(policy)).c_str(),
        [policy](benchmark::State& s) { run_e2e_replay(s, policy); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("E2E/group", run_e2e_group)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("E2E/hier", run_e2e_hier)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
