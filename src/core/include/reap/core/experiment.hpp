// Experiment runner: one workload x one read-path policy -> reliability,
// energy, performance. This is the facade the benches and examples drive;
// it wires together every substrate exactly the way the paper's evaluation
// does (Sec. V): synthetic workload -> 2-level hierarchy -> policy hooks ->
// failure ledger -> MTTF, with nvsim supplying energies/latencies.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "reap/common/histogram.hpp"
#include "reap/core/energy.hpp"
#include "reap/core/read_path.hpp"
#include "reap/mtj/mtj_params.hpp"
#include "reap/nvsim/cache_model.hpp"
#include "reap/reliability/mttf.hpp"
#include "reap/sim/cpu.hpp"
#include "reap/sim/hierarchy.hpp"
#include "reap/trace/workload.hpp"

namespace reap::core {

struct ExperimentConfig {
  trace::WorkloadProfile workload;
  PolicyKind policy = PolicyKind::conventional_parallel;

  sim::HierarchyConfig hierarchy;  // defaults = paper Table I
  mtj::MtjParams mtj = mtj::paper_default();
  nvsim::TechNode tech = nvsim::tech_32nm();
  unsigned ecc_t = 1;  // line-code correction capability (1 = SEC-DED)

  std::uint64_t instructions = 5'000'000;
  std::uint64_t warmup_instructions = 500'000;
  double clock_ghz = 2.0;
  std::uint64_t seed = 42;

  bool check_on_dirty_eviction = false;  // extension, off = paper-faithful
  std::uint64_t scrub_every = 64;        // scrub_piggyback policy period
};

struct ExperimentResult {
  std::string workload;
  PolicyKind policy = PolicyKind::conventional_parallel;

  // Performance.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double sim_seconds = 0.0;
  std::uint32_t l2_hit_cycles = 0;

  // Hierarchy behaviour.
  sim::HierarchyStats hier;

  // Reliability.
  reliability::MttfResult mttf;
  std::uint64_t checks = 0;
  std::uint64_t max_concealed = 0;
  common::LogHistogram concealed;  // Fig. 3 source data

  // Energy.
  EnergyEvents events;
  EnergyBreakdown energy;

  double p_rd = 0.0;  // device operating point used
};

// Runs every config of `cfgs` over ONE walk of the hierarchy. The tags,
// LRU state, dirty bits, fills and ones of the L1s and L2 are a function
// of the walk fields alone -- workload profile, hierarchy, seed,
// instructions, warmup_instructions -- so one TraceCpu pass drives every
// config's read-path policy as an observer (core::PolicyObservers): each
// has its own reads_since_check column, ledger, events, line code and
// circuit model, and its cycles are the walk's plus its own L2 hit
// latency per L2 read hit. Results are returned in `cfgs` order and each
// is byte-identical to running that config alone: a result never depends
// on which configs share its walk. Configs whose walk fields differ are
// refused (REAP_EXPECTS).
//
// Ops come from `source` when given -- it must yield the byte-identical
// op sequence WorkloadTraceSource(cfgs[0].workload) would, e.g. a
// trace::ReplayTraceSource over an arena materialized from it -- and from
// a fresh generator otherwise. The drive loop is TraceCpu::run_vectorized
// (batch address pre-decode, software prefetch of upcoming set columns,
// SIMD set scans where the build enables them), instantiated once over
// PolicyObservers with no per-access virtual call or switch.
std::vector<ExperimentResult> run_experiment_group(
    std::span<const ExperimentConfig> cfgs,
    trace::TraceSource* source = nullptr);

// Runs one experiment end to end: a group of one. Results are pinned to
// recorded golden values by tests/core/test_static_dispatch.cpp.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

// A group of one over `source` (see run_experiment_group); results are
// byte-identical to run_experiment (golden-pinned by
// tests/core/test_static_dispatch.cpp).
ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source);

// Runs `base` and `other` on the same workload/seed -- as one group, so
// one walk feeds both -- and reports the headline comparisons the paper's
// figures plot.
struct PolicyComparison {
  ExperimentResult base;
  ExperimentResult other;
  double mttf_gain = 0.0;            // MTTF_other / MTTF_base  (Fig. 5)
  double energy_ratio = 0.0;         // E_other / E_base        (Fig. 6)
  double energy_overhead_pct = 0.0;  // (ratio - 1) * 100
  double speedup = 0.0;              // IPC_other / IPC_base
};

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other);

// The ECC line code the configuration implies (SEC-DED for t=1, BCH above);
// shared by benches that need codec-level costs.
std::unique_ptr<ecc::Code> make_line_code(std::size_t data_bits, unsigned t);

// Policy-dependent L2 hit latency in cycles, derived from the nvsim read
// path (Sec. V-B: REAP <= conventional; serial pays the full sum).
std::uint32_t l2_hit_cycles_for(PolicyKind kind,
                                const nvsim::ReadPathTiming& timing,
                                double clock_ghz);

}  // namespace reap::core
