#include "reap/core/experiment.hpp"

#include <cmath>

#include "reap/common/assert.hpp"
#include "reap/core/policy_impl.hpp"
#include "reap/ecc/bch.hpp"
#include "reap/ecc/secded.hpp"
#include "reap/mtj/read_disturb.hpp"
#include "reap/mtj/write_model.hpp"
#include "reap/reliability/binomial.hpp"
#include "reap/trace/datavalue.hpp"

namespace reap::core {

std::unique_ptr<ecc::Code> make_line_code(std::size_t data_bits, unsigned t) {
  REAP_EXPECTS(t >= 1);
  if (t == 1) return std::make_unique<ecc::SecDedCode>(data_bits);
  return std::make_unique<ecc::BchCode>(data_bits, t);
}

std::uint32_t l2_hit_cycles_for(PolicyKind kind,
                                const nvsim::ReadPathTiming& timing,
                                double clock_ghz) {
  // Fixed pipeline overhead (request queue, controller, bus turnaround)
  // on top of the array path.
  constexpr std::uint32_t kControllerCycles = 6;
  const double period_ns = 1.0 / clock_ghz;

  double path_ns = 0.0;
  switch (kind) {
    case PolicyKind::conventional_parallel:
      path_ns = common::in_nanoseconds(timing.conventional_total);
      break;
    case PolicyKind::reap:
      path_ns = common::in_nanoseconds(timing.reap_total);
      break;
    case PolicyKind::serial_tag_then_data:
      path_ns = common::in_nanoseconds(timing.tag_path + timing.data_path +
                                       timing.ecc_decode + timing.mux);
      break;
    case PolicyKind::disruptive_restore:
      // Conventional path plus the restore write occupying the array.
      path_ns = common::in_nanoseconds(timing.conventional_total) * 2.0;
      break;
    case PolicyKind::scrub_piggyback:
      // Scrub decodes happen off the return path; latency is conventional.
      path_ns = common::in_nanoseconds(timing.conventional_total);
      break;
  }
  return kControllerCycles +
         static_cast<std::uint32_t>(std::ceil(path_ns / period_ns));
}

namespace {

nvsim::CacheGeometry l2_geometry(const ExperimentConfig& cfg) {
  nvsim::CacheGeometry geom;
  geom.capacity_bytes = cfg.hierarchy.l2.capacity_bytes;
  geom.ways = cfg.hierarchy.l2.ways;
  geom.block_bytes = cfg.hierarchy.l2.block_bytes;
  geom.data_cell = nvsim::CellType::stt_mram;
  return geom;
}

// Everything an experiment wires together except the policy object.
struct ExperimentRig {
  std::unique_ptr<ecc::Code> line_code;
  double p_rd;
  double p_wf;
  nvsim::CacheModel circuit;
  reliability::UncorrectableModel model;
  reliability::FailureLedger ledger;
  PolicyContext ctx;
  sim::MemoryHierarchy hier;
  trace::DataValueModel values;
  // The op stream: the config's own generator by default, or an external
  // source (e.g. a trace::ReplayTraceSource over a materialized arena) —
  // which must yield the byte-identical sequence the generator would.
  std::unique_ptr<trace::WorkloadTraceSource> own_source;
  trace::TraceSource& source;
  sim::TraceCpu cpu;
  std::uint32_t hit_cycles;

  explicit ExperimentRig(const ExperimentConfig& cfg,
                         trace::TraceSource* external = nullptr)
      : line_code(make_line_code(cfg.hierarchy.l2.block_bytes * 8, cfg.ecc_t)),
        p_rd(mtj::read_disturb_probability(cfg.mtj)),
        p_wf(mtj::write_failure_probability(cfg.mtj)),
        circuit(l2_geometry(cfg), cfg.tech, *line_code, &cfg.mtj),
        model(p_rd, cfg.ecc_t, cfg.hierarchy.l2.block_bytes * 8),
        hier(cfg.hierarchy, cfg.seed),
        values(cfg.workload.values, cfg.hierarchy.l2.block_bytes * 8,
               cfg.workload.seed ^ 0xABCD),
        own_source(external ? nullptr
                            : std::make_unique<trace::WorkloadTraceSource>(
                                  cfg.workload)),
        source(external ? *external : *own_source),
        cpu(source, hier, cfg.clock_ghz),
        hit_cycles(l2_hit_cycles_for(cfg.policy, circuit.timing(),
                                     cfg.clock_ghz)) {
    ctx.model = &model;
    ctx.ledger = &ledger;
    ctx.ways = cfg.hierarchy.l2.ways;
    ctx.write_fail_per_cell = p_wf;
    ctx.codeword_bits = line_code->codeword_bits();
    ctx.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
    ctx.scrub_every = cfg.scrub_every;
    hier.set_l2_hit_cycles(hit_cycles);
    hier.set_l2_ones_provider(sim::OnesProvider(values));
  }

  void reset_accounting() {
    hier.reset_stats();
    ledger.reset();
    cpu.reset_counters();
  }
};

// Collects the result after the run; `policy` only needs events().
template <class Policy>
ExperimentResult collect(const ExperimentConfig& cfg, const ExperimentRig& rig,
                         const Policy& policy) {
  ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = rig.cpu.instructions();
  r.cycles = rig.cpu.cycles();
  r.ipc = rig.cpu.ipc();
  r.sim_seconds = rig.cpu.seconds();
  r.l2_hit_cycles = rig.hit_cycles;
  r.hier = rig.hier.stats();
  r.mttf = reliability::compute_mttf(rig.ledger.total_failure_prob(),
                                     rig.cpu.seconds());
  r.checks = rig.ledger.checks();
  r.max_concealed = rig.ledger.max_concealed();
  r.concealed = rig.ledger.histogram();
  r.events = policy.events();
  r.energy = compute_energy(r.events, rig.circuit.energies());
  r.p_rd = rig.p_rd;
  return r;
}

void check_config(const ExperimentConfig& cfg) {
  REAP_EXPECTS(cfg.instructions > 0);
  REAP_EXPECTS(!cfg.workload.patterns.empty());
}

ExperimentResult run_static(const ExperimentConfig& cfg, ExperimentRig& rig) {
  return with_policy_impl(cfg.policy, rig.ctx, [&](auto& policy) {
    // Warmup: populate caches, then reset all accounting.
    if (cfg.warmup_instructions > 0) {
      rig.cpu.run_vectorized(cfg.warmup_instructions, policy);
      rig.reset_accounting();
      policy.reset_events();
    }
    rig.cpu.run_vectorized(cfg.instructions, policy);
    return collect(cfg, rig, policy);
  });
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  check_config(cfg);
  ExperimentRig rig(cfg);
  return run_static(cfg, rig);
}

ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source) {
  check_config(cfg);
  ExperimentRig rig(cfg, &source);
  return run_static(cfg, rig);
}

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other) {
  ExperimentConfig base_cfg = cfg;
  base_cfg.policy = base;
  ExperimentConfig other_cfg = cfg;
  other_cfg.policy = other;

  PolicyComparison c;
  c.base = run_experiment(base_cfg);
  c.other = run_experiment(other_cfg);
  c.mttf_gain = reliability::mttf_ratio(c.other.mttf, c.base.mttf);
  const double eb = c.base.energy.dynamic_total_j();
  const double eo = c.other.energy.dynamic_total_j();
  c.energy_ratio = eb > 0.0 ? eo / eb : 1.0;
  c.energy_overhead_pct = (c.energy_ratio - 1.0) * 100.0;
  c.speedup = c.base.ipc > 0.0 ? c.other.ipc / c.base.ipc : 1.0;
  return c;
}

}  // namespace reap::core
