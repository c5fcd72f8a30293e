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

// The walk fields: every config input the hierarchy walk reads. Configs
// equal on these drive the byte-identical walk, whatever their policy,
// ecc_t, scrub period, device point or clock.
bool same_walk(const ExperimentConfig& a, const ExperimentConfig& b) {
  return a.workload == b.workload && a.hierarchy == b.hierarchy &&
         a.seed == b.seed && a.instructions == b.instructions &&
         a.warmup_instructions == b.warmup_instructions;
}

// The shared part of a group's rig: one hierarchy, one data-value model,
// one op source and one core. The walk runs at l2_hit_cycles = 0; each
// observer adds its own hit latency per L2 read hit (see collect).
struct WalkRig {
  sim::MemoryHierarchy hier;
  trace::DataValueModel values;
  // The op stream: the config's own generator by default, or an external
  // source (e.g. a trace::ReplayTraceSource over a materialized arena) —
  // which must yield the byte-identical sequence the generator would.
  std::unique_ptr<trace::WorkloadTraceSource> own_source;
  trace::TraceSource& source;
  sim::TraceCpu cpu;

  WalkRig(const ExperimentConfig& cfg, trace::TraceSource* external)
      : hier(cfg.hierarchy, cfg.seed),
        values(cfg.workload.values, cfg.hierarchy.l2.block_bytes * 8,
               cfg.workload.seed ^ 0xABCD),
        own_source(external ? nullptr
                            : std::make_unique<trace::WorkloadTraceSource>(
                                  cfg.workload)),
        source(external ? *external : *own_source),
        cpu(source, hier, cfg.clock_ghz) {
    hier.set_l2_hit_cycles(0);
    hier.set_l2_ones_provider(sim::OnesProvider(values));
  }
};

// The failure models of a group's observers, one per distinct (p_rd,
// ecc_t, line bits). Building one evaluates every single-read tail, and a
// model is memo-transparent and used only on the group's thread, so
// observers that agree on those three share it (a policy-axis group of
// five builds one).
class ModelPool {
 public:
  const reliability::UncorrectableModel& get(double p_rd, unsigned t,
                                             std::uint64_t line_bits) {
    for (const Entry& e : models_) {
      if (e.model->p_rd() == p_rd && e.model->t() == t &&
          e.line_bits == line_bits)
        return *e.model;
    }
    models_.push_back(
        {std::make_unique<reliability::UncorrectableModel>(p_rd, t, line_bits),
         line_bits});
    return *models_.back().model;
  }

 private:
  struct Entry {
    std::unique_ptr<reliability::UncorrectableModel> model;
    std::uint64_t line_bits;
  };
  std::vector<Entry> models_;
};

// One observer's part of the rig: its line code, device and circuit
// models, failure ledger and L2 hit latency, and its (possibly shared)
// failure model.
struct ObserverRig {
  std::unique_ptr<ecc::Code> line_code;
  double p_rd;
  double p_wf;
  nvsim::CacheModel circuit;
  const reliability::UncorrectableModel& model;
  reliability::FailureLedger ledger;
  std::uint32_t hit_cycles;

  ObserverRig(const ExperimentConfig& cfg, ModelPool& models)
      : line_code(make_line_code(cfg.hierarchy.l2.block_bytes * 8, cfg.ecc_t)),
        p_rd(mtj::read_disturb_probability(cfg.mtj)),
        p_wf(mtj::write_failure_probability(cfg.mtj)),
        circuit(l2_geometry(cfg), cfg.tech, *line_code, &cfg.mtj),
        model(models.get(p_rd, cfg.ecc_t, cfg.hierarchy.l2.block_bytes * 8)),
        hit_cycles(l2_hit_cycles_for(cfg.policy, circuit.timing(),
                                     cfg.clock_ghz)) {}

  PolicyContext context(const ExperimentConfig& cfg,
                        const sim::SetAssocCache& l2) {
    PolicyContext ctx;
    ctx.model = &model;
    ctx.ledger = &ledger;
    ctx.ways = cfg.hierarchy.l2.ways;
    ctx.lines = l2.lines();
    ctx.write_fail_per_cell = p_wf;
    ctx.codeword_bits = line_code->codeword_bits();
    ctx.check_on_dirty_eviction = cfg.check_on_dirty_eviction;
    ctx.scrub_every = cfg.scrub_every;
    return ctx;
  }
};

// One observer's result. Its cycles are the shared walk's (run at zero L2
// hit latency) plus its own latency per L2 read hit: l2_read is the only
// source of L2 read lookups and the warm-up reset zeroes both counters
// together, so this is the exact integer count a solo walk at
// hit_cycles would have accumulated.
ExperimentResult collect(const ExperimentConfig& cfg, const WalkRig& walk,
                         const ObserverRig& obs, const EnergyEvents& events) {
  const std::uint64_t cycles =
      walk.cpu.cycles() + walk.hier.l2().stats().read_hits * obs.hit_cycles;
  const double seconds = sim::TraceCpu::seconds_of(cycles, cfg.clock_ghz);
  ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = walk.cpu.instructions();
  r.cycles = cycles;
  r.ipc = sim::TraceCpu::ipc_of(r.instructions, cycles);
  r.sim_seconds = seconds;
  r.l2_hit_cycles = obs.hit_cycles;
  r.hier = walk.hier.stats();
  r.mttf = reliability::compute_mttf(obs.ledger.total_failure_prob(), seconds);
  r.checks = obs.ledger.checks();
  r.max_concealed = obs.ledger.max_concealed();
  r.concealed = obs.ledger.histogram();
  r.events = events;
  r.energy = compute_energy(r.events, obs.circuit.energies());
  r.p_rd = obs.p_rd;
  return r;
}

void check_config(const ExperimentConfig& cfg) {
  REAP_EXPECTS(cfg.instructions > 0);
  REAP_EXPECTS(!cfg.workload.patterns.empty());
  REAP_EXPECTS(cfg.clock_ghz > 0.0);
}

}  // namespace

std::vector<ExperimentResult> run_experiment_group(
    std::span<const ExperimentConfig> cfgs, trace::TraceSource* source) {
  REAP_EXPECTS(!cfgs.empty());
  for (const ExperimentConfig& cfg : cfgs) {
    check_config(cfg);
    REAP_EXPECTS(same_walk(cfg, cfgs.front()));
  }

  WalkRig walk(cfgs.front(), source);
  ModelPool models;
  // Observer rigs are pinned (each policy's context points into its own).
  std::vector<std::unique_ptr<ObserverRig>> rigs;
  std::vector<PolicyObservers::Handle> handles;
  PolicyObservers observers;
  rigs.reserve(cfgs.size());
  handles.reserve(cfgs.size());
  for (const ExperimentConfig& cfg : cfgs) {
    rigs.push_back(std::make_unique<ObserverRig>(cfg, models));
    handles.push_back(observers.add(
        cfg.policy, rigs.back()->context(cfg, walk.hier.l2())));
  }

  const ExperimentConfig& first = cfgs.front();
  // Warmup: populate caches, then reset all accounting.
  if (first.warmup_instructions > 0) {
    walk.cpu.run_vectorized(first.warmup_instructions, observers);
    walk.hier.reset_stats();
    walk.cpu.reset_counters();
    for (const auto& rig : rigs) rig->ledger.reset();
    observers.reset_events();
  }
  walk.cpu.run_vectorized(first.instructions, observers);

  std::vector<ExperimentResult> results;
  results.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    results.push_back(
        collect(cfgs[i], walk, *rigs[i], observers.events(handles[i])));
  return results;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  return std::move(run_experiment_group({&cfg, 1}).front());
}

ExperimentResult run_experiment_replay(const ExperimentConfig& cfg,
                                       trace::TraceSource& source) {
  return std::move(run_experiment_group({&cfg, 1}, &source).front());
}

PolicyComparison compare_policies(const ExperimentConfig& cfg,
                                  PolicyKind base, PolicyKind other) {
  ExperimentConfig base_cfg = cfg;
  base_cfg.policy = base;
  ExperimentConfig other_cfg = cfg;
  other_cfg.policy = other;

  // One walk feeds both policies (they share every walk field).
  const ExperimentConfig pair[] = {base_cfg, other_cfg};
  auto results = run_experiment_group(pair);
  PolicyComparison c;
  c.base = std::move(results[0]);
  c.other = std::move(results[1]);
  c.mttf_gain = reliability::mttf_ratio(c.other.mttf, c.base.mttf);
  const double eb = c.base.energy.dynamic_total_j();
  const double eo = c.other.energy.dynamic_total_j();
  c.energy_ratio = eb > 0.0 ? eo / eb : 1.0;
  c.energy_overhead_pct = (c.energy_ratio - 1.0) * 100.0;
  c.speedup = c.base.ipc > 0.0 ? c.other.ipc / c.base.ipc : 1.0;
  return c;
}

}  // namespace reap::core
