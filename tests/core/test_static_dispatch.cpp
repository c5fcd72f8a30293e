// Golden test for the simulation engine: run_experiment (batched trace
// pulls, policy inlined into the cache access path, vectorized drive loop)
// must reproduce a table of recorded results bit for bit, for every
// PolicyKind, and run_experiment_replay must be byte-identical to it. Any
// divergence means a change moved an observable result, not just its
// speed. The suite runs unchanged under REAP_SIMD=OFF (the CI
// scalar-fallback leg), so the table is pinned on both builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "reap/core/experiment.hpp"
#include "reap/trace/replay.hpp"
#include "reap/trace/spec2006.hpp"
#include "reap/trace/workload.hpp"

namespace reap::core {
namespace {

ExperimentConfig small_cfg(const std::string& workload, PolicyKind policy) {
  ExperimentConfig cfg;
  const auto p = trace::spec2006_profile(workload);
  EXPECT_TRUE(p.has_value());
  cfg.workload = *p;
  cfg.policy = policy;
  cfg.instructions = 120'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

// Exact comparison on every stat the result carries. EXPECT_EQ on doubles
// is deliberate: both runs must do the same arithmetic in the same order,
// so even the last ulp has to match.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);

  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);

  const auto eq_cache = [](const sim::CacheStats& x, const sim::CacheStats& y,
                           const char* which) {
    EXPECT_EQ(x.read_lookups, y.read_lookups) << which;
    EXPECT_EQ(x.read_hits, y.read_hits) << which;
    EXPECT_EQ(x.write_lookups, y.write_lookups) << which;
    EXPECT_EQ(x.write_hits, y.write_hits) << which;
    EXPECT_EQ(x.fills, y.fills) << which;
    EXPECT_EQ(x.evictions, y.evictions) << which;
    EXPECT_EQ(x.dirty_evictions, y.dirty_evictions) << which;
  };
  eq_cache(a.hier.l1i, b.hier.l1i, "l1i");
  eq_cache(a.hier.l1d, b.hier.l1d, "l1d");
  eq_cache(a.hier.l2, b.hier.l2, "l2");
  EXPECT_EQ(a.hier.mem_reads, b.hier.mem_reads);
  EXPECT_EQ(a.hier.mem_writes, b.hier.mem_writes);

  EXPECT_EQ(a.mttf.failure_prob_sum, b.mttf.failure_prob_sum);
  EXPECT_EQ(a.mttf.failure_rate_per_s, b.mttf.failure_rate_per_s);
  EXPECT_EQ(a.mttf.mttf_seconds, b.mttf.mttf_seconds);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.max_concealed, b.max_concealed);

  // Fig. 3 histogram: same bins, same counts, same weights.
  EXPECT_EQ(a.concealed.total_count(), b.concealed.total_count());
  EXPECT_EQ(a.concealed.total_weight(), b.concealed.total_weight());
  EXPECT_EQ(a.concealed.max_sample(), b.concealed.max_sample());
  const auto bins_a = a.concealed.nonempty_bins();
  const auto bins_b = b.concealed.nonempty_bins();
  ASSERT_EQ(bins_a.size(), bins_b.size());
  for (std::size_t i = 0; i < bins_a.size(); ++i) {
    EXPECT_EQ(bins_a[i].lo, bins_b[i].lo);
    EXPECT_EQ(bins_a[i].count, bins_b[i].count);
    EXPECT_EQ(bins_a[i].weight, bins_b[i].weight);
  }

  EXPECT_EQ(a.events.lookups, b.events.lookups);
  EXPECT_EQ(a.events.way_data_reads, b.events.way_data_reads);
  EXPECT_EQ(a.events.way_data_writes, b.events.way_data_writes);
  EXPECT_EQ(a.events.tag_reads, b.events.tag_reads);
  EXPECT_EQ(a.events.tag_writes, b.events.tag_writes);
  EXPECT_EQ(a.events.ecc_decodes, b.events.ecc_decodes);
  EXPECT_EQ(a.events.ecc_encodes, b.events.ecc_encodes);

  EXPECT_EQ(a.energy.dynamic_total_j(), b.energy.dynamic_total_j());
  EXPECT_EQ(a.p_rd, b.p_rd);
}

// ------------------------------------------------------------ golden table
//
// Recorded ExperimentResults for ten configs (small_cfg plus the listed
// overrides). They were captured from three engines that agreed to the
// last bit: run_experiment, a plain batched loop with scalar kernels, and
// a per-op loop dispatching the policy through a virtual interface. The
// last two were then deleted; this table keeps their pin. Doubles are
// hex-float literals, so the pin is bit-exact. Captured with g++ 12.2
// (x86-64, RelWithDebInfo, REAP_SIMD=ON with AVX2); it must hold
// unchanged on the REAP_SIMD=OFF build: no kernel choice may move a
// result.
struct GoldenBin {
  std::uint64_t lo;
  std::uint64_t count;
  double weight;
};

struct Golden {
  // The config: small_cfg(workload, policy) with these overrides.
  const char* workload;
  PolicyKind policy;
  std::uint64_t warmup_instructions;
  std::uint64_t scrub_every;
  bool check_on_dirty_eviction;

  std::uint64_t instructions;
  std::uint64_t cycles;
  double ipc;
  double sim_seconds;
  std::uint32_t l2_hit_cycles;
  // {read_lookups, read_hits, write_lookups, write_hits, fills, evictions,
  //  dirty_evictions}
  sim::CacheStats l1i, l1d, l2;
  std::uint64_t mem_reads;
  std::uint64_t mem_writes;
  double failure_prob_sum;
  double failure_rate_per_s;
  double mttf_seconds;
  std::uint64_t checks;
  std::uint64_t max_concealed;
  // Fig. 3 histogram: totals, then {lo, count, weight} per nonempty bin.
  std::uint64_t hist_count;
  double hist_weight;
  std::uint64_t hist_max;
  std::vector<GoldenBin> bins;
  // {lookups, way_data_reads, way_data_writes, tag_reads, tag_writes,
  //  ecc_decodes, ecc_encodes}
  EnergyEvents events;
  double energy_j;
  double p_rd;
};

const std::vector<Golden>& golden_table() {
  static const std::vector<Golden> table = {
    {.workload = "perlbench",
     .policy = PolicyKind::conventional_parallel,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 3718509,
     .ipc = 0x1.085d30a1e80c9p-5,
     .sim_seconds = 0x1.e7647516fabacp-10,
     .l2_hit_cycles = 9,
     .l1i = {10800, 666, 0, 0, 10134, 10134, 0},
     .l1d = {33479, 8281, 25068, 14366, 35900, 35900, 11361},
     .l2 = {46034, 23451, 11361, 11359, 22585, 11536, 2720},
     .mem_reads = 22585,
     .mem_writes = 2720,
     .failure_prob_sum = 0x1.92093fe806cbep-16,
     .failure_rate_per_s = 0x1.a65590263b49ap-7,
     .mttf_seconds = 0x1.3659f247590e3p+6,
     .checks = 23451,
     .max_concealed = 1865,
     .hist_count = 23451,
     .hist_weight = 0x1.92093fe806cbep-16,
     .hist_max = 1865,
     .bins = {
              {0, 5892, 0x1.1cb7d484fb283p-27}, {1, 2932, 0x1.3fad00dcda3cfp-26},
              {2, 1991, 0x1.fc568428b9e22p-26}, {3, 1484, 0x1.4d704fa0d5125p-25},
              {4, 7730, 0x1.d4ceefb0b7201p-23}, {5, 1105, 0x1.09f17fde22c12p-24},
              {6, 711, 0x1.e15933cc07123p-25}, {7, 551, 0x1.f908f43c8fba7p-25},
              {8, 775, 0x1.000936d880b0cp-23}, {11, 151, 0x1.58500cc2d718p-25},
              {14, 71, 0x1.ee1badb354886p-26}, {18, 27, 0x1.2a5c01c87350dp-26},
              {24, 2, 0x1.9912e599ec3e4p-29}, {32, 1, 0x1.2b11c9594ceb9p-28},
              {43, 2, 0x1.bd1b97e3c4481p-28}, {134, 3, 0x1.19cba3bddd21dp-23},
              {238, 6, 0x1.ab968fe84524dp-21}, {317, 5, 0x1.61b2b2070c624p-20},
              {422, 3, 0x1.8eca4d30eb14ap-20}, {563, 2, 0x1.8a12aef7d8fcfp-20},
              {750, 4, 0x1.af85c43f76e6cp-18}, {1001, 1, 0x1.2f0811c943e42p-19},
              {1334, 1, 0x1.02ba55c3e34eap-18}, {1779, 1, 0x1.71dcf100d37cp-18}},
     .events = {57395, 368272, 33944, 57395, 33944, 23451, 33944},
     .energy_j = 0x1.3f882ffc3872ap-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "perlbench",
     .policy = PolicyKind::reap,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 3718509,
     .ipc = 0x1.085d30a1e80c9p-5,
     .sim_seconds = 0x1.e7647516fabacp-10,
     .l2_hit_cycles = 9,
     .l1i = {10800, 666, 0, 0, 10134, 10134, 0},
     .l1d = {33479, 8281, 25068, 14366, 35900, 35900, 11361},
     .l2 = {46034, 23451, 11361, 11359, 22585, 11536, 2720},
     .mem_reads = 22585,
     .mem_writes = 2720,
     .failure_prob_sum = 0x1.44f1c9340a591p-23,
     .failure_rate_per_s = 0x1.5559b0c09b697p-14,
     .mttf_seconds = 0x1.7ffb19375594cp+13,
     .checks = 23451,
     .max_concealed = 1865,
     .hist_count = 23451,
     .hist_weight = 0x1.44f1c9340a591p-23,
     .hist_max = 1865,
     .bins = {
              {0, 5892, 0x1.1cb7d484fb283p-27}, {1, 2932, 0x1.3ed04ca83013bp-27},
              {2, 1991, 0x1.51b30e7f2608cp-27}, {3, 1484, 0x1.4c1d03af01277p-27},
              {4, 7730, 0x1.751e025bcd47dp-25}, {5, 1105, 0x1.60fb66a13b03fp-27},
              {6, 711, 0x1.11ccf6ff2abdep-27}, {7, 551, 0x1.f6b824fb39b39p-28},
              {8, 775, 0x1.a38c8519a513cp-27}, {11, 151, 0x1.ac5128d973824p-29},
              {14, 71, 0x1.f0d292956998ep-30}, {18, 27, 0x1.d188187643bffp-31},
              {24, 2, 0x1.fd5434cac6c0cp-34}, {32, 1, 0x1.01abe595fb296p-33},
              {43, 2, 0x1.30bfbca30a8d2p-33}, {134, 3, 0x1.d7718ae8b231p-31},
              {238, 6, 0x1.91e51e6884bc2p-29}, {317, 5, 0x1.e939df30c58d5p-29},
              {422, 3, 0x1.7c97860591cbp-29}, {563, 2, 0x1.258cdfe3afca4p-29},
              {750, 4, 0x1.d23d8e7d37cb2p-28}, {1001, 1, 0x1.25ec51d34f24dp-29},
              {1334, 1, 0x1.802ae68f653d1p-29}, {1779, 1, 0x1.948d95545ac35p-29}},
     .events = {57395, 368272, 33944, 57395, 33944, 368272, 33944},
     .energy_j = 0x1.48c768e35bd66p-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "perlbench",
     .policy = PolicyKind::serial_tag_then_data,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 3765411,
     .ipc = 0x1.051233c0f0d33p-5,
     .sim_seconds = 0x1.ed8a3a33b6189p-10,
     .l2_hit_cycles = 11,
     .l1i = {10800, 666, 0, 0, 10134, 10134, 0},
     .l1d = {33479, 8281, 25068, 14366, 35900, 35900, 11361},
     .l2 = {46034, 23451, 11361, 11359, 22585, 11536, 2720},
     .mem_reads = 22585,
     .mem_writes = 2720,
     .failure_prob_sum = 0x1.19b1c0c2766ffp-25,
     .failure_rate_per_s = 0x1.243b0c977c7c1p-16,
     .mttf_seconds = 0x1.c085bc986be02p+15,
     .checks = 23451,
     .max_concealed = 0,
     .hist_count = 23451,
     .hist_weight = 0x1.19b1c0c2766ffp-25,
     .hist_max = 0,
     .bins = {
              {0, 23451, 0x1.19b1c0c2766ffp-25}},
     .events = {57395, 23451, 33944, 57395, 33944, 23451, 33944},
     .energy_j = 0x1.165e4f3a08652p-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "perlbench",
     .policy = PolicyKind::disruptive_restore,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 3765411,
     .ipc = 0x1.051233c0f0d33p-5,
     .sim_seconds = 0x1.ed8a3a33b6189p-10,
     .l2_hit_cycles = 11,
     .l1i = {10800, 666, 0, 0, 10134, 10134, 0},
     .l1d = {33479, 8281, 25068, 14366, 35900, 35900, 11361},
     .l2 = {46034, 23451, 11361, 11359, 22585, 11536, 2720},
     .mem_reads = 22585,
     .mem_writes = 2720,
     .failure_prob_sum = 0x1.234a462f29b86p-24,
     .failure_rate_per_s = 0x1.2e2f73d78af53p-15,
     .mttf_seconds = 0x1.b1bf3cb530ab6p+14,
     .checks = 319795,
     .max_concealed = 0,
     .hist_count = 23451,
     .hist_weight = 0x1.2fc23b698f2bcp-25,
     .hist_max = 0,
     .bins = {
              {0, 23451, 0x1.2fc23b698f2bcp-25}},
     .events = {57395, 368272, 353739, 57395, 33944, 23451, 33944},
     .energy_j = 0x1.8b8fe2f55aee8p-14,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "perlbench",
     .policy = PolicyKind::scrub_piggyback,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 3718509,
     .ipc = 0x1.085d30a1e80c9p-5,
     .sim_seconds = 0x1.e7647516fabacp-10,
     .l2_hit_cycles = 9,
     .l1i = {10800, 666, 0, 0, 10134, 10134, 0},
     .l1d = {33479, 8281, 25068, 14366, 35900, 35900, 11361},
     .l2 = {46034, 23451, 11361, 11359, 22585, 11536, 2720},
     .mem_reads = 22585,
     .mem_writes = 2720,
     .failure_prob_sum = 0x1.6fea96c0de918p-18,
     .failure_rate_per_s = 0x1.827de7954fb33p-9,
     .mttf_seconds = 0x1.5321f6782e23ap+8,
     .checks = 28106,
     .max_concealed = 300,
     .hist_count = 28106,
     .hist_weight = 0x1.6fea96c0de918p-18,
     .hist_max = 300,
     .bins = {
              {0, 6965, 0x1.534d698e11e7p-27}, {1, 3763, 0x1.93eee468250f6p-26},
              {2, 2715, 0x1.4e5f7c5d9aa9ep-25}, {3, 2116, 0x1.c270058317997p-25},
              {4, 7623, 0x1.da3491801c5fep-23}, {5, 1298, 0x1.37b8dcb710ffcp-24},
              {6, 945, 0x1.45be34ec92151p-24}, {7, 725, 0x1.4095d7a80552fp-24},
              {8, 1043, 0x1.5bddfc2dcbcfdp-23}, {11, 286, 0x1.3dd179f648f87p-24},
              {14, 177, 0x1.3c22e852641c3p-24}, {18, 76, 0x1.0b16a573fba83p-24},
              {24, 70, 0x1.b8e112d5ffc5ep-24}, {32, 64, 0x1.4f1a784d23b53p-23},
              {43, 66, 0x1.2448e10d3e831p-22}, {57, 49, 0x1.80a01ed83380fp-22},
              {75, 58, 0x1.b4dbef74d509cp-21}, {101, 37, 0x1.c8bda873a5b3ep-21},
              {134, 18, 0x1.7a6db77be72f2p-21}, {178, 8, 0x1.5ec9f4a8f0b0cp-21},
              {238, 4, 0x1.524aeb24d6837p-21}},
     .events = {57395, 368272, 33944, 57395, 33944, 28829, 33944},
     .energy_j = 0x1.3fad1b9a1070ap-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "h264ref",
     .policy = PolicyKind::conventional_parallel,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 619917,
     .ipc = 0x1.8c70aee3bb8a3p-3,
     .sim_seconds = 0x1.4503d9ee0c516p-12,
     .l2_hit_cycles = 9,
     .l1i = {9731, 2447, 0, 0, 7284, 7284, 0},
     .l1d = {42149, 19977, 18292, 11973, 28491, 28489, 7172},
     .l2 = {35775, 34513, 7172, 7172, 1262, 2, 0},
     .mem_reads = 1262,
     .mem_writes = 0,
     .failure_prob_sum = 0x1.10063ea145f9bp-11,
     .failure_rate_per_s = 0x1.ac85f0f32be31p+0,
     .mttf_seconds = 0x1.31de7c20886ffp-1,
     .checks = 34513,
     .max_concealed = 13709,
     .hist_count = 34513,
     .hist_weight = 0x1.10063ea145f9bp-11,
     .hist_max = 13709,
     .bins = {
              {0, 13419, 0x1.134e564e4de1cp-25}, {1, 1963, 0x1.3084e5689a40bp-26},
              {2, 614, 0x1.ad465c599d167p-27}, {3, 255, 0x1.495d64787b4eap-27},
              {4, 17993, 0x1.444e1171e44c3p-20}, {5, 98, 0x1.0b83a95c2cedbp-27},
              {6, 51, 0x1.76540b5c7d88ap-28}, {7, 24, 0x1.f986b7bbb1a8p-29},
              {8, 56, 0x1.89cf53070edfbp-27}, {11, 18, 0x1.0132cdb0b63p-27},
              {14, 13, 0x1.1af18b001497fp-27}, {18, 3, 0x1.117ef94848c65p-28},
              {24, 4, 0x1.4cf9c6ceef9b7p-28}, {4217, 1, 0x1.3af4542051ba7p-14},
              {13336, 1, 0x1.cfe99bdc6a36fp-12}},
     .events = {42947, 286200, 8434, 42947, 8434, 34513, 8434},
     .energy_j = 0x1.5ae23f7a93499p-17,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "h264ref",
     .policy = PolicyKind::reap,
     .warmup_instructions = 20000,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 619917,
     .ipc = 0x1.8c70aee3bb8a3p-3,
     .sim_seconds = 0x1.4503d9ee0c516p-12,
     .l2_hit_cycles = 9,
     .l1i = {9731, 2447, 0, 0, 7284, 7284, 0},
     .l1d = {42149, 19977, 18292, 11973, 28491, 28489, 7172},
     .l2 = {35775, 34513, 7172, 7172, 1262, 2, 0},
     .mem_reads = 1262,
     .mem_writes = 0,
     .failure_prob_sum = 0x1.6c9ee149068f8p-22,
     .failure_rate_per_s = 0x1.1f3210b56efddp-10,
     .mttf_seconds = 0x1.c862c89fd5a82p+9,
     .checks = 34513,
     .max_concealed = 13709,
     .hist_count = 34513,
     .hist_weight = 0x1.6c9ee149068f8p-22,
     .hist_max = 13709,
     .bins = {
              {0, 13419, 0x1.134e564e4de1cp-25}, {1, 1963, 0x1.2fd2b0f13efeap-27},
              {2, 614, 0x1.1d50a6dba3d44p-28}, {3, 255, 0x1.4843e2489e745p-29},
              {4, 17993, 0x1.028ffd690705dp-22}, {5, 98, 0x1.6354528b08c0cp-30},
              {6, 51, 0x1.aa1625fca161dp-31}, {7, 24, 0x1.f7943778a5a3ap-32},
              {8, 56, 0x1.3f93108dce092p-30}, {11, 18, 0x1.3f2424eb478dap-31},
              {14, 13, 0x1.130136d31c317p-31}, {18, 3, 0x1.bb1e42dde0082p-33},
              {24, 4, 0x1.86cfe4fe34d9ep-33}, {4217, 1, 0x1.cd2b73970487ap-27},
              {13336, 1, 0x1.1981acd91e742p-25}},
     .events = {42947, 286200, 8434, 42947, 8434, 286200, 8434},
     .energy_j = 0x1.6861f2d6f6569p-17,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "gcc",
     .policy = PolicyKind::scrub_piggyback,
     .warmup_instructions = 20000,
     .scrub_every = 16,
     .check_on_dirty_eviction = true,
     .instructions = 120000,
     .cycles = 5847915,
     .ipc = 0x1.5033ae375d433p-6,
     .sim_seconds = 0x1.7f3fbbacbee56p-9,
     .l2_hit_cycles = 9,
     .l1i = {11987, 354, 0, 0, 11633, 11633, 0},
     .l1d = {29852, 5051, 28850, 15738, 37913, 37913, 13651},
     .l2 = {49546, 12085, 13651, 13649, 37463, 28710, 7902},
     .mem_reads = 37463,
     .mem_writes = 7902,
     .failure_prob_sum = 0x1.cc1f83ae730ebp-20,
     .failure_rate_per_s = 0x1.335990971752ap-11,
     .mttf_seconds = 0x1.aa75687f86e77p+10,
     .checks = 42108,
     .max_concealed = 24,
     .hist_count = 34206,
     .hist_weight = 0x1.07a4b2dbc8b2bp-20,
     .hist_max = 24,
     .bins = {
              {0, 7518, 0x1.53c4522ac7625p-27}, {1, 6128, 0x1.136084fdde2bcp-25},
              {2, 4868, 0x1.f4752d0869e32p-25}, {3, 3894, 0x1.56c55e9743a84p-24},
              {4, 3271, 0x1.d0bdb44fb5602p-24}, {5, 2757, 0x1.1b4c40ca68731p-23},
              {6, 2217, 0x1.397bbe577aa7ep-23}, {7, 1725, 0x1.3661b7350358dp-23},
              {8, 1448, 0x1.6ad7c015fc8cdp-23}, {11, 260, 0x1.ceb34bcad05e8p-25},
              {14, 99, 0x1.327366f84b8fbp-25}, {18, 19, 0x1.9a209e3f9d2edp-27},
              {24, 2, 0x1.229762731209bp-30}},
     .events = {63197, 404270, 51112, 63197, 51112, 43987, 51112},
     .energy_j = 0x1.96bab786d6981p-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "mcf",
     .policy = PolicyKind::reap,
     .warmup_instructions = 0,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 8247153,
     .ipc = 0x1.dcca3cd031c74p-7,
     .sim_seconds = 0x1.0e3e2235c61bcp-8,
     .l2_hit_cycles = 9,
     .l1i = {9713, 4648, 0, 0, 5065, 4553, 0},
     .l1d = {42017, 19, 21704, 10857, 52845, 52333, 10750},
     .l2 = {57910, 3967, 10750, 10750, 53943, 37559, 7514},
     .mem_reads = 53943,
     .mem_writes = 7514,
     .failure_prob_sum = 0x1.601476963a6f7p-26,
     .failure_rate_per_s = 0x1.4d862d0ea31b4p-18,
     .mttf_seconds = 0x1.88fdb6388b3b1p+17,
     .checks = 3967,
     .max_concealed = 10,
     .hist_count = 3967,
     .hist_weight = 0x1.601476963a6f7p-26,
     .hist_max = 10,
     .bins = {
              {0, 255, 0x1.339b1a433a46fp-32}, {1, 549, 0x1.5ab70e39c66efp-30},
              {2, 589, 0x1.1cfb3fcc9210ap-29}, {3, 646, 0x1.a037a581d528fp-29},
              {4, 631, 0x1.f845bc8f7ca69p-29}, {5, 486, 0x1.d99323230064p-29},
              {6, 451, 0x1.cf09b874bf7d9p-29}, {7, 324, 0x1.9e10a4607728ap-29},
              {8, 36, 0x1.857543b36fc4p-32}},
     .events = {68660, 463280, 64693, 68660, 64693, 463280, 64693},
     .energy_j = 0x1.ec4b23eeacd1bp-16,
     .p_rd = 0x1.57d4d43be114cp-27},
    {.workload = "mcf",
     .policy = PolicyKind::disruptive_restore,
     .warmup_instructions = 0,
     .scrub_every = 64,
     .check_on_dirty_eviction = false,
     .instructions = 120000,
     .cycles = 8255087,
     .ipc = 0x1.dc54ed45fba38p-7,
     .sim_seconds = 0x1.0e80b05866b83p-8,
     .l2_hit_cycles = 11,
     .l1i = {9713, 4648, 0, 0, 5065, 4553, 0},
     .l1d = {42017, 19, 21704, 10857, 52845, 52333, 10750},
     .l2 = {57910, 3967, 10750, 10750, 53943, 37559, 7514},
     .mem_reads = 53943,
     .mem_writes = 7514,
     .failure_prob_sum = 0x1.93c3204009f55p-25,
     .failure_rate_per_s = 0x1.7e1d6e48bc0c1p-17,
     .mttf_seconds = 0x1.5704665a82635p+16,
     .checks = 387477,
     .max_concealed = 0,
     .hist_count = 3967,
     .hist_weight = 0x1.576defe83075dp-28,
     .hist_max = 0,
     .bins = {
              {0, 3967, 0x1.576defe83075dp-28}},
     .events = {68660, 463280, 452170, 68660, 64693, 3967, 64693},
     .energy_j = 0x1.f67be8c966a4cp-14,
     .p_rd = 0x1.57d4d43be114cp-27},
  };
  return table;
}

const Golden& golden(const std::string& workload, PolicyKind policy) {
  for (const Golden& g : golden_table()) {
    if (g.workload == workload && g.policy == policy) return g;
  }
  ADD_FAILURE() << "no golden entry for " << workload << " x "
                << to_string(policy);
  return golden_table().front();
}

ExperimentConfig config_of(const Golden& g) {
  auto cfg = small_cfg(g.workload, g.policy);
  cfg.warmup_instructions = g.warmup_instructions;
  cfg.scrub_every = g.scrub_every;
  cfg.check_on_dirty_eviction = g.check_on_dirty_eviction;
  return cfg;
}

// The same fields expect_identical compares, against the recorded values.
void expect_golden(const ExperimentResult& r, const Golden& g) {
  SCOPED_TRACE(std::string(g.workload) + " x " + to_string(g.policy));
  EXPECT_EQ(r.workload, g.workload);
  EXPECT_EQ(r.policy, g.policy);

  EXPECT_EQ(r.instructions, g.instructions);
  EXPECT_EQ(r.cycles, g.cycles);
  EXPECT_EQ(r.ipc, g.ipc);
  EXPECT_EQ(r.sim_seconds, g.sim_seconds);
  EXPECT_EQ(r.l2_hit_cycles, g.l2_hit_cycles);

  const auto eq_cache = [](const sim::CacheStats& x, const sim::CacheStats& y,
                           const char* which) {
    EXPECT_EQ(x.read_lookups, y.read_lookups) << which;
    EXPECT_EQ(x.read_hits, y.read_hits) << which;
    EXPECT_EQ(x.write_lookups, y.write_lookups) << which;
    EXPECT_EQ(x.write_hits, y.write_hits) << which;
    EXPECT_EQ(x.fills, y.fills) << which;
    EXPECT_EQ(x.evictions, y.evictions) << which;
    EXPECT_EQ(x.dirty_evictions, y.dirty_evictions) << which;
  };
  eq_cache(r.hier.l1i, g.l1i, "l1i");
  eq_cache(r.hier.l1d, g.l1d, "l1d");
  eq_cache(r.hier.l2, g.l2, "l2");
  EXPECT_EQ(r.hier.mem_reads, g.mem_reads);
  EXPECT_EQ(r.hier.mem_writes, g.mem_writes);

  EXPECT_EQ(r.mttf.failure_prob_sum, g.failure_prob_sum);
  EXPECT_EQ(r.mttf.failure_rate_per_s, g.failure_rate_per_s);
  EXPECT_EQ(r.mttf.mttf_seconds, g.mttf_seconds);
  EXPECT_EQ(r.checks, g.checks);
  EXPECT_EQ(r.max_concealed, g.max_concealed);

  EXPECT_EQ(r.concealed.total_count(), g.hist_count);
  EXPECT_EQ(r.concealed.total_weight(), g.hist_weight);
  EXPECT_EQ(r.concealed.max_sample(), g.hist_max);
  const auto bins = r.concealed.nonempty_bins();
  ASSERT_EQ(bins.size(), g.bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_EQ(bins[i].lo, g.bins[i].lo);
    EXPECT_EQ(bins[i].count, g.bins[i].count);
    EXPECT_EQ(bins[i].weight, g.bins[i].weight);
  }

  EXPECT_EQ(r.events.lookups, g.events.lookups);
  EXPECT_EQ(r.events.way_data_reads, g.events.way_data_reads);
  EXPECT_EQ(r.events.way_data_writes, g.events.way_data_writes);
  EXPECT_EQ(r.events.tag_reads, g.events.tag_reads);
  EXPECT_EQ(r.events.tag_writes, g.events.tag_writes);
  EXPECT_EQ(r.events.ecc_decodes, g.events.ecc_decodes);
  EXPECT_EQ(r.events.ecc_encodes, g.events.ecc_encodes);

  EXPECT_EQ(r.energy.dynamic_total_j(), g.energy_j);
  EXPECT_EQ(r.p_rd, g.p_rd);
}

void expect_matches_golden(const std::string& workload, PolicyKind policy) {
  const Golden& g = golden(workload, policy);
  expect_golden(run_experiment(config_of(g)), g);
}

// The table rows were recorded from the per-op virtual-dispatch loop;
// these four tests keep its configs and pin run_experiment to them.
TEST(StaticDispatch, IdenticalToVirtualPathForEveryPolicy) {
  for (const PolicyKind kind : all_policies())
    expect_matches_golden("perlbench", kind);
}

TEST(StaticDispatch, IdenticalOnHotSetWorkload) {
  // h264ref drives the deep concealed-read tails (large-N ledger entries)
  // and maximizes accumulate_valid traffic on its hot sets.
  expect_matches_golden("h264ref", PolicyKind::conventional_parallel);
  expect_matches_golden("h264ref", PolicyKind::reap);
}

TEST(StaticDispatch, IdenticalWithExtensionsEnabled) {
  // gcc x scrub with scrub_every = 16 and check_on_dirty_eviction.
  expect_matches_golden("gcc", PolicyKind::scrub_piggyback);
}

TEST(StaticDispatch, IdenticalWithoutWarmup) {
  // No warmup: the drive loop's batch-boundary handling runs from a cold
  // start.
  expect_matches_golden("mcf", PolicyKind::reap);
  expect_matches_golden("mcf", PolicyKind::disruptive_restore);
}

// The same rows were also reproduced by the plain batched loop, which
// stepped op by op with no batch pre-decode. Its pin is that pre-decode
// changes no result however the trace is chunked, so the tests below feed
// the vectorized loop short, uneven batches (a short batch does not end
// the trace) and hold it to the table.
class ShortBatchSource final : public trace::TraceSource {
 public:
  explicit ShortBatchSource(const trace::WorkloadProfile& profile)
      : inner_(profile) {}

  bool next(trace::MemOp& op) override { return inner_.next(op); }

  std::size_t next_batch(std::span<trace::MemOp> out) override {
    static constexpr std::size_t kSizes[] = {1, 7, 61, 509};
    const std::size_t cap = kSizes[calls_++ % std::size(kSizes)];
    return inner_.next_batch(out.first(std::min(cap, out.size())));
  }

  void reset() override {
    inner_.reset();
    calls_ = 0;
  }

 private:
  trace::WorkloadTraceSource inner_;
  std::size_t calls_ = 0;
};

void expect_short_batches_match_golden(const std::string& workload,
                                       PolicyKind policy) {
  const Golden& g = golden(workload, policy);
  const auto cfg = config_of(g);
  ShortBatchSource source(cfg.workload);
  expect_golden(run_experiment_replay(cfg, source), g);
}

TEST(StaticDispatch, VectorizedIdenticalToBasicForEveryPolicy) {
  for (const PolicyKind kind : all_policies())
    expect_short_batches_match_golden("perlbench", kind);
}

TEST(StaticDispatch, VectorizedIdenticalToBasicOnHotSetWorkload) {
  expect_short_batches_match_golden("h264ref",
                                    PolicyKind::conventional_parallel);
  expect_short_batches_match_golden("h264ref", PolicyKind::reap);
}

TEST(StaticDispatch, VectorizedIdenticalToBasicWithoutWarmup) {
  expect_short_batches_match_golden("mcf", PolicyKind::disruptive_restore);
}

// Replay equivalence: feeding the engine from a materialized arena
// (run_experiment_replay) must be byte-identical to generating the trace
// inline — for every policy, since the campaign trace cache replays one
// arena across the whole policy axis.
TEST(StaticDispatch, ReplayIdenticalToGenerationForEveryPolicy) {
  for (const PolicyKind kind : all_policies()) {
    SCOPED_TRACE(to_string(kind));
    const auto cfg = small_cfg("perlbench", kind);
    trace::WorkloadTraceSource gen(cfg.workload);
    const auto trace = trace::MaterializedTrace::materialize(
        gen, cfg.warmup_instructions + cfg.instructions);
    trace::ReplayTraceSource source(trace);
    expect_identical(run_experiment_replay(cfg, source),
                     run_experiment(cfg));
  }
}

TEST(StaticDispatch, ReplayIdenticalWithoutWarmup) {
  auto cfg = small_cfg("h264ref", PolicyKind::reap);
  cfg.warmup_instructions = 0;
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace =
      trace::MaterializedTrace::materialize(gen, cfg.instructions);
  trace::ReplayTraceSource source(trace);
  expect_identical(run_experiment_replay(cfg, source), run_experiment(cfg));
}

TEST(StaticDispatch, OneArenaServesManySequentialReplays) {
  // The sharing pattern the campaign cache relies on: one arena, several
  // consumers, each with its own cursor, every run byte-identical.
  const auto cfg = small_cfg("gcc", PolicyKind::conventional_parallel);
  trace::WorkloadTraceSource gen(cfg.workload);
  const auto trace = trace::MaterializedTrace::materialize(
      gen, cfg.warmup_instructions + cfg.instructions);
  const auto reference = run_experiment(cfg);
  for (int i = 0; i < 3; ++i) {
    trace::ReplayTraceSource source(trace);
    expect_identical(run_experiment_replay(cfg, source), reference);
  }
}

}  // namespace
}  // namespace reap::core
