// Shared scaffolding for the campaign test suites: a cheap deterministic
// stand-in for run_experiment, the 24-point acceptance grid, and file and
// journal helpers. One definition so the fake result model cannot silently
// diverge between suites.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign::testutil {

// Cheap stand-in for run_experiment: a pure function of the config that
// still exercises every field the sinks/aggregates read.
inline core::ExperimentResult fake_run(const core::ExperimentConfig& cfg) {
  core::ExperimentResult r;
  r.workload = cfg.workload.name;
  r.policy = cfg.policy;
  r.instructions = cfg.instructions;
  r.cycles = cfg.seed % 100000 + cfg.ecc_t;
  r.ipc = 1.0 + double(cfg.seed % 7) / 10.0;
  r.sim_seconds = 0.001 * double(cfg.seed % 13 + 1);
  r.mttf.failure_prob_sum = 1e-9 * double(cfg.seed % 97 + 1);
  r.mttf.sim_seconds = r.sim_seconds;
  r.mttf.failure_rate_per_s = r.mttf.failure_prob_sum / r.sim_seconds;
  r.mttf.mttf_seconds = 1.0 / r.mttf.failure_rate_per_s;
  r.energy.data_read_j = 1e-6 * double(cfg.seed % 11 + 1);
  r.energy.ecc_decode_j = 1e-7 * double(cfg.ecc_t);
  r.p_rd = 1e-8;
  return r;
}

// The acceptance-criteria grid: 2 workloads x 3 policies x 2 ecc x 2
// seeds = 24 points.
inline CampaignSpec grid_24() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap,
                   core::PolicyKind::serial_tag_then_data};
  spec.ecc_ts = {1, 2};
  spec.seeds = {0, 1};
  return spec;
}

inline std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Row keys duplicated inside any one journal would merge away silently
// (the merge dedupes); assert the journals never contain them.
inline void expect_no_duplicate_rows(const std::vector<std::string>& journals) {
  for (const auto& path : journals) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::set<std::string> keys;
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find("\"key\":\"");
      if (pos == std::string::npos) continue;  // header
      const auto start = pos + 7;
      const auto end = line.find('"', start);
      ASSERT_NE(end, std::string::npos) << path << ": " << line;
      const auto key = line.substr(start, end - start);
      EXPECT_TRUE(keys.insert(key).second)
          << path << " journals row '" << key << "' twice";
    }
  }
}

}  // namespace reap::campaign::testutil
