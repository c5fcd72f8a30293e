// The four CLIs are strict: a flag a tool does not understand is refused
// with exit 1 before any simulation starts or any output file is opened,
// never warned about after the run has silently used a default.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign_test_util.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using testutil::file_bytes;
using testutil::temp_path;

constexpr char kTinySpec[] = REAP_SOURCE_DIR "/specs/tiny.spec";

// Runs argv to completion with stdout+stderr in `log`.
common::ExitStatus run(const std::vector<std::string>& argv,
                       const std::string& log) {
  std::filesystem::remove(log);
  auto child = common::Child::spawn(argv, log);
  EXPECT_TRUE(child) << argv.front();
  return child ? child->wait() : common::ExitStatus{};
}

TEST(Cli, CampaignRefusesUnknownFlagBeforeWritingAnything) {
  // --seed is a typo of --seeds/--campaign_seed: refused, not run with
  // seed 0.
  const auto csv = temp_path("cli_refuse.csv");
  const auto journal = temp_path("cli_refuse.journal");
  const auto log = temp_path("cli_refuse.log");
  std::filesystem::remove(csv);
  std::filesystem::remove(journal);
  const auto status =
      run({REAP_CAMPAIGN_BIN, std::string("--spec=") + kTinySpec, "--seed=1",
           "--csv=" + csv, "--journal=" + journal},
          log);
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 1);
  EXPECT_FALSE(std::filesystem::exists(csv));
  EXPECT_FALSE(std::filesystem::exists(journal));
  const auto out = file_bytes(log);
  EXPECT_NE(out.find("unknown flag --seed"), std::string::npos) << out;
  EXPECT_EQ(out.find("campaign '"), std::string::npos)
      << "the run started: " << out;
}

TEST(Cli, EveryToolRefusesAnUnknownFlag) {
  const auto dir = temp_path("cli_refuse_dir");
  std::filesystem::remove_all(dir);
  const auto out = dir + "/out";
  const std::vector<std::vector<std::string>> cases = {
      {REAP_CAMPAIGN_BIN, "--list-policies", "--seed=1"},
      {REAP_DISPATCH_BIN, std::string("--spec=") + kTinySpec, "--seed=1",
       "--work-dir=" + dir, "--csv=" + out},
      {REAP_REPORT_BIN, kTinySpec, "--seed=1", "--merged-csv=" + out},
      {REAP_TRACE_BIN, "--materialize", std::string("--spec=") + kTinySpec,
       "--seed=1", "--out-dir=" + dir},
  };
  for (const auto& argv : cases) {
    const auto log = temp_path("cli_refuse_tool.log");
    const auto status = run(argv, log);
    EXPECT_TRUE(status.exited) << argv.front();
    EXPECT_EQ(status.code, 1) << argv.front();
    EXPECT_NE(file_bytes(log).find("unknown flag --seed"), std::string::npos)
        << argv.front() << ": " << file_bytes(log);
    EXPECT_FALSE(std::filesystem::exists(dir)) << argv.front();
  }
}

}  // namespace
}  // namespace reap::campaign
