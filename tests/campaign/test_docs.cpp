// The CLI reference cannot rot: docs/cli.md must document, per tool,
// exactly the set of --flags that tool's --help text (the shared usage
// strings in cli_usage.hpp, printed verbatim by the binaries) mentions --
// in both directions. Also pins the README links to the docs and the
// layer coverage of docs/architecture.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "reap/campaign/cli_usage.hpp"
#include "reap/campaign/exit_codes.hpp"
#include "reap/common/fault.hpp"

namespace reap::campaign {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Every distinct "--flag" token: "--" followed by a lowercase letter,
// then [a-z0-9-]* (trailing hyphens trimmed so a line-wrapped "--foo-"
// cannot occur -- flags never end in '-'). A " -- " em-dash does not
// match (no letter follows).
std::set<std::string> extract_flags(const std::string& text) {
  std::set<std::string> flags;
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text[i] != '-' || text[i + 1] != '-') continue;
    if (i > 0 && text[i - 1] == '-') continue;  // inside a longer dash run
    std::size_t end = i + 2;
    if (end >= text.size() || text[end] < 'a' || text[end] > 'z') continue;
    while (end < text.size() &&
           ((text[end] >= 'a' && text[end] <= 'z') ||
            (text[end] >= '0' && text[end] <= '9') || text[end] == '-'))
      ++end;
    while (text[end - 1] == '-') --end;
    flags.insert(text.substr(i, end - i));
    i = end - 1;
  }
  return flags;
}

// The "## `tool`" section of a markdown file: from its heading to the
// next "## " heading (or EOF).
std::string section_of(const std::string& markdown, const std::string& tool) {
  const auto heading = "## `" + tool + "`";
  const auto start = markdown.find(heading);
  EXPECT_NE(start, std::string::npos)
      << "docs/cli.md has no section " << heading;
  if (start == std::string::npos) return "";
  auto end = markdown.find("\n## ", start + heading.size());
  if (end == std::string::npos) end = markdown.size();
  return markdown.substr(start, end - start);
}

void expect_flags_match(const char* tool, const std::string& doc_section,
                        const std::string& usage) {
  const auto documented = extract_flags(doc_section);
  const auto in_help = extract_flags(usage);
  for (const auto& flag : in_help)
    EXPECT_TRUE(documented.count(flag))
        << tool << ": " << flag
        << " is in --help but missing from docs/cli.md";
  for (const auto& flag : documented)
    EXPECT_TRUE(in_help.count(flag))
        << tool << ": docs/cli.md mentions " << flag
        << " which is not in --help";
}

const std::string kSourceDir = REAP_SOURCE_DIR;

TEST(Docs, CliReferenceMatchesHelpOutputPerTool) {
  const auto cli_md = read_file(kSourceDir + "/docs/cli.md");
  expect_flags_match("reap_campaign", section_of(cli_md, "reap_campaign"),
                     kCampaignUsage);
  expect_flags_match("reap_report", section_of(cli_md, "reap_report"),
                     kReportUsage);
  expect_flags_match("reap_dispatch", section_of(cli_md, "reap_dispatch"),
                     kDispatchUsage);
  expect_flags_match("reap_trace", section_of(cli_md, "reap_trace"),
                     kTraceUsage);
}

TEST(Docs, ReadmeLinksTheDocSet) {
  const auto readme = read_file(kSourceDir + "/README.md");
  for (const char* doc :
       {"docs/architecture.md", "docs/cli.md", "docs/campaign.md",
        "docs/performance.md", "docs/robustness.md"})
    EXPECT_NE(readme.find(doc), std::string::npos)
        << "README.md does not link " << doc;
}

// docs/robustness.md is the contract page for the fault/quarantine
// layer; pin it to the compiled-in reality so neither can drift.
TEST(Docs, RobustnessContractMatchesTheCode) {
  const auto doc = read_file(kSourceDir + "/docs/robustness.md");
  // Every compiled-in fault site must be documented by name.
  for (const auto& site : common::fault::known_sites())
    EXPECT_NE(doc.find("`" + site + "`"), std::string::npos)
        << "docs/robustness.md does not document fault site " << site;
  // Every fault kind, by its spec-grammar name.
  for (const auto kind :
       {common::fault::Kind::crash, common::fault::Kind::hang,
        common::fault::Kind::eio, common::fault::Kind::enospc,
        common::fault::Kind::torn_write, common::fault::Kind::slow,
        common::fault::Kind::drop, common::fault::Kind::stall,
        common::fault::Kind::garble})
    EXPECT_NE(doc.find("`" + std::string(common::fault::to_string(kind)) +
                       "`"),
              std::string::npos)
        << "docs/robustness.md does not document fault kind "
        << common::fault::to_string(kind);
  // The arming channel, the sidecar, and the journal format tag.
  for (const char* token : {"REAP_FAULT", "quarantine.jsonl",
                            "reap-journal-v2", "--inject-fault",
                            "--stall-timeout", "--skip-rows", "--hosts",
                            "--journal-stdout", "REAPF1",
                            "fake_ssh.sh"})
    EXPECT_NE(doc.find(token), std::string::npos)
        << "docs/robustness.md does not mention " << token;
  EXPECT_NE(doc.find("CRC32C"), std::string::npos);
  // The exit-code tables must name each constant next to its number.
  const std::pair<const char*, int> codes[] = {
      {"kExitOk", kExitOk},
      {"kExitError", kExitError},
      {"kExitJournalIo", kExitJournalIo},
      {"kExitInterrupted", kExitInterrupted},
      {"kDispatchOk", kDispatchOk},
      {"kDispatchError", kDispatchError},
      {"kDispatchSpecMismatch", kDispatchSpecMismatch},
      {"kDispatchQuarantined", kDispatchQuarantined},
      {"kDispatchAbandoned", kDispatchAbandoned},
      {"kDispatchHostLost", kDispatchHostLost},
  };
  for (const auto& [name, value] : codes) {
    const auto row = "| " + std::to_string(value) + " | `" + name + "` |";
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/robustness.md exit-code table lacks the row '" << row
        << "'";
  }
  EXPECT_NE(doc.find(std::to_string(common::fault::kCrashExit)),
            std::string::npos)
      << "docs/robustness.md does not document the injected-crash exit "
         "code";
}

TEST(Docs, ArchitectureCoversEveryLayer) {
  const auto arch = read_file(kSourceDir + "/docs/architecture.md");
  for (const char* layer :
       {"src/common", "src/mtj", "src/ecc", "src/trace", "src/nvsim",
        "src/reliability", "src/sim", "src/core", "src/campaign"})
    EXPECT_NE(arch.find(layer), std::string::npos)
        << "docs/architecture.md does not mention " << layer;
  // The determinism contract section must point at the tests pinning it.
  for (const char* pin :
       {"test_runner_determinism", "test_shard_resume", "test_dispatch"})
    EXPECT_NE(arch.find(pin), std::string::npos)
        << "docs/architecture.md does not reference " << pin;
  // Invariant 2's shared-walk half, with the pins that hold it.
  for (const char* token :
       {"never depend on which points share its walk",
        "run_experiment_group", "GroupMatchesSoloForEveryPolicy",
        "test_walk_groups", "shared-walk smoke"})
    EXPECT_NE(arch.find(token), std::string::npos)
        << "docs/architecture.md does not mention " << token;
  // Invariant 7: the SIMD/scalar build split must be documented with the
  // option that selects it and the pins that hold it.
  for (const char* token :
       {"REAP_SIMD", "sim/simd.hpp", "test_simd", "scalar-fallback"})
    EXPECT_NE(arch.find(token), std::string::npos)
        << "docs/architecture.md does not mention " << token;
}

// docs/performance.md must describe the vectorized hot loop in terms
// that match the code: the kernel entry points, the build option, the
// bench series CI gates, and the gate tool syntax.
TEST(Docs, PerformanceCoversTheVectorizedHotLoop) {
  const auto perf = read_file(kSourceDir + "/docs/performance.md");
  for (const char* token :
       {"sim/simd.hpp", "find_way", "victim_min", "accumulate_valid",
        "predecode", "REAP_SIMD", "kPrefetchAhead", "E2E/simd",
        "E2E/replay", "BM_CacheFindWay", "BM_BatchAddrDecode",
        "--gate replay/simd=1.3", "E2E/group", "--gate group/replay=2.0",
        "PolicyObservers"})
    EXPECT_NE(perf.find(token), std::string::npos)
        << "docs/performance.md does not mention " << token;
}

}  // namespace
}  // namespace reap::campaign
