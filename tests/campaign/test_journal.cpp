// Execution journal: round trip, torn-tail tolerance, per-row CRC
// classification (torn vs corrupt), v1 compatibility, append/rewrite,
// compatibility checks, reopen-for-resume, row parsing, row merging, and
// the progress line.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "reap/campaign/journal.hpp"
#include "reap/campaign/progress.hpp"
#include "reap/campaign/spec.hpp"
#include "reap/common/fault.hpp"

namespace reap::campaign {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.workloads = {"mcf", "h264ref"};
  spec.policies = {core::PolicyKind::conventional_parallel,
                   core::PolicyKind::reap};
  spec.seeds = {0, 1};
  return spec;
}

// A rendered row does not need a real experiment: any cell vector aligned
// with result_header() journals fine. Cell 0 must be the grid index.
std::vector<std::string> fake_cells(std::size_t index) {
  std::vector<std::string> cells(result_header().size(), "0");
  cells[0] = std::to_string(index);
  cells[1] = "mcf";                        // workload
  cells.back() = "workload=mcf seed=" + std::to_string(index);  // config
  return cells;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << "\n";
}

TEST(Journal, HeaderAndRowsRoundTrip) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_roundtrip.jsonl");
  const auto header = JournalHeader::for_run(spec, 8, 1, 2);
  {
    JournalWriter writer(path, header);
    ASSERT_TRUE(writer.ok());
    writer.add("mcf/reap/t1/sc-/rr-/s0", fake_cells(4));
    writer.add("mcf/reap/t1/sc-/rr-/s1", fake_cells(6));
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  EXPECT_EQ(journal->header.name, spec.name);
  EXPECT_EQ(journal->header.spec_hash, spec_hash(spec));
  EXPECT_EQ(journal->header.points, 8u);
  EXPECT_EQ(journal->header.shard_index, 1u);
  EXPECT_EQ(journal->header.shard_count, 2u);
  EXPECT_EQ(journal->header.columns, result_header());
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "mcf/reap/t1/sc-/rr-/s0");
  EXPECT_EQ(journal->rows[0].index, 4u);
  EXPECT_EQ(journal->rows[0].cells, fake_cells(4));
  EXPECT_EQ(journal->rows[1].index, 6u);
  std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalLine) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_torn.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  {
    // A mid-write kill leaves an unterminated fragment.
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"k2\",\"index\":2,\"work";
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k1");
}

// Mid-file damage no longer poisons the whole journal: the reader
// classifies each row and reports the damaged lines so resume can heal
// them and re-run exactly the lost rows.
TEST(Journal, ClassifiesMidFileGarbageAsCorruptAndKeepsGoodRows) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_corrupt.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage mid-file\n";
  }
  {
    JournalWriter writer(path);  // append a valid row after the damage
    writer.add("k1", fake_cells(1));
  }
  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "k0");
  EXPECT_EQ(journal->rows[1].key, "k1");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);  // header=1, k0=2
  EXPECT_EQ(journal->corrupt[0].reason, "malformed row");

  // Healing drops the damaged line for good.
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  const auto healed = read_journal(path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_TRUE(healed->corrupt.empty());
  EXPECT_EQ(healed->rows.size(), 2u);
  std::remove(path.c_str());
}

// Every v2 row carries a CRC32C suffix; a single flipped bit inside a
// structurally valid row is caught by the checksum, not mistaken for a
// torn tail -- even when it is the final line.
TEST(Journal, BitFlippedRowFailsItsChecksumAndIsReported) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_bitflip.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    writer.add("k2", fake_cells(2));
  }
  auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  // The on-disk format pin: rows end with the checksum suffix.
  EXPECT_NE(lines[2].rfind(",\"crc\":\""), std::string::npos) << lines[2];
  // Flip one payload byte of row k1: still perfectly valid JSON.
  const auto at = lines[2].find("mcf");
  ASSERT_NE(at, std::string::npos);
  lines[2].replace(at, 3, "mcg");
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].key, "k0");
  EXPECT_EQ(journal->rows[1].key, "k2");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);
  EXPECT_EQ(journal->corrupt[0].reason, "CRC mismatch");

  // Same damage on the *last* line (k1 is still damaged too):
  // corruption, not a tear, even at the tail.
  lines = file_lines(path);
  {
    const auto pos = lines.back().find("mcf");
    ASSERT_NE(pos, std::string::npos);
    lines.back().replace(pos, 3, "mcg");
  }
  write_lines(path, lines);
  const auto again = read_journal(path, &error);
  ASSERT_TRUE(again) << error;
  EXPECT_FALSE(again->truncated_tail);
  ASSERT_EQ(again->corrupt.size(), 2u);
  EXPECT_EQ(again->corrupt[1].line_no, 4u);
  EXPECT_EQ(again->corrupt[1].reason, "CRC mismatch");
  std::remove(path.c_str());
}

// A row truncated in the *middle* of the file (a partial overwrite, not
// a mid-write kill) is corruption; only a torn FINAL line is a tail.
TEST(Journal, TruncatedMiddleRowIsCorruptNotATornTail) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_midtrunc.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
    writer.add("k2", fake_cells(2));
  }
  auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  lines[2] = lines[2].substr(0, lines[2].size() / 2);
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_FALSE(journal->truncated_tail);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k2");
  ASSERT_EQ(journal->corrupt.size(), 1u);
  EXPECT_EQ(journal->corrupt[0].line_no, 3u);
  std::remove(path.c_str());
}

// A duplicated row (a replayed write, a copy-paste repair) parses fine;
// dedup is the merge layer's job, and it keeps the first occurrence.
TEST(Journal, DuplicatedRowIsDedupedByTheMergeNotTheReader) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_dup.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  auto lines = file_lines(path);
  lines.push_back(lines[2]);  // duplicate k0, checksum intact
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->corrupt.empty());
  ASSERT_EQ(journal->rows.size(), 3u);  // the reader reports what is there
  const auto merged = merge_journal_rows(journal->rows, {});
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "k0");
  EXPECT_EQ(merged[1].key, "k1");
  std::remove(path.c_str());
}

// v1 journals (pre-CRC) remain readable -- rows are self-describing --
// and a rewrite upgrades the file to checksummed v2.
TEST(Journal, V1FilesStayReadableAndRewriteUpgradesToV2) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_v1.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  // Regress the file to v1 by hand: v1 header tag, rows without the
  // checksum suffix (the v1 serialization is exactly the CRC'd body).
  auto lines = file_lines(path);
  const auto tag = lines[0].find("reap-journal-v2");
  ASSERT_NE(tag, std::string::npos);
  lines[0].replace(tag, 15, "reap-journal-v1");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto crc = lines[i].rfind(",\"crc\":\"");
    ASSERT_NE(crc, std::string::npos);
    lines[i] = lines[i].substr(0, crc) + "}";
  }
  write_lines(path, lines);

  std::string error;
  const auto journal = read_journal(path, &error);
  ASSERT_TRUE(journal) << error;
  EXPECT_TRUE(journal->corrupt.empty());
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[0].cells, fake_cells(0));

  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  const auto header = read_journal_header(path, &error);
  ASSERT_TRUE(header) << error;
  EXPECT_EQ(header->format, "reap-journal-v2");
  const auto upgraded = file_lines(path);
  for (std::size_t i = 1; i < upgraded.size(); ++i)
    EXPECT_NE(upgraded[i].rfind(",\"crc\":\""), std::string::npos);
  std::remove(path.c_str());
}

// Injected journal I/O faults surface as a sticky errno: the first
// failed append records the cause and every later add() is a no-op, so
// the on-disk journal stays a clean durable prefix.
TEST(Journal, InjectedIoFaultMakesTheWriterStickyWithItsErrno) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_eio.jsonl");
  common::fault::disarm();
  ASSERT_TRUE(common::fault::arm("journal.write:eio:2"));
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
    EXPECT_EQ(writer.io_errno(), 0);
    writer.add("k1", fake_cells(1));  // injected EIO: row not written
    EXPECT_EQ(writer.io_errno(), EIO);
    writer.add("k2", fake_cells(2));  // sticky: no-op
    EXPECT_EQ(writer.io_errno(), EIO);
  }
  common::fault::disarm();
  const auto journal = read_journal(path);
  ASSERT_TRUE(journal);
  EXPECT_TRUE(journal->corrupt.empty());
  ASSERT_EQ(journal->rows.size(), 1u);
  EXPECT_EQ(journal->rows[0].key, "k0");

  ASSERT_TRUE(common::fault::arm("journal.fsync:enospc:1"));
  {
    JournalWriter writer(path);
    writer.add("k1", fake_cells(1));  // lands, then the flush "fails"
    EXPECT_EQ(writer.io_errno(), ENOSPC);
  }
  common::fault::disarm();
  std::remove(path.c_str());
}

TEST(Journal, AppendModeContinuesAnExistingFile) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_append.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    JournalWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.add("k1", fake_cells(1));
  }
  const auto journal = read_journal(path);
  ASSERT_TRUE(journal);
  ASSERT_EQ(journal->rows.size(), 2u);
  EXPECT_EQ(journal->rows[1].key, "k1");
  std::remove(path.c_str());
}

TEST(Journal, RewriteDropsTornTailSoAppendsStayClean) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_rewrite.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k0", fake_cells(0));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"torn";  // no newline
  }
  auto journal = read_journal(path);
  ASSERT_TRUE(journal && journal->truncated_tail);
  std::string error;
  ASSERT_TRUE(rewrite_journal(path, *journal, &error)) << error;
  {
    JournalWriter writer(path);  // appending after rewrite must be safe
    writer.add("k1", fake_cells(1));
  }
  const auto again = read_journal(path, &error);
  ASSERT_TRUE(again) << error;
  EXPECT_FALSE(again->truncated_tail);
  ASSERT_EQ(again->rows.size(), 2u);
  EXPECT_EQ(again->rows[0].key, "k0");
  EXPECT_EQ(again->rows[1].key, "k1");
  std::remove(path.c_str());
}

TEST(Journal, CompatibilityRefusesADifferentCampaign) {
  const auto spec = small_spec();
  const auto header = JournalHeader::for_run(spec, 8, 1, 2);
  std::string why;
  EXPECT_TRUE(journal_compatible(header, spec, 8, 1, 2, &why)) << why;

  auto grown = spec;
  grown.seeds = {0, 1, 2};  // different grid
  EXPECT_FALSE(journal_compatible(header, grown, 12, 1, 2, &why));
  EXPECT_NE(why.find("different spec"), std::string::npos);

  auto reseeded = spec;
  reseeded.campaign_seed ^= 1;  // same shape, different traces
  EXPECT_FALSE(journal_compatible(header, reseeded, 8, 1, 2, &why));

  auto retuned = spec;
  retuned.base.instructions += 1;  // binary-relevant base config
  EXPECT_FALSE(journal_compatible(header, retuned, 8, 1, 2, &why));

  EXPECT_FALSE(journal_compatible(header, spec, 8, 0, 2, &why));
  EXPECT_NE(why.find("shard"), std::string::npos);
  EXPECT_FALSE(journal_compatible(header, spec, 8, 1, 4, &why));
}

TEST(Journal, MergeRowsDedupesByKeyAndSortsByIndex) {
  std::vector<JournalRow> a = {{"k5", 5, fake_cells(5)},
                               {"k1", 1, fake_cells(1)}};
  std::vector<JournalRow> b = {{"k1", 1, fake_cells(999)},  // dup key: dropped
                               {"k3", 3, fake_cells(3)}};
  const auto merged = merge_journal_rows(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].index, 1u);
  EXPECT_EQ(merged[0].cells, fake_cells(1));  // first occurrence won
  EXPECT_EQ(merged[1].index, 3u);
  EXPECT_EQ(merged[2].index, 5u);
}

// reopen_journal is the one resume path (reap_campaign --resume and the
// dispatcher's startup): it refuses another run's journal, heals a torn
// tail and corrupt lines on disk, and still reports what it healed.
TEST(Journal, ReopenHealsInPlaceAndRefusesAnotherRun) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_reopen.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 1, 2));
    writer.add("k0", fake_cells(0));
    writer.add("k1", fake_cells(1));
  }
  auto lines = file_lines(path);
  lines[1] = "{\"key\":\"garbage";  // corrupt mid-file line
  write_lines(path, lines);
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"torn";  // and a torn tail
  }

  std::string error;
  EXPECT_FALSE(reopen_journal(path, spec, 8, 0, 2, &error));
  EXPECT_NE(error.find("shard mismatch"), std::string::npos) << error;
  EXPECT_EQ(file_lines(path).size(), 4u);  // a refusal touches nothing

  const auto reopened = reopen_journal(path, spec, 8, 1, 2, &error);
  ASSERT_TRUE(reopened) << error;
  EXPECT_TRUE(reopened->truncated_tail);
  ASSERT_EQ(reopened->corrupt.size(), 1u);
  ASSERT_EQ(reopened->rows.size(), 1u);
  EXPECT_EQ(reopened->rows[0].key, "k1");

  const auto healed = read_journal(path, &error);
  ASSERT_TRUE(healed) << error;
  EXPECT_FALSE(healed->truncated_tail);
  EXPECT_TRUE(healed->corrupt.empty());
  ASSERT_EQ(healed->rows.size(), 1u);
  std::remove(path.c_str());
}

// A rewrite is not a row append: an armed journal.write fault must not
// fire while a resume heals the file, or a re-run under the same fault
// spec could never get past its own healing.
TEST(Journal, RewriteDoesNotConsumeJournalWriteFaults) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_rewrite_fault.jsonl");
  Journal j;
  j.header = JournalHeader::for_run(spec, 8, 0, 1);
  j.rows = {{"k0", 0, fake_cells(0)}, {"k1", 1, fake_cells(1)}};
  common::fault::disarm();
  ASSERT_TRUE(common::fault::arm("journal.write:eio:1"));
  std::string error;
  EXPECT_TRUE(rewrite_journal(path, j, &error)) << error;
  {
    JournalWriter writer(path);  // the first real append takes the fault
    writer.add("k2", fake_cells(2));
    EXPECT_EQ(writer.io_errno(), EIO);
  }
  common::fault::disarm();
  const auto back = read_journal(path, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(back->rows.size(), 2u);
  std::remove(path.c_str());
}

TEST(Journal, ParseRowAcceptsExactlyWhatTheReaderAccepts) {
  const auto spec = small_spec();
  const auto path = temp_path("journal_parse_row.jsonl");
  {
    JournalWriter writer(path, JournalHeader::for_run(spec, 8, 0, 1));
    writer.add("k3", fake_cells(3));
  }
  const auto lines = file_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  const auto row = parse_journal_row(lines[1], result_header());
  ASSERT_TRUE(row);
  EXPECT_EQ(row->key, "k3");
  EXPECT_EQ(row->index, 3u);
  EXPECT_EQ(row->cells, fake_cells(3));

  EXPECT_FALSE(parse_journal_row(lines[0], result_header()));  // header
  EXPECT_FALSE(parse_journal_row(lines[1].substr(0, 20), result_header()));
  auto flipped = lines[1];
  flipped.replace(flipped.find("mcf"), 3, "mcg");  // CRC no longer matches
  EXPECT_FALSE(parse_journal_row(flipped, result_header()));
  std::remove(path.c_str());
}

TEST(Progress, ReportsRateElapsedAndEta) {
  const auto path = temp_path("progress_out.txt");
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  {
    ProgressReporter progress(out);
    progress(1, 2);
    progress(2, 2);  // final update always prints
  }
  std::fclose(out);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("rows/s"), std::string::npos);
  EXPECT_NE(text.find("elapsed"), std::string::npos);
  EXPECT_NE(text.find("eta"), std::string::npos);
  EXPECT_NE(text.find("2/2 (100%)"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace reap::campaign
