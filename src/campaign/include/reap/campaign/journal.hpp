// Execution journal: completion-order durability for campaign rows.
//
// A journal is a JSONL file. Line 1 is a header object recording what ran
// (spec hash, point count, shard) and the column schema; every following
// line is one completed row -- the JSONL sink's field set prefixed with the
// point's stable row key -- flushed as soon as the experiment finishes.
// Kill the process at any moment and the journal loses at most the line
// being written; read_journal tolerates exactly that torn tail, so
// `--resume` can skip every completed row and continue. A final merge step
// (merge_journal_rows + emit_rows) replays the rows in grid-index order
// into the ordinary sinks, producing output byte-identical to an
// uninterrupted run.
//
// Format v2 ("reap-journal-v2") suffixes every row with a CRC32C over the
// row body (the line up to but excluding the `,"crc":"..."` suffix, with
// the closing brace restored), so a reader can tell three states apart:
//   ok      the row parses and its checksum matches (v1 rows, which carry
//           no checksum, parse-check only);
//   torn    the *final* line is an unparseable prefix -- the signature of a
//           mid-write kill; the row re-runs on resume;
//   corrupt anything else -- an unparseable line before the tail, or a
//           parseable row whose checksum does not match (bit rot, partial
//           overwrite). Corrupt rows are reported, skipped, and healed by
//           the next rewrite; they never abort a read.
// Readers accept v1 and v2 files, and mixed rows: each row is
// self-describing by the presence of its "crc" field.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "reap/campaign/result_sink.hpp"
#include "reap/campaign/spec.hpp"

namespace reap::campaign {

struct JournalHeader {
  std::string format = "reap-journal-v2";
  std::string name;                 // campaign name
  std::uint64_t spec_hash = 0;      // campaign::spec_hash of the spec
  std::uint64_t points = 0;         // full-grid point count
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  std::vector<std::string> columns;  // result_header() at write time

  static JournalHeader for_run(const CampaignSpec& spec,
                               std::size_t n_points,
                               std::size_t shard_index,
                               std::size_t shard_count);
};

// One journaled row: the point's stable key plus its rendered cells
// (aligned with the header's columns).
struct JournalRow {
  std::string key;
  std::uint64_t index = 0;
  std::vector<std::string> cells;
};

// One line read_journal could not accept as a row: where and why. Corrupt
// lines are data already lost on disk -- the reader's job is to contain
// the damage (skip, report, re-run that point), not to refuse the file.
struct CorruptLine {
  std::size_t line_no = 0;  // 1-based line number in the file
  std::string reason;       // "malformed row" / "CRC mismatch (...)"
};

struct Journal {
  JournalHeader header;
  std::vector<JournalRow> rows;      // completion order
  bool truncated_tail = false;       // last line was torn (mid-write kill)
  std::vector<CorruptLine> corrupt;  // damaged lines before the tail
};

// Appends rows to a journal file, flushing after every line so a killed
// run loses at most the row being written.
class JournalWriter {
 public:
  // Creates/truncates `path` and writes the header line.
  JournalWriter(const std::string& path, const JournalHeader& header);

  // Opens `path` for append (resume; the header line must already exist).
  explicit JournalWriter(const std::string& path);

  bool ok() const;
  void add(const std::string& key, const std::vector<std::string>& cells);

  // Mirrors every line this writer lands durably -- the header (replayed
  // immediately when one was written by this writer) and then each row,
  // without the trailing newline -- to `fn`. --journal-stdout feeds this
  // into the CRC32C stream framing; a line that failed to append locally
  // is never mirrored, so the stream can't claim rows the disk lost.
  void set_mirror(std::function<void(const std::string&)> fn);

  // 0 while appends are landing; the errno (EIO, ENOSPC, ...) of the
  // first failed append otherwise. Once set, further add() calls are
  // no-ops: the journal ends cleanly at the last durable row and the
  // caller should stop the run (reap_campaign exits kExitJournalIo) so
  // --resume can continue from exactly that boundary.
  int io_errno() const { return io_errno_; }

 private:
  std::ofstream out_;
  std::vector<std::string> columns_;
  std::string header_line_;  // set by the truncate ctor, for the mirror
  std::function<void(const std::string&)> mirror_;
  int io_errno_ = 0;
};

// Reads a journal back. A torn final line (the signature of a mid-write
// kill) is dropped and flagged, and damaged lines before the tail are
// collected in `corrupt` (the rows they carried re-run on resume);
// neither aborts the read. Returns nullopt and sets `error` only when
// the file itself is unusable: unopenable, empty, or a bad header line.
std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error = nullptr);

// Reads only the header line -- O(1) regardless of journal size. What
// the dispatcher's work-dir scan uses to learn a journal's spec hash and
// shard split without parsing every row.
std::optional<JournalHeader> read_journal_header(const std::string& path,
                                                 std::string* error = nullptr);

// Atomically replaces `path` with a clean serialization of `j` (temp file
// + rename). Resume uses this to drop a torn tail before appending -- new
// rows written after an unterminated line would corrupt both. It writes
// a new file rather than appending rows, so the `journal.write` fault
// site does not fire here.
bool rewrite_journal(const std::string& path, const Journal& j,
                     std::string* error = nullptr);

// Whether a journal recorded the same campaign this process is about to
// run: same spec hash, grid size, shard assignment, and column schema.
// On mismatch returns false and, if `why` is non-null, names the first
// differing field.
bool journal_compatible(const JournalHeader& header, const CampaignSpec& spec,
                        std::size_t n_points, std::size_t shard_index,
                        std::size_t shard_count, std::string* why = nullptr);

// Prepares an existing journal for appending more rows of the same run:
// read_journal, then journal_compatible, then -- when the tail is torn or
// lines are corrupt -- rewrite_journal down to the parsed rows. The
// returned Journal still reports what was healed (truncated_tail,
// corrupt). Returns nullopt and sets `error` when the file is unreadable,
// records a different run, or cannot be rewritten. Shared by
// reap_campaign --resume and the dispatcher's startup.
std::optional<Journal> reopen_journal(const std::string& path,
                                      const CampaignSpec& spec,
                                      std::size_t n_points,
                                      std::size_t shard_index,
                                      std::size_t shard_count,
                                      std::string* error = nullptr);

// Parses one journal row line against `columns`, verifying its CRC32C
// when it carries one. nullopt for anything read_journal would not
// accept as a row. The dispatcher vets every streamed row with this
// before appending it.
std::optional<JournalRow> parse_journal_row(
    const std::string& line, const std::vector<std::string>& columns);

// Concatenates completion-order row batches, drops duplicate keys (first
// occurrence wins), and sorts by grid index: the merge step that turns a
// journal back into index-ordered sink input.
std::vector<JournalRow> merge_journal_rows(std::vector<JournalRow> a,
                                           std::vector<JournalRow> b);

// Streams merged rows into a sink (rows must already be index-ordered).
void emit_rows(const std::vector<JournalRow>& rows, ResultSink& sink);

}  // namespace reap::campaign
