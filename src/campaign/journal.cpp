#include "reap/campaign/journal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "reap/common/crc32c.hpp"
#include "reap/common/fault.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"

namespace reap::campaign {
namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto next = s.find(sep, pos);
    const auto end = next == std::string::npos ? s.size() : next;
    out.push_back(s.substr(pos, end - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

// Parses the header object of line 1. The journal is self-describing: all
// fields are flat scalars so the shared JSONL-subset parser handles it.
bool parse_header(const std::string& line, JournalHeader& h,
                  std::string* error) {
  const auto fields = common::parse_jsonl_line(line);
  if (!fields) return fail(error, "journal: malformed header line");
  bool saw_format = false;
  for (const auto& [key, value] : *fields) {
    if (key == "format") {
      h.format = value;
      saw_format = true;
    } else if (key == "name") {
      h.name = value;
    } else if (key == "spec_hash") {
      if (!common::parse_hex64(value, h.spec_hash))
        return fail(error, "journal: bad spec_hash: " + value);
    } else if (key == "points") {
      if (!common::parse_u64(value, h.points))
        return fail(error, "journal: bad points: " + value);
    } else if (key == "shard_index") {
      if (!common::parse_u64(value, h.shard_index))
        return fail(error, "journal: bad shard_index: " + value);
    } else if (key == "shard_count") {
      if (!common::parse_u64(value, h.shard_count))
        return fail(error, "journal: bad shard_count: " + value);
    } else if (key == "columns") {
      h.columns = split(value, ',');
    }
    // Unknown header fields are ignored: newer writers may add metadata.
  }
  if (!saw_format ||
      (h.format != "reap-journal-v1" && h.format != "reap-journal-v2"))
    return fail(error, "journal: not a reap-journal file");
  if (h.columns.empty()) return fail(error, "journal: header lists no columns");
  return true;
}

// The checksum suffix of a v2 row: `,"crc":"xxxxxxxx"}` closes the line.
// The CRC covers the row body -- the line with that suffix removed and the
// closing brace restored, i.e. exactly the v1 serialization of the row.
constexpr char kCrcSuffix[] = ",\"crc\":\"";
constexpr std::size_t kCrcSuffixLen = sizeof(kCrcSuffix) - 1;

// Splits a v2 line into (body, crc hex). Returns false for a line without
// the suffix -- a v1 row, which simply has no checksum to verify.
bool split_crc(const std::string& line, std::string& body, std::string& hex) {
  const auto pos = line.rfind(kCrcSuffix);
  if (pos == std::string::npos) return false;
  const auto tail = line.substr(pos + kCrcSuffixLen);
  if (tail.size() != 10 || tail.substr(8) != "\"}") return false;
  body = line.substr(0, pos) + "}";
  hex = tail.substr(0, 8);
  return true;
}

enum class RowParse { ok, malformed, bad_crc };

// Parses one row line into (key, cells), verifying the v2 checksum when
// present. The caller decides whether `malformed` is a torn tail
// (acceptable on the last line) or corruption; `bad_crc` is always
// corruption -- only a complete, well-formed line can carry a checksum
// that fails to verify.
RowParse parse_row(const std::string& line,
                   const std::vector<std::string>& columns,
                   JournalRow& row) {
  std::string body;
  std::string hex;
  const bool has_crc = split_crc(line, body, hex);
  if (has_crc) {
    std::uint32_t stored = 0;
    if (!common::parse_hex32(hex, stored)) return RowParse::malformed;
    if (common::crc32c(body) != stored) return RowParse::bad_crc;
  } else {
    body = line;
  }
  const auto fields = common::parse_jsonl_line(body);
  if (!fields) return RowParse::malformed;
  if (fields->size() != columns.size() + 1) return RowParse::malformed;
  if ((*fields)[0].first != "key") return RowParse::malformed;
  row.key = (*fields)[0].second;
  row.cells.clear();
  row.cells.reserve(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const auto& [name, value] = (*fields)[i + 1];
    if (name != columns[i]) return RowParse::malformed;
    row.cells.push_back(value);
  }
  // Column 0 is the grid index by construction of result_header().
  if (columns.empty() || columns[0] != "index") return RowParse::malformed;
  return common::parse_u64(row.cells[0], row.index) ? RowParse::ok
                                                    : RowParse::malformed;
}

std::string header_line(const JournalHeader& h) {
  return "{\"format\":\"" + common::json_escape(h.format) +
         "\",\"name\":\"" + common::json_escape(h.name) +
         "\",\"spec_hash\":\"" + common::fmt_hex64(h.spec_hash) +
         "\",\"points\":" + std::to_string(h.points) +
         ",\"shard_index\":" + std::to_string(h.shard_index) +
         ",\"shard_count\":" + std::to_string(h.shard_count) +
         ",\"columns\":\"" + common::json_escape(join(h.columns, ',')) +
         "\"}";
}

// One v2 row line, newline included.
std::string row_line(const std::vector<std::string>& columns,
                     const std::string& key,
                     const std::vector<std::string>& cells) {
  const std::string body = "{\"key\":\"" + common::json_escape(key) + "\"," +
                           jsonl_fields(columns, cells) + "}";
  return body.substr(0, body.size() - 1) + kCrcSuffix +
         common::fmt_hex32(common::crc32c(body)) + "\"}\n";
}

}  // namespace

JournalHeader JournalHeader::for_run(const CampaignSpec& spec,
                                     std::size_t n_points,
                                     std::size_t shard_index,
                                     std::size_t shard_count) {
  JournalHeader h;
  h.name = spec.name;
  h.spec_hash = campaign::spec_hash(spec);
  h.points = n_points;
  h.shard_index = shard_index;
  h.shard_count = shard_count;
  h.columns = result_header();
  return h;
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header)
    : out_(path, std::ios::trunc), columns_(header.columns) {
  if (!out_) return;
  header_line_ = header_line(header);
  out_ << header_line_ << '\n';
  out_.flush();
}

JournalWriter::JournalWriter(const std::string& path)
    : out_(path, std::ios::app), columns_(result_header()) {}

bool JournalWriter::ok() const { return static_cast<bool>(out_); }

void JournalWriter::set_mirror(std::function<void(const std::string&)> fn) {
  mirror_ = std::move(fn);
  // The receiver rebuilds the journal from the stream, so it needs the
  // header first, exactly as a reader of the file would see it.
  if (mirror_ && !header_line_.empty() && static_cast<bool>(out_))
    mirror_(header_line_);
}

void JournalWriter::add(const std::string& key,
                        const std::vector<std::string>& cells) {
  // Sticky after the first failure: appending past an error would put
  // rows after a hole and break "journal = durable prefix of the run".
  if (!out_ || io_errno_ != 0) return;

  const std::string line = row_line(columns_, key, cells);

  if (const auto f = common::fault::hit("journal.write", key)) {
    if (f->kind == common::fault::Kind::torn_write) {
      // A mid-write kill: some prefix of the line lands, then the
      // process dies. Exactly what read_journal's torn-tail path heals.
      const auto n = f->param ? std::min<std::size_t>(f->param, line.size())
                              : line.size() / 2;
      out_.write(line.data(), static_cast<std::streamsize>(n));
      out_.flush();
      std::_Exit(common::fault::kCrashExit);
    }
    io_errno_ = f->kind == common::fault::Kind::enospc ? ENOSPC : EIO;
    return;
  }

  errno = 0;
  out_ << line;
  out_.flush();
  if (const auto f = common::fault::hit("journal.fsync", key))
    io_errno_ = f->kind == common::fault::Kind::enospc ? ENOSPC : EIO;
  if (!out_ && io_errno_ == 0) io_errno_ = errno != 0 ? errno : EIO;
  if (io_errno_ == 0 && mirror_)
    mirror_(line.substr(0, line.size() - 1));  // without the '\n'
}

std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open journal: " + path);
    return std::nullopt;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  if (lines.empty()) {
    fail(error, "journal is empty: " + path);
    return std::nullopt;
  }

  Journal j;
  if (!parse_header(lines[0], j.header, error)) return std::nullopt;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    JournalRow row;
    switch (parse_row(lines[i], j.header.columns, row)) {
      case RowParse::ok:
        j.rows.push_back(std::move(row));
        break;
      case RowParse::malformed:
        if (i + 1 == lines.size()) {
          // A torn final line is the expected signature of a mid-write
          // kill; the row it carried simply re-runs on resume.
          j.truncated_tail = true;
        } else {
          j.corrupt.push_back({i + 1, "malformed row"});
        }
        break;
      case RowParse::bad_crc:
        // A complete line whose checksum fails is damage, not a tear --
        // even on the last line.
        j.corrupt.push_back({i + 1, "CRC mismatch"});
        break;
    }
  }
  return j;
}

std::optional<JournalHeader> read_journal_header(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open journal: " + path);
    return std::nullopt;
  }
  std::string line;
  if (!std::getline(in, line) || line.empty()) {
    fail(error, "journal is empty: " + path);
    return std::nullopt;
  }
  JournalHeader h;
  if (!parse_header(line, h, error)) return std::nullopt;
  return h;
}

bool rewrite_journal(const std::string& path, const Journal& j,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    // Only parsed rows are re-serialized, so a rewrite heals corrupt
    // lines along with the torn tail -- and upgrades v1 files to v2,
    // since rows are always written checksummed.
    JournalHeader header = j.header;
    header.format = "reap-journal-v2";
    std::ofstream out(tmp, std::ios::trunc);
    out << header_line(header) << '\n';
    for (const auto& row : j.rows)
      out << row_line(header.columns, row.key, row.cells);
    out.flush();
    if (!out) return fail(error, "cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    return fail(error, "cannot replace " + path + ": " + ec.message());
  return true;
}

bool journal_compatible(const JournalHeader& header, const CampaignSpec& spec,
                        std::size_t n_points, std::size_t shard_index,
                        std::size_t shard_count, std::string* why) {
  const auto mismatch = [&](const std::string& what) {
    if (why) *why = "journal " + what;
    return false;
  };
  if (header.spec_hash != campaign::spec_hash(spec))
    return mismatch("was recorded for a different spec (spec hash " +
                    common::fmt_hex64(header.spec_hash) + " != " +
                    common::fmt_hex64(campaign::spec_hash(spec)) + ")");
  if (header.points != n_points)
    return mismatch("grid size mismatch (" + std::to_string(header.points) +
                    " != " + std::to_string(n_points) + ")");
  if (header.shard_index != shard_index || header.shard_count != shard_count)
    return mismatch("shard mismatch (" + std::to_string(header.shard_index) +
                    "/" + std::to_string(header.shard_count) + " != " +
                    std::to_string(shard_index) + "/" +
                    std::to_string(shard_count) + ")");
  if (header.columns != result_header())
    return mismatch("column schema differs from this binary's");
  return true;
}

std::optional<Journal> reopen_journal(const std::string& path,
                                      const CampaignSpec& spec,
                                      std::size_t n_points,
                                      std::size_t shard_index,
                                      std::size_t shard_count,
                                      std::string* error) {
  auto j = read_journal(path, error);
  if (!j) return std::nullopt;
  std::string why;
  if (!journal_compatible(j->header, spec, n_points, shard_index,
                          shard_count, &why)) {
    fail(error, why);
    return std::nullopt;
  }
  // Heal before appending: new rows written after an unterminated line
  // would corrupt both, and re-serializing only the parsed rows drops
  // the corrupt ones for good.
  if ((j->truncated_tail || !j->corrupt.empty()) &&
      !rewrite_journal(path, *j, error))
    return std::nullopt;
  return j;
}

std::optional<JournalRow> parse_journal_row(
    const std::string& line, const std::vector<std::string>& columns) {
  JournalRow row;
  if (parse_row(line, columns, row) != RowParse::ok) return std::nullopt;
  return row;
}

std::vector<JournalRow> merge_journal_rows(std::vector<JournalRow> a,
                                           std::vector<JournalRow> b) {
  std::vector<JournalRow> all = std::move(a);
  all.insert(all.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
  std::unordered_set<std::string> seen;
  std::vector<JournalRow> unique;
  unique.reserve(all.size());
  for (auto& row : all)
    if (seen.insert(row.key).second) unique.push_back(std::move(row));
  std::stable_sort(unique.begin(), unique.end(),
                   [](const JournalRow& x, const JournalRow& y) {
                     return x.index < y.index;
                   });
  return unique;
}

void emit_rows(const std::vector<JournalRow>& rows, ResultSink& sink) {
  for (const auto& row : rows) sink.add_cells(row.cells);
}

}  // namespace reap::campaign
