#include "data/csv.h"

#include <sstream>
#include <utility>

#include "common/strings.h"

namespace saged {

namespace {

constexpr char kDelimiter = ',';

/// Splits one CSV record honoring quotes. `pos` advances past the record
/// (including the newline). Returns false at end of input. `*saw_newline`
/// (optional) reports whether the record ended at a newline terminator, as
/// opposed to running off the end of `text` — the streaming reader uses the
/// distinction to defer records that may continue in the next file chunk.
bool NextRecordIn(const std::string& text, size_t& pos,
                  std::vector<std::string>& fields,
                  bool* saw_newline = nullptr) {
  fields.clear();
  if (saw_newline != nullptr) *saw_newline = false;
  if (pos >= text.size()) return false;
  std::string field;
  bool in_quotes = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          field += '"';
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        field += c;
        ++pos;
      }
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
      ++pos;
    } else if (c == kDelimiter) {
      fields.push_back(std::move(field));
      field.clear();
      ++pos;
    } else if (c == '\n' || c == '\r') {
      // Consume \r\n or \n.
      if (c == '\r' && pos + 1 < text.size() && text[pos + 1] == '\n') ++pos;
      ++pos;
      fields.push_back(std::move(field));
      if (saw_newline != nullptr) *saw_newline = true;
      return true;
    } else {
      field += c;
      ++pos;
    }
  }
  fields.push_back(std::move(field));
  return true;
}

bool NeedsQuoting(const std::string& field) {
  return field.find(kDelimiter) != std::string::npos ||
         field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos ||
         field.find('\r') != std::string::npos;
}

void AppendField(std::string& out, const std::string& field) {
  if (!NeedsQuoting(field)) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

Result<Table> ParseCsv(const std::string& text) {
  Table table;
  std::vector<std::vector<Cell>> columns;
  std::vector<std::string> names;
  std::vector<std::string> fields;
  size_t pos = 0;
  size_t record_no = 0;
  while (NextRecordIn(text, pos, fields)) {
    // Skip a trailing blank line.
    if (fields.size() == 1 && fields[0].empty() && pos >= text.size()) break;
    if (record_no == 0) {
      columns.resize(fields.size());
      names = fields;
      ++record_no;
      continue;
    }
    if (fields.size() != columns.size()) {
      return Status::IoError(
          StrFormat("record %zu has %zu fields, expected %zu", record_no,
                    fields.size(), columns.size()));
    }
    for (size_t j = 0; j < fields.size(); ++j) {
      columns[j].push_back(fields[j]);
    }
    ++record_no;
  }
  for (size_t j = 0; j < columns.size(); ++j) {
    SAGED_RETURN_NOT_OK(table.AddColumn(Column(names[j], std::move(columns[j]))));
  }
  return table;
}

Result<Table> ReadCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  auto result = ParseCsv(buf.str());
  if (result.ok()) result->set_name(path);
  return result;
}

std::string FormatCsv(const Table& table) {
  std::string out;
  for (size_t j = 0; j < table.NumCols(); ++j) {
    if (j) out += kDelimiter;
    AppendField(out, table.column(j).name());
  }
  out += '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t j = 0; j < table.NumCols(); ++j) {
      if (j) out += kDelimiter;
      AppendField(out, table.cell(r, j));
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << FormatCsv(table);
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CsvBlockReader
// ---------------------------------------------------------------------------

CsvBlockReader::CsvBlockReader(std::string path, size_t block_rows,
                               CsvOptions, size_t chunk_bytes)
    : path_(std::move(path)),
      block_rows_(block_rows == 0 ? 1 : block_rows),
      chunk_bytes_(chunk_bytes == 0 ? 1 : chunk_bytes) {}

Status CsvBlockReader::FetchMore() {
  // Compact the consumed prefix so the buffer stays one chunk plus at most
  // one straddling record.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  size_t old_size = buf_.size();
  buf_.resize(old_size + chunk_bytes_);
  in_.read(buf_.data() + old_size, static_cast<std::streamsize>(chunk_bytes_));
  size_t got = static_cast<size_t>(in_.gcount());
  buf_.resize(old_size + got);
  if (got == 0) {
    if (in_.bad()) return Status::IoError("read from '" + path_ + "' failed");
    eof_ = true;
  }
  return Status::OK();
}

Result<bool> CsvBlockReader::NextRecord(std::vector<std::string>* fields) {
  while (true) {
    if (pos_ < buf_.size()) {
      size_t probe = pos_;
      bool saw_newline = false;
      bool got = NextRecordIn(buf_, probe, *fields, &saw_newline);
      // A record is only trusted when its terminator cannot move with more
      // data: a newline with bytes after it, or anything once the file is
      // exhausted. A newline at the buffer's very edge is re-scanned after
      // the next fetch — it could be the '\r' of a split "\r\n" pair — and
      // an unterminated record could simply continue in the next chunk.
      if (got && ((saw_newline && probe < buf_.size()) || eof_)) {
        pos_ = probe;
        // ParseCsv parity: a final blank line is not a record.
        if (eof_ && pos_ >= buf_.size() && fields->size() == 1 &&
            (*fields)[0].empty()) {
          return false;
        }
        return true;
      }
    }
    if (eof_) return pos_ < buf_.size();  // nothing further to read
    SAGED_RETURN_NOT_OK(FetchMore());
  }
}

Status CsvBlockReader::Open() {
  if (opened_) return Status::InvalidArgument("CsvBlockReader reused");
  opened_ = true;
  in_.open(path_, std::ios::binary);
  if (!in_) return Status::IoError("cannot open '" + path_ + "'");

  std::vector<std::string> header;
  SAGED_ASSIGN_OR_RETURN(bool got, NextRecord(&header));
  if (!got) return Status::OK();  // empty file: zero columns, zero rows
  names_ = std::move(header);
  record_no_ = 1;
  return Status::OK();
}

Result<bool> CsvBlockReader::Next(CsvBlock* block) {
  if (!opened_) return Status::InvalidArgument("Open() not called");
  block->first_row = next_row_;
  block->columns.assign(names_.size(), {});
  if (names_.empty()) return false;
  for (auto& column : block->columns) column.reserve(block_rows_);

  std::vector<std::string> fields;
  while (block->rows() < block_rows_) {
    SAGED_ASSIGN_OR_RETURN(bool got, NextRecord(&fields));
    if (!got) break;
    if (fields.size() != names_.size()) {
      return Status::IoError(
          StrFormat("record %zu has %zu fields, expected %zu", record_no_,
                    fields.size(), names_.size()));
    }
    for (size_t j = 0; j < fields.size(); ++j) {
      block->columns[j].push_back(std::move(fields[j]));
    }
    ++record_no_;
    ++next_row_;
  }
  return block->rows() > 0;
}

}  // namespace saged
