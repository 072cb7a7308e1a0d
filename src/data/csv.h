#ifndef SAGED_DATA_CSV_H_
#define SAGED_DATA_CSV_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"

namespace saged {

// One CSV dialect throughout: RFC-4180 style, comma-separated, and the first
// record names the columns.

/// Reads `path` into a Table.
Result<Table> ReadCsv(const std::string& path);

/// Parses CSV text held in memory.
Result<Table> ParseCsv(const std::string& text);

/// Writes `table` to `path` with quoting where needed.
Status WriteCsv(const Table& table, const std::string& path);

/// Serializes `table` as CSV text.
std::string FormatCsv(const Table& table);

/// Placeholder third argument of CsvBlockReader's constructor. The dialect
/// is fixed, so it carries nothing; it remains only because
/// perfbench/src/replay.cc passes `{}` in that position.
struct CsvOptions {};

/// One decoded block of a streaming CSV read: column-major cell storage for
/// up to `block_rows` consecutive data rows, plus the global (0-based,
/// header-exclusive) index of the first row, so downstream stages can
/// address cells with stable whole-table coordinates.
struct CsvBlock {
  size_t first_row = 0;
  std::vector<std::vector<Cell>> columns;

  size_t rows() const { return columns.empty() ? 0 : columns[0].size(); }
};

/// Incremental CSV reader for out-of-core pipelines: decodes `path` in
/// fixed-size byte chunks and yields blocks of `block_rows` rows, never
/// holding more than one chunk of raw text plus one block of cells. The
/// decoded row stream is identical to ReadCsv on the same file — quoted
/// fields, escaped quotes, and CRLF pairs that straddle chunk boundaries are
/// handled by deferring a record until its terminator is unambiguous, and
/// ragged rows fail with the same record-numbered IoError.
///
///   CsvBlockReader reader(path, 50000);
///   SAGED_RETURN_NOT_OK(reader.Open());
///   CsvBlock block;
///   while (true) {
///     SAGED_ASSIGN_OR_RETURN(bool more, reader.Next(&block));
///     if (!more) break;
///     ...  // block.columns[j][i] is cell (block.first_row + i, j)
///   }
class CsvBlockReader {
 public:
  /// `chunk_bytes` sizes the raw read buffer; tests shrink it to force
  /// records across chunk boundaries. A record longer than one chunk still
  /// parses (the buffer grows to hold it), it just re-scans on refill.
  explicit CsvBlockReader(std::string path, size_t block_rows = 50000,
                          CsvOptions = {}, size_t chunk_bytes = 1 << 20);

  /// Opens the file and reads the header.
  Status Open();

  /// Column names, valid after Open. Empty for an empty file.
  const std::vector<std::string>& column_names() const { return names_; }

  size_t NumCols() const { return names_.size(); }

  /// Data rows decoded so far (== the next block's first_row).
  size_t rows_read() const { return next_row_; }

  /// Fills `block` with the next `block_rows` (or fewer, at end of file)
  /// rows. Returns false — with an empty block — once the file is
  /// exhausted. Field-count mismatches surface as IoError.
  Result<bool> Next(CsvBlock* block);

 private:
  /// Appends one chunk from the file to `buf_`, compacting the consumed
  /// prefix first. Sets eof_ when the file is exhausted.
  Status FetchMore();

  /// Extracts the next complete record from the buffered text, refilling
  /// from the file as needed. Returns false at end of input. Mirrors
  /// ParseCsv record-for-record, including skipping a trailing blank line.
  Result<bool> NextRecord(std::vector<std::string>* fields);

  std::string path_;
  size_t block_rows_;
  size_t chunk_bytes_;

  std::ifstream in_;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
  bool opened_ = false;

  std::vector<std::string> names_;
  /// Record index in ParseCsv numbering (the header counts as record 0), so
  /// ragged-row errors match the in-memory parser verbatim.
  size_t record_no_ = 0;
  size_t next_row_ = 0;
};

}  // namespace saged

#endif  // SAGED_DATA_CSV_H_
