#ifndef SAGED_DATA_TABLE_H_
#define SAGED_DATA_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/column.h"

namespace saged {

/// Column-major tabular dataset. Columns own the cell storage; rows are a
/// logical view. All columns must have the same length.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumRows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t NumCols() const { return columns_.size(); }

  /// Appends a column; fails if its length disagrees with existing columns.
  Status AddColumn(Column column);

  const Column& column(size_t j) const { return columns_[j]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or an error.
  Result<size_t> ColumnIndex(const std::string& name) const;

  const Cell& cell(size_t row, size_t col) const { return columns_[col][row]; }
  void set_cell(size_t row, size_t col, Cell value) {
    columns_[col][row] = std::move(value);
  }

  /// One row materialized as strings (for labeling UIs and CSV output).
  std::vector<Cell> Row(size_t row) const;

  /// Column names in order.
  std::vector<std::string> ColumnNames() const;

  /// Copy of the first `fraction` of rows (0 < fraction <= 1); used by the
  /// scalability experiment (Figure 15).
  Table HeadFraction(double fraction) const;

  /// Copy restricted to the given row indices (order preserved).
  Table SelectRows(const std::vector<size_t>& rows) const;

 private:
  std::string name_;
  std::vector<Column> columns_;
};

}  // namespace saged

#endif  // SAGED_DATA_TABLE_H_
