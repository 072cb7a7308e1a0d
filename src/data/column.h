#ifndef SAGED_DATA_COLUMN_H_
#define SAGED_DATA_COLUMN_H_

#include <optional>
#include <string>
#include <vector>

#include "data/value.h"

namespace saged {

/// Dominant type of a column, inferred from its values.
enum class ColumnType {
  kNumeric,
  kCategorical,
  kText,
  kDate,
};

/// Type inference from pre-accumulated value-kind counts. Column::InferType
/// is this function applied to one pass over the values; streaming scans
/// call it directly with counts gathered cell-by-cell so both paths share
/// one set of thresholds.
ColumnType InferTypeFromCounts(size_t numeric, size_t date, size_t non_missing,
                               size_t total, size_t distinct);

/// One attribute of a tabular dataset: a name plus raw cell values.
/// Columns are the unit SAGED trains base models on and matches across
/// datasets, so most statistics live here.
class Column {
 public:
  Column() = default;
  Column(std::string name, std::vector<Cell> values)
      : name_(std::move(name)), values_(std::move(values)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Cell& operator[](size_t i) const { return values_[i]; }
  Cell& operator[](size_t i) { return values_[i]; }
  const std::vector<Cell>& values() const { return values_; }
  std::vector<Cell>& mutable_values() { return values_; }

  void Append(Cell value) { values_.push_back(std::move(value)); }

  /// Infers the dominant type: numeric if >=60% of non-missing cells parse
  /// as numbers; date if >=60% look like dates; categorical if the distinct
  /// ratio is small; text otherwise.
  ColumnType InferType() const;

  /// Numeric view: parsed values for cells that are numbers (index-aligned;
  /// non-numeric cells yield nullopt).
  std::vector<std::optional<double>> AsNumbers() const;

  /// Number of distinct values.
  size_t DistinctCount() const;

  /// Fraction of cells that are explicit missing tokens.
  double MissingFraction() const;

  /// Keeps only the first `n` values (used for data-fraction sweeps).
  void Truncate(size_t n);

 private:
  std::string name_;
  std::vector<Cell> values_;
};

}  // namespace saged

#endif  // SAGED_DATA_COLUMN_H_
