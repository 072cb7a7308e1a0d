#include "data/column.h"

#include <unordered_set>

#include "common/strings.h"

namespace saged {

ColumnType InferTypeFromCounts(size_t numeric, size_t date, size_t non_missing,
                               size_t total, size_t distinct) {
  if (non_missing == 0) return ColumnType::kText;
  double numeric_frac = static_cast<double>(numeric) / non_missing;
  double date_frac = static_cast<double>(date) / non_missing;
  if (numeric_frac >= 0.6) return ColumnType::kNumeric;
  if (date_frac >= 0.6) return ColumnType::kDate;
  double distinct_ratio =
      static_cast<double>(distinct) / static_cast<double>(total);
  if (distinct_ratio <= 0.2 || distinct <= 30) {
    return ColumnType::kCategorical;
  }
  return ColumnType::kText;
}

ColumnType Column::InferType() const {
  size_t numeric = 0;
  size_t date = 0;
  size_t non_missing = 0;
  for (const auto& v : values_) {
    ValueKind kind = ClassifyValue(v);
    if (kind == ValueKind::kMissing) continue;
    ++non_missing;
    if (kind == ValueKind::kInteger || kind == ValueKind::kReal) ++numeric;
    if (kind == ValueKind::kDate) ++date;
  }
  return InferTypeFromCounts(numeric, date, non_missing, values_.size(),
                             DistinctCount());
}

std::vector<std::optional<double>> Column::AsNumbers() const {
  std::vector<std::optional<double>> out;
  out.reserve(values_.size());
  for (const auto& v : values_) out.push_back(CellAsNumber(v));
  return out;
}

size_t Column::DistinctCount() const {
  std::unordered_set<std::string_view> seen;
  seen.reserve(values_.size());
  for (const auto& v : values_) seen.insert(v);
  return seen.size();
}

double Column::MissingFraction() const {
  if (values_.empty()) return 0.0;
  size_t missing = 0;
  for (const auto& v : values_) {
    if (IsMissingToken(v)) ++missing;
  }
  return static_cast<double>(missing) / values_.size();
}

void Column::Truncate(size_t n) {
  if (n < values_.size()) values_.resize(n);
}

}  // namespace saged
