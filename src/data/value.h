#ifndef SAGED_DATA_VALUE_H_
#define SAGED_DATA_VALUE_H_

#include <optional>
#include <string>
#include <string_view>

namespace saged {

/// Cells are kept in their raw textual form, exactly as they appear in a CSV
/// file: error detection must see typos, formatting glitches, and disguised
/// missing values before any typed parsing destroys them.
using Cell = std::string;

/// Coarse value classes used for column type inference.
enum class ValueKind {
  kMissing,
  kInteger,
  kReal,
  kDate,
  kText,
};

/// Classifies one cell's raw text.
ValueKind ClassifyValue(std::string_view raw);

/// Parses a cell as a number if possible (missing tokens yield nullopt).
std::optional<double> CellAsNumber(std::string_view raw);

/// True for "YYYY-MM-DD", "DD/MM/YYYY", "MM-DD-YYYY" style date spellings.
bool LooksLikeDate(std::string_view raw);

}  // namespace saged

#endif  // SAGED_DATA_VALUE_H_
