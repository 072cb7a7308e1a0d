#include "data/value.h"

#include <cctype>

#include "common/strings.h"

namespace saged {

namespace {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

bool LooksLikeDate(std::string_view raw) {
  std::string_view t = Trim(raw);
  // Accept three-part dates with '-' or '/' separators where each part is
  // numeric and one part has 4 digits (the year) or all parts <= 2 digits.
  for (char sep : {'-', '/'}) {
    auto parts = Split(t, sep);
    if (parts.size() != 3) continue;
    bool numeric = true;
    for (const auto& p : parts) numeric = numeric && AllDigits(p);
    if (!numeric) continue;
    bool has_year = parts[0].size() == 4 || parts[2].size() == 4;
    bool short_form = parts[0].size() <= 2 && parts[1].size() <= 2 &&
                      parts[2].size() <= 2;
    if (has_year || short_form) return true;
  }
  return false;
}

ValueKind ClassifyValue(std::string_view raw) {
  std::string_view t = Trim(raw);
  if (IsMissingToken(t)) return ValueKind::kMissing;
  if (LooksLikeDate(t)) return ValueKind::kDate;
  if (auto v = ParseDouble(t)) {
    double d = *v;
    if (d == static_cast<long long>(d) && t.find('.') == std::string_view::npos &&
        t.find('e') == std::string_view::npos &&
        t.find('E') == std::string_view::npos) {
      return ValueKind::kInteger;
    }
    return ValueKind::kReal;
  }
  return ValueKind::kText;
}

std::optional<double> CellAsNumber(std::string_view raw) {
  std::string_view t = Trim(raw);
  if (IsMissingToken(t)) return std::nullopt;
  return ParseDouble(t);
}

}  // namespace saged
