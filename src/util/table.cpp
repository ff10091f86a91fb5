#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace corral {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  require(!header_.empty(), "TextTable: header must be non-empty");
}

void TextTable::add_row(std::vector<std::string> cells) {
  require(cells.size() == header_.size(),
          "TextTable: row width must match header");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << std::left << row[c];
    }
    os << " |\n";
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(width[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit(row);
}

std::string TextTable::fmt(double value, int decimals) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(decimals) << value;
  return ss.str();
}

std::string TextTable::pct(double fraction, int decimals) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(decimals) << fraction * 100.0 << "%";
  return ss.str();
}

}  // namespace corral
