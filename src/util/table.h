// Plain-text table rendering. corral_plan prints its plan table through
// TextTable, and bench::pct formats percentages with TextTable::pct; the
// figure benches print their rows with printf.
#ifndef CORRAL_UTIL_TABLE_H_
#define CORRAL_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace corral {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Adds a row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  void print(std::ostream& os) const;

  static std::string fmt(double value, int decimals = 2);
  static std::string pct(double fraction, int decimals = 1);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace corral

#endif  // CORRAL_UTIL_TABLE_H_
