// Fixed-width console table printer used by the benchmark harnesses to print
// paper-comparable summary rows.
#pragma once

#include <string>
#include <vector>

namespace bcn {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with `precision` significant digits.
  void add_row_numeric(const std::vector<double>& values, int precision = 6);

  // Renders with column-aligned cells, a header underline, and `title` on
  // its own line when non-empty.
  std::string to_string(const std::string& title = "") const;

  // printf's "%.<precision>g" text of v (1 <= precision <= 17).
  static std::string format(double v, int precision = 6);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bcn
