#include "common/table.h"

#include <algorithm>
#include <cassert>

#include "common/format.h"

namespace bcn {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::add_row_numeric(const std::vector<double>& values,
                                   int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format(v, precision));
  add_row(std::move(cells));
}

std::string TablePrinter::format(double v, int precision) {
  std::string out;
  append_g(out, v, precision);
  return out;
}

std::string TablePrinter::to_string(const std::string& title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) line += "  ";
      line += row[i];
      line.append(widths[i] - row[i].size(), ' ');
    }
    // Trim trailing spaces.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };

  std::string out;
  if (!title.empty()) out += title + "\n";
  out += render_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += 2 * (widths.empty() ? 0 : widths.size() - 1);
  out += std::string(total, '-') + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace bcn
