// CSV reader for tests: the inverse of CsvWriter, the oracle that its
// quoting and its files round-trip.  Quoting rules match CsvWriter's
// output.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

namespace bcn::testing {

struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  // Column index by name; -1 when absent.
  int column(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  // Numeric cell access; returns fallback for missing/unparsable cells.
  double value(std::size_t row, int col, double fallback = 0.0) const {
    if (col < 0 || row >= rows.size()) return fallback;
    const auto& cells = rows[row];
    if (static_cast<std::size_t>(col) >= cells.size()) return fallback;
    const std::string& cell = cells[static_cast<std::size_t>(col)];
    char* end = nullptr;
    const double parsed = std::strtod(cell.c_str(), &end);
    return (end && *end == '\0' && end != cell.c_str()) ? parsed : fallback;
  }
};

// Parses CSV text (first line = header).  Handles quoted cells with
// embedded commas, quotes and newlines.
inline CsvTable parse_csv(const std::string& text) {
  CsvTable table;
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  bool row_started = false;

  auto end_cell = [&] {
    cells.push_back(std::move(cell));
    cell.clear();
  };
  auto end_row = [&] {
    if (!row_started && cells.empty()) return;
    end_cell();
    if (table.header.empty()) {
      table.header = std::move(cells);
    } else {
      table.rows.push_back(std::move(cells));
    }
    cells.clear();
    row_started = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;  // escaped quote
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"': in_quotes = true; row_started = true; break;
      case ',': end_cell(); row_started = true; break;
      case '\r': break;
      case '\n': end_row(); break;
      default: cell += c; row_started = true;
    }
  }
  if (row_started || !cell.empty() || !cells.empty()) end_row();
  return table;
}

// Reads and parses a CSV file; nullopt on I/O failure.
inline std::optional<CsvTable> read_csv_file(
    const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return parse_csv(all);
}

// What `source.write_csv` puts on disk, read back; `name` keeps the files
// of tests that run side by side apart.
template <class Source>
CsvTable written_csv(const Source& source, const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / (name + ".csv");
  if (!source.write_csv(path)) return {};
  std::optional<CsvTable> table = read_csv_file(path);
  std::filesystem::remove(path);
  return table.value_or(CsvTable{});
}

}  // namespace bcn::testing
