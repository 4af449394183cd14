// Minimal CSV writing for benchmark/analysis output.
#pragma once

#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

namespace bcn {

// Accumulates rows of mixed string/double cells and writes RFC-4180-ish CSV.
// Cells containing commas, quotes or newlines are quoted.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  // Appends one row.  The number of cells must equal the header width.
  void add_row(std::vector<std::string> cells);
  void add_row(std::initializer_list<double> values);
  void add_row(const std::vector<double>& values);

  std::size_t row_count() const { return rows_.size(); }
  std::size_t column_count() const { return header_.size(); }

  // Serializes header + rows.
  std::string to_string() const;

  // Writes to `path`, creating parent directories as needed.
  // Returns false (and leaves no partial file behind) on I/O failure.
  bool write_file(const std::filesystem::path& path) const;

  // Formats a double with enough digits to round-trip.
  static std::string format(double v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bcn
