#include "common/csv.h"

#include <cassert>
#include <charconv>
#include <fstream>

namespace bcn {
namespace {

bool needs_quoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

void append_cell(std::string& out, const std::string& cell) {
  if (!needs_quoting(cell)) {
    out += cell;
    return;
  }
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void CsvWriter::add_row(std::initializer_list<double> values) {
  add_row(std::vector<double>(values));
}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(format(v));
  add_row(std::move(cells));
}

std::string CsvWriter::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i != 0) out += ',';
    append_cell(out, header_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += ',';
      append_cell(out, row[i]);
    }
    out += '\n';
  }
  return out;
}

bool CsvWriter::write_file(const std::filesystem::path& path) const {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream out(path);
  if (!out) return false;
  out << to_string();
  return static_cast<bool>(out);
}

std::string CsvWriter::format(double v) {
  char buf[64];
  const auto [ptr, err] = std::to_chars(buf, buf + sizeof buf, v);
  if (err != std::errc()) return "nan";
  return std::string(buf, ptr);
}

}  // namespace bcn
