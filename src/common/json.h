// Minimal flat JSON-object writer for machine-readable bench/runner
// artifacts (RUN_*.json, BENCH_*.json).  Keys keep insertion order;
// doubles are emitted with round-trip precision; strings are escaped per
// RFC 8259.  Deliberately not a general JSON library — nothing in the
// tree needs nesting beyond one object of scalars and flat arrays.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bcn {

class JsonWriter {
 public:
  void add(const std::string& key, const std::string& value);
  void add(const std::string& key, const char* value);
  void add(const std::string& key, double value);
  void add(const std::string& key, std::int64_t value);
  void add(const std::string& key, int value);
  void add(const std::string& key, bool value);
  // Array of numbers, e.g. per-run wall clocks.
  void add(const std::string& key, const std::vector<double>& values);

  std::size_t size() const { return size_; }

  // One pretty-printed object, one "key": value per line.
  std::string to_string() const;

  // The same object on a single line (no trailing newline) — the wire
  // form of the newline-delimited service protocol (docs/SERVICE.md).
  std::string to_line() const;

  // Writes to `path`, creating parent directories as needed; false on I/O
  // failure.
  bool write_file(const std::filesystem::path& path) const;

  // JSON string literal (with quotes) for `s`.
  static std::string quote(const std::string& s);
  // Round-trip double formatting; inf/nan become null (JSON has neither).
  static std::string format(double v);

 private:
  // Appends the separator and "key": of a new field.
  void begin_field(const std::string& key);
  static void append_quoted(std::string& out, std::string_view s);
  static void append_number(std::string& out, double v);

  // The fields in wire form: "key":raw pairs joined by ','.
  std::string members_;
  std::size_t size_ = 0;
};

// Reader for the flat artifact objects JsonWriter produces (RUN_*.json,
// BENCH_*.json): one object of scalar values, plus flat number arrays.
// Numbers, booleans (0/1) and null (NaN) land in `numbers`; strings in
// `strings`; arrays in `arrays`.  Not a general JSON parser — nested
// objects are rejected, which is fine for everything this tree writes
// except the Chrome trace (which has its own validator in tests).
class FlatJson {
 public:
  // Parses `text`; nullopt on malformed input.
  static std::optional<FlatJson> parse(const std::string& text);
  // Reads and parses a file; nullopt on I/O or parse failure.
  static std::optional<FlatJson> load(const std::filesystem::path& path);

  const std::map<std::string, double>& numbers() const { return numbers_; }
  const std::map<std::string, std::string>& strings() const {
    return strings_;
  }
  const std::map<std::string, std::vector<double>>& arrays() const {
    return arrays_;
  }

  std::optional<double> number(const std::string& key) const;
  std::optional<std::string> string_value(const std::string& key) const;

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::string> strings_;
  std::map<std::string, std::vector<double>> arrays_;
};

}  // namespace bcn
