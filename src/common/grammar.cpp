#include "common/grammar.h"

#include <charconv>
#include <cmath>
#include <utility>

namespace bcn {
namespace {

constexpr double kSecondsPerUnit[] = {1e-9, 1e-6, 1e-3, 1.0};
constexpr double kNsPerUnit[] = {1.0, 1e3, 1e6, 1e9};

std::nullopt_t reject(std::string* error, std::string_view text,
                      const std::string& why) {
  if (error) *error = "'" + std::string(text) + "' " + why;
  return std::nullopt;
}

}  // namespace

std::optional<double> scan_number(std::string_view text, std::string* error) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  // from_chars' general format is exactly the grammar minus nan/inf: no
  // '+', no hex, no whitespace, and overflow is an error.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return reject(error, text, "is not a finite decimal number");
  }
  return value;
}

std::optional<std::uint64_t> scan_count(std::string_view text,
                                        std::uint64_t max,
                                        std::string* error) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return reject(error, text, "is not a count (digits only)");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    return reject(error, text, "exceeds the maximum " + std::to_string(max));
  }
  return value;
}

std::optional<bool> scan_bool(std::string_view text, std::string* error) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return reject(error, text,
                "is not a boolean (true|false|1|0|yes|no|on|off)");
}

double Duration::seconds() const {
  return value * kSecondsPerUnit[static_cast<int>(unit)];
}

std::int64_t Duration::nanoseconds() const {
  return std::llround(value * kNsPerUnit[static_cast<int>(unit)]);
}

std::optional<Duration> scan_duration(std::string_view text,
                                      std::string* error) {
  static constexpr std::pair<std::string_view, Duration::Unit> kUnits[] = {
      {"ns", Duration::Unit::Ns},
      {"us", Duration::Unit::Us},
      {"ms", Duration::Unit::Ms},
      {"s", Duration::Unit::S}};
  for (const auto& [suffix, unit] : kUnits) {
    if (!text.ends_with(suffix)) continue;
    const auto value = scan_number(text.substr(0, text.size() - suffix.size()));
    if (!value) break;
    if (*value < 0.0) return reject(error, text, "is a negative duration");
    if (!(*value * kNsPerUnit[static_cast<int>(unit)] < 0x1p63)) {
      return reject(error, text, "exceeds the simulated clock (2^63 ns)");
    }
    return Duration{*value, unit};
  }
  return reject(error, text,
                "is not a duration (a number followed by ns|us|ms|s)");
}

}  // namespace bcn
