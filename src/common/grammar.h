// The one input grammar: every command-line flag, environment variable
// and spec field (--faults, --monitors, --topology) scans its numbers
// with these functions.
//
//   number   := a finite decimal literal: optional '-', digits with an
//               optional fraction and exponent ("10e9", "0.0078125",
//               "-5", "2.5e6").  No nan/inf, hex, '+' sign, spaces,
//               trailing characters or overflow.
//   count    := decimal digits only, bounded by the field's maximum.
//   duration := a non-negative number followed by ns | us | ms | s.
//   boolean  := true | 1 | yes | on | false | 0 | no | off.
//
// Each scanner takes the whole text.  On a mismatch it returns nullopt
// and, when `error` is non-null, a one-line reason quoting the text;
// the caller prefixes the flag, variable or spec field it came from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bcn {

std::optional<double> scan_number(std::string_view text,
                                  std::string* error = nullptr);

std::optional<std::uint64_t> scan_count(std::string_view text,
                                        std::uint64_t max,
                                        std::string* error = nullptr);

std::optional<bool> scan_bool(std::string_view text,
                              std::string* error = nullptr);

// A duration as written: the number and its unit, so each reading below
// is the single product the spec grammars have always computed.
struct Duration {
  enum class Unit { Ns, Us, Ms, S };
  double value = 0.0;
  Unit unit = Unit::S;

  double seconds() const;            // value * 1e-9 | 1e-6 | 1e-3 | 1
  std::int64_t nanoseconds() const;  // llround(value * 1 | 1e3 | 1e6 | 1e9)
};

// Also rejects durations of 2^63 ns or more: past the simulated clock.
std::optional<Duration> scan_duration(std::string_view text,
                                      std::string* error = nullptr);

}  // namespace bcn
