// Command-line flag parsing for the tools and benches: --name value and
// --name=value forms, strict typed lookups over the common/grammar.h
// scanners, the one flag-else-environment fallback, and unknown-flag
// detection.
//
// Error path: a value that is present but malformed or out of range
// throws UsageError, whose message names where the value came from
// ("--gi: 'abc' is not a finite decimal number", "BCN_THREADS: ...").
// Every main runs its body through run_cli, which catches it once,
// prints the message and exits kUsageExit before any work is done.
#pragma once

#include <climits>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace bcn {

// Exit code of a usage error: an unknown flag or a malformed value.
inline constexpr int kUsageExit = 2;

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One resolved input and its source: "--gi" for a flag, "BCN_THREADS"
// for an environment variable.  The conversions are strict: malformed or
// out-of-range text throws UsageError("<source>: <reason>").
struct InputValue {
  std::string text;
  std::string source;

  int count(int min = 0, int max = INT_MAX) const;

  // Runs a spec grammar (sim::parse_fault_plan, obs::parse_monitor_spec,
  // ...); a malformed spec throws with the grammar's `usage` appended.
  template <class T>
  T parse(std::optional<T> (*grammar)(const std::string&, std::string*),
          const char* usage) const {
    std::string error;
    auto parsed = grammar(text, &error);
    if (!parsed) fail(error + "\n" + usage);
    return std::move(*parsed);
  }

  [[noreturn]] void fail(const std::string& reason) const;
};

class ArgParser {
 public:
  // Parses argv; flags must start with "--".  A flag followed by another
  // flag (or nothing) is treated as boolean true.
  ArgParser(int argc, const char* const* argv);

  std::optional<std::string> get(const std::string& name) const;
  // The flag, else environment variable `env` when given, set and
  // non-empty; nullopt when neither supplies a value.
  std::optional<InputValue> lookup(const std::string& name,
                                   const char* env = nullptr) const;

  // Typed lookups: `fallback` when the flag is absent, otherwise the
  // strict conversion of its value (see InputValue).
  double get_double(const std::string& name, double fallback) const;
  int get_count(const std::string& name, int fallback, int min = 0,
                int max = INT_MAX) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  // Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }
  // Flags that were parsed, for unknown-flag checks.
  std::vector<std::string> flag_names() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

// Parses argv and runs `body`; a UsageError escaping it is printed to
// stderr and becomes exit code kUsageExit.  The one error path of every
// tool's and bench's main.
int run_cli(int argc, const char* const* argv,
            const std::function<int(const ArgParser&)>& body);

// Worker-count knob shared by every tool/bench: the --threads flag, with
// the BCN_THREADS environment variable as fallback when the flag is
// absent.  Returns `fallback` when neither is set.  The convention is
// 0 = all hardware threads, 1 = serial (see exec::resolve_threads).
int thread_count(const ArgParser& args, int fallback = 1);

// Flags that were passed but are not in `known` — callers reject these
// instead of silently ignoring a typo like --thread or --grd.
std::vector<std::string> unknown_flags(const ArgParser& args,
                                       const std::vector<std::string>& known);

// Convenience guard: prints "unknown flag --x (try --help)" to stderr for
// each unknown flag and returns false if any were found.
bool reject_unknown_flags(const ArgParser& args,
                          const std::vector<std::string>& known);

}  // namespace bcn
