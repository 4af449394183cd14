#include "common/args.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/grammar.h"

namespace bcn {
namespace {

// The scanned value, or a UsageError naming where `in` came from.
template <class T>
T scanned(const InputValue& in, const std::optional<T>& value,
          const std::string& error) {
  if (!value) in.fail(error);
  return *value;
}

}  // namespace

int InputValue::count(int min, int max) const {
  std::string error;
  const auto value = scanned(*this, scan_count(text, max, &error), error);
  if (value < static_cast<std::uint64_t>(min)) {
    fail("'" + text + "' is below the minimum " + std::to_string(min));
  }
  return static_cast<int>(value);
}

void InputValue::fail(const std::string& reason) const {
  throw UsageError(source + ": " + reason);
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--flag value" unless the next token is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::optional<InputValue> ArgParser::lookup(const std::string& name,
                                           const char* env) const {
  if (const auto v = get(name)) return InputValue{*v, "--" + name};
  if (env != nullptr) {
    const char* value = std::getenv(env);
    if (value != nullptr && *value != '\0') return InputValue{value, env};
  }
  return std::nullopt;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = lookup(name);
  std::string error;
  return v ? scanned(*v, scan_number(v->text, &error), error) : fallback;
}

int ArgParser::get_count(const std::string& name, int fallback, int min,
                         int max) const {
  const auto v = lookup(name);
  return v ? v->count(min, max) : fallback;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto v = lookup(name);
  std::string error;
  return v ? scanned(*v, scan_bool(v->text, &error), error) : fallback;
}

std::vector<std::string> ArgParser::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
}

int thread_count(const ArgParser& args, int fallback) {
  const auto v = args.lookup("threads", "BCN_THREADS");
  return v ? v->count() : fallback;
}

int run_cli(int argc, const char* const* argv,
            const std::function<int(const ArgParser&)>& body) {
  try {
    return body(ArgParser(argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kUsageExit;
  }
}

std::vector<std::string> unknown_flags(const ArgParser& args,
                                       const std::vector<std::string>& known) {
  std::vector<std::string> unknown;
  for (const auto& name : args.flag_names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

bool reject_unknown_flags(const ArgParser& args,
                          const std::vector<std::string>& known) {
  const auto unknown = unknown_flags(args, known);
  for (const auto& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s (try --help)\n", name.c_str());
  }
  return unknown.empty();
}

}  // namespace bcn
