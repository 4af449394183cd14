#include "core/bcn_params.h"

#include <cmath>
#include <stdexcept>

#include "common/format.h"

namespace bcn::core {

double BcnParams::theorem1_required_buffer() const {
  return (1.0 + std::sqrt(a() / (b() * capacity))) * q0;
}

double BcnParams::warmup_duration() const {
  const double aggregate = num_sources * init_rate;
  if (aggregate >= capacity) return 0.0;
  return (capacity - aggregate) / (a() * q0);
}

std::vector<std::string> BcnParams::validate() const {
  std::vector<std::string> issues;
  auto require = [&](bool ok, const char* msg) {
    if (!ok) issues.emplace_back(msg);
  };
  require(num_sources > 0.0, "N (num_sources) must be positive");
  require(capacity > 0.0, "C (capacity) must be positive");
  require(q0 > 0.0, "q0 must be positive");
  require(buffer > q0, "buffer B must exceed the reference q0");
  require(qsc > q0, "severe-congestion threshold qsc must exceed q0");
  require(qsc <= buffer, "qsc must not exceed the buffer size");
  require(w > 0.0, "w must be positive");
  require(pm > 0.0 && pm <= 1.0, "pm must lie in (0, 1]");
  require(gi > 0.0, "Gi must be positive");
  require(gd > 0.0, "Gd must be positive");
  require(ru > 0.0, "Ru must be positive");
  require(init_rate >= 0.0, "initial rate must be non-negative");
  return issues;
}

void BcnParams::require_valid() const {
  // A real check, not an assert: registry callers hand caller configs
  // straight to the models, and NDEBUG builds drop asserts.
  const std::vector<std::string> violations = validate();
  if (!violations.empty()) throw std::invalid_argument(violations.front());
}

std::string BcnParams::describe() const {
  // "label%g" pieces, appended through the number writer.
  std::string out;
  out.reserve(320);
  const auto num = [&out](const char* label, double v) {
    out += label;
    append_g(out, v);
  };
  num("BCN params: N=", num_sources);
  num(" C=", capacity);
  num(" bits/s q0=", q0);
  num(" B=", buffer);
  num(" qsc=", qsc);
  num(" | w=", w);
  num(" pm=", pm);
  num(" | Gi=", gi);
  num(" Gd=", gd);
  num(" Ru=", ru);
  num(" | derived a=", a());
  num(" b=", b());
  num(" k=", k());
  num(" (4/k^2=", spiral_threshold());
  num(") | Theorem1 buffer=", theorem1_required_buffer());
  out += satisfies_theorem1() ? " (satisfied)" : " (violated)";
  return out;
}

BcnParams BcnParams::standard_draft() {
  BcnParams p;
  p.num_sources = 50.0;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 5e6;  // bandwidth-delay product for 0.5 us at 10 Gbps x margin
  p.qsc = 4.5e6;
  p.w = 2.0;
  p.pm = 0.01;
  p.gi = 4.0;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  p.init_rate = 0.0;
  return p;
}

}  // namespace bcn::core
