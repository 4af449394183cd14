#include "core/poincare.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/math.h"
#include "exec/parallel_for.h"
#include "obs/tracing.h"

namespace bcn::core {
namespace {

// One return-time scale: a couple of subsystem rotation periods.
double estimate_cycle_time(const BcnParams& p) {
  const double wi = std::sqrt(p.a());
  const double wd = std::sqrt(p.b() * p.capacity);
  return 4.0 * std::numbers::pi * (1.0 / wi + 1.0 / wd);
}

}  // namespace

PoincareMap::PoincareMap(FluidModel model, PoincareOptions options)
    : model_(std::move(model)), options_(options) {
  const double k = model_.plant().k();
  const double norm = std::hypot(k, 1.0);
  ux_ = -k / norm;
  uy_ = 1.0 / norm;
}

Vec2 PoincareMap::section_point(double s) const {
  return {s * ux_, s * uy_};
}

double PoincareMap::parameter_of(Vec2 z) const {
  // Projection onto the ray direction (the point is on the line up to the
  // event-localization tolerance).
  return z.x * ux_ + z.y * uy_;
}

std::optional<double> PoincareMap::map(double s) const {
  if (s <= 0.0) return std::nullopt;
  // One span per return-map iteration; each wraps the chunked hybrid
  // integrations below it.
  obs::TraceSpan span("core.poincare_map", "s", s);
  // Start nudged off the section into the decrease region (x + k y > 0).
  const double k = model_.plant().k();
  const double norm = std::hypot(k, 1.0);
  const double delta = 1e-9 * s;
  Vec2 z = section_point(s);
  z.x += delta / norm;
  z.y += delta * k / norm;

  const double chunk = estimate_cycle_time(model_.plant());
  double t = 0.0;
  bool seen_increase = false;
  while (t < options_.max_time) {
    ode::HybridOptions hopts;
    hopts.tol = options_.tol;
    const double t_end = std::min(options_.max_time, t + chunk);
    ode::RecordingSink res;
    const ode::HybridStats stats = model_.integrate(t, z, t_end, hopts, res);
    for (const auto& sw : res.switches) {
      if (sw.to_mode == kModeIncrease) seen_increase = true;
      if (seen_increase && sw.from_mode == kModeIncrease &&
          sw.to_mode == kModeDecrease) {
        return parameter_of(sw.z);
      }
    }
    if (!stats.completed || res.trajectory.empty()) return std::nullopt;
    t = res.trajectory.back().t;
    z = res.trajectory.back().z;
    // Converged into the origin: no return.
    if (std::abs(z.x) / model_.plant().q0 +
            std::abs(z.y) / model_.plant().capacity <
        1e-9) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<double> PoincareMap::ratio(double s) const {
  const auto p = map(s);
  if (!p || s <= 0.0) return std::nullopt;
  return *p / s;
}

std::optional<LimitCycle> find_limit_cycle(const FluidModel& model,
                                           const CycleSearchOptions& options) {
  obs::TraceSpan span("core.cycle_search");
  const BcnParams& p = model.plant();
  const PoincareMap pmap(model, options.poincare);
  const double s_lo =
      options.s_lo > 0.0 ? options.s_lo : 1e-3 * p.capacity;
  const double s_hi = options.s_hi > 0.0 ? options.s_hi : 50.0 * p.capacity;

  auto displacement = [&](double s) -> double {
    const auto r = pmap.map(s);
    return r ? *r - s : -s;
  };

  // Geometric scan for a sign change of P(s) - s.  Every sample is an
  // independent hybrid integration, so the scan evaluates them in
  // parallel; the serial bracket walk below then sees the same values in
  // the same order whatever the thread count.
  const int n = std::max(2, options.bracket_samples);
  std::vector<double> sample_s(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = static_cast<double>(i) / (n - 1);
    sample_s[static_cast<std::size_t>(i)] =
        i == 0 ? s_lo : s_lo * std::pow(s_hi / s_lo, u);
  }
  exec::ParallelForOptions popts;
  popts.threads = options.threads;
  const std::vector<double> sample_d = exec::parallel_map<double>(
      sample_s.size(),
      [&](std::size_t i) { return displacement(sample_s[i]); }, popts);

  double prev_s = sample_s[0];
  double prev_d = sample_d[0];
  for (int i = 1; i < n; ++i) {
    const double s = sample_s[static_cast<std::size_t>(i)];
    const double d = sample_d[static_cast<std::size_t>(i)];
    if (sign(prev_d) != sign(d) && prev_d != 0.0) {
      const auto fixed =
          bisect(displacement, prev_s, s, 1e-9 * s_hi, 80);
      if (fixed) {
        LimitCycle cycle;
        cycle.amplitude = *fixed;
        // Measure the period and orbit extremes with one more return.
        const double k = p.k();
        const double norm = std::hypot(k, 1.0);
        Vec2 z = pmap.section_point(*fixed);
        z.x += 1e-9 * *fixed / norm;
        z.y += 1e-9 * *fixed * k / norm;
        ode::HybridOptions hopts;
        hopts.tol = options.poincare.tol;
        ode::RecordingSink res;
        model.integrate(0.0, z, options.poincare.max_time, hopts, res);
        bool seen_increase = false;
        for (const auto& sw : res.switches) {
          if (sw.to_mode == kModeIncrease) seen_increase = true;
          if (seen_increase && sw.from_mode == kModeIncrease &&
              sw.to_mode == kModeDecrease) {
            cycle.period = sw.t;
            break;
          }
        }
        if (!res.trajectory.empty()) {
          cycle.max_x = res.trajectory.max_component(0);
          cycle.min_x = res.trajectory.min_component(0);
        }
        if (cycle.period > 0.0) return cycle;
      }
    }
    prev_s = s;
    prev_d = d;
  }
  return std::nullopt;
}

std::vector<std::optional<double>> scan_contraction_ratios(
    const PoincareMap& map, const std::vector<double>& amplitudes,
    int threads) {
  exec::ParallelForOptions opts;
  opts.threads = threads;
  return exec::parallel_map<std::optional<double>>(
      amplitudes.size(), [&](std::size_t i) { return map.ratio(amplitudes[i]); },
      opts);
}

}  // namespace bcn::core
