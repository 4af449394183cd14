// Dormand-Prince 5(4) embedded Runge-Kutta pair with FSAL and the classic
// Hairer dense-output interpolant.
//
// The dense output is what makes precise switching-surface localization
// possible in the hybrid integrator: after an accepted macro-step we can
// evaluate the solution at any interior point to ~4th-order accuracy and
// bisect the guard function there, instead of shrinking integration steps.
//
// The trial step, step-size controller and initial-step heuristic are
// inline templates over the right-hand side, so the hybrid driver
// (ode/hybrid_driver.h) inlines each fluid law's vector field
// (core/fluid_laws.h) into them; the Dopri5 class runs the same bodies
// over a std::function for the smooth drivers (ode/integrate.h).
//
// The trial step is also a template over its lane values: one orbit's
// doubles, or two orbits' packed side by side in a 2-wide vector
// (LanePair), which the paired hybrid driver steps in lockstep.  Both
// run the same tableau in the same operation order, so each lane of a
// packed step carries the bits of its own scalar step.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "ode/system.h"

namespace bcn::ode {

// Two orbits' values side by side: a GCC vector of two doubles, which
// SSE2 (baseline x86-64) holds in one register.
using LanePair = double __attribute__((vector_size(16)));

// Two orbits' planar states, lane i holding orbit i: the packed Vec2.
struct Vec2Pair {
  LanePair x;
  LanePair y;

  friend Vec2Pair operator+(Vec2Pair a, Vec2Pair b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend Vec2Pair operator-(Vec2Pair a, Vec2Pair b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend Vec2Pair operator*(LanePair s, Vec2Pair v) {
    return {s * v.x, s * v.y};
  }
  friend Vec2Pair operator*(double s, Vec2Pair v) {
    return {s * v.x, s * v.y};
  }

  static Vec2Pair of(Vec2 a, Vec2 b) {
    return {LanePair{a.x, b.x}, LanePair{a.y, b.y}};
  }
  Vec2 lane(int i) const { return {x[i], y[i]}; }
};

// The scalar functions the trial step's error norm needs, lane by lane:
// std::abs, std::max (NaN rule included) and std::sqrt.
inline double lane_abs(double v) { return std::abs(v); }
inline double lane_max(double a, double b) { return std::max(a, b); }
inline double lane_sqrt(double v) { return std::sqrt(v); }
inline LanePair lane_abs(LanePair v) {
  using Bits = std::int64_t __attribute__((vector_size(16)));
  return LanePair(Bits(v) & INT64_MAX);  // clears the sign bit, as std::abs
}
// std::max(a, b) is (a < b) ? b : a, which keeps a when either is NaN.
inline LanePair lane_max(LanePair a, LanePair b) { return a < b ? b : a; }
inline LanePair lane_sqrt(LanePair v) {
  return LanePair{std::sqrt(v[0]), std::sqrt(v[1])};
}

// One accepted-or-rejected trial step of DOPRI5, over state S and lane
// values V.
template <class S, class V>
struct Dopri5Trial {
  S z_new;            // 5th-order solution at t + h
  S k_last;           // f(t + h, z_new): FSAL stage, reusable as next k1
  V error{};          // scaled error-norm estimate (<= 1 means acceptable)
  // Dense-output coefficients for this step (valid only if the step is
  // accepted); see DenseOutput.
  std::array<S, 5> rcont;
};

// One orbit's trial step.
using Dopri5Step = Dopri5Trial<Vec2, double>;
// Two orbits' trial steps, packed.
using Dopri5StepPair = Dopri5Trial<Vec2Pair, LanePair>;

// Lane i of a packed trial step: the step its orbit alone would take.
inline Dopri5Step lane_step(const Dopri5StepPair& pair, int i) {
  Dopri5Step out;
  out.z_new = pair.z_new.lane(i);
  out.k_last = pair.k_last.lane(i);
  out.error = pair.error[i];
  for (std::size_t j = 0; j < out.rcont.size(); ++j) {
    out.rcont[j] = pair.rcont[j].lane(i);
  }
  return out;
}

// Continuous extension of one accepted DOPRI5 step over [t0, t0 + h].
class DenseOutput {
 public:
  DenseOutput() = default;
  DenseOutput(double t0, double h, const std::array<Vec2, 5>& rcont)
      : t0_(t0), h_(h), rcont_(rcont) {}

  // Solution at time t in [t0, t0 + h] (clamped).
  Vec2 eval(double t) const {
    double theta = h_ != 0.0 ? (t - t0_) / h_ : 0.0;
    theta = std::clamp(theta, 0.0, 1.0);
    const double theta1 = 1.0 - theta;
    // u(theta) = r0 + theta*(r1 + theta1*(r2 + theta*(r3 + theta1*r4)))
    return rcont_[0] +
           theta * (rcont_[1] +
                    theta1 * (rcont_[2] +
                              theta * (rcont_[3] + theta1 * rcont_[4])));
  }

  double t0() const { return t0_; }
  double t1() const { return t0_ + h_; }

 private:
  double t0_ = 0.0;
  double h_ = 0.0;
  std::array<Vec2, 5> rcont_{};
};

// Error-control tolerances for the adaptive driver.
struct Tolerances {
  double abs_tol = 1e-9;
  double rel_tol = 1e-9;
};

namespace dopri5_tableau {

// Dormand-Prince 5(4) Butcher tableau.
inline constexpr double c2 = 1.0 / 5.0, c3 = 3.0 / 10.0, c4 = 4.0 / 5.0,
                        c5 = 8.0 / 9.0;
inline constexpr double a21 = 1.0 / 5.0;
inline constexpr double a31 = 3.0 / 40.0, a32 = 9.0 / 40.0;
inline constexpr double a41 = 44.0 / 45.0, a42 = -56.0 / 15.0,
                        a43 = 32.0 / 9.0;
inline constexpr double a51 = 19372.0 / 6561.0, a52 = -25360.0 / 2187.0,
                        a53 = 64448.0 / 6561.0, a54 = -212.0 / 729.0;
inline constexpr double a61 = 9017.0 / 3168.0, a62 = -355.0 / 33.0,
                        a63 = 46732.0 / 5247.0, a64 = 49.0 / 176.0,
                        a65 = -5103.0 / 18656.0;
inline constexpr double a71 = 35.0 / 384.0, a73 = 500.0 / 1113.0,
                        a74 = 125.0 / 192.0, a75 = -2187.0 / 6784.0,
                        a76 = 11.0 / 84.0;
// e = b5 - b4: error-estimate weights.
inline constexpr double e1 = 71.0 / 57600.0, e3 = -71.0 / 16695.0,
                        e4 = 71.0 / 1920.0, e5 = -17253.0 / 339200.0,
                        e6 = 22.0 / 525.0, e7 = -1.0 / 40.0;
// Dense-output weights (Hairer, Nørsett & Wanner, DOPRI5 rcont5).
inline constexpr double d1 = -12715105075.0 / 11282082432.0;
inline constexpr double d3 = 87487479700.0 / 32700410799.0;
inline constexpr double d4 = -10690763975.0 / 1880347072.0;
inline constexpr double d5 = 701980252875.0 / 199316789632.0;
inline constexpr double d6 = -1453857185.0 / 822651844.0;
inline constexpr double d7 = 69997945.0 / 29380423.0;

}  // namespace dopri5_tableau

// Performs one trial step of size h from (t, z) of z' = f(t, z), with
// error weights abs_tol + rel_tol |z|: one orbit's for S = Vec2 and
// V = double, two orbits' for Vec2Pair and LanePair.  `k1` must be
// f(t, z) (f(t, z) itself for the first step, then the previous step's
// k_last thanks to FSAL).
template <class F, class S, class V>
Dopri5Trial<S, V> dopri5_trial(const F& f, V abs_tol, V rel_tol, V t, S z,
                               S k1, V h) {
  using namespace dopri5_tableau;
  const S k2 = f(t + c2 * h, z + h * (a21 * k1));
  const S k3 = f(t + c3 * h, z + h * (a31 * k1 + a32 * k2));
  const S k4 = f(t + c4 * h, z + h * (a41 * k1 + a42 * k2 + a43 * k3));
  const S k5 =
      f(t + c5 * h, z + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4));
  const S k6 = f(
      t + h, z + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5));
  const S z_new =
      z + h * (a71 * k1 + a73 * k3 + a74 * k4 + a75 * k5 + a76 * k6);
  const S k7 = f(t + h, z_new);

  const S err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 +
                     e7 * k7);
  const auto scaled = [&](V e, V a, V b) {
    const V sk = abs_tol + rel_tol * lane_max(lane_abs(a), lane_abs(b));
    return e / sk;
  };
  const V ex = scaled(err.x, z.x, z_new.x);
  const V ey = scaled(err.y, z.y, z_new.y);

  Dopri5Trial<S, V> out;
  out.z_new = z_new;
  out.k_last = k7;
  out.error = lane_sqrt((ex * ex + ey * ey) / 2.0);

  const S dy = z_new - z;
  const S bspl = h * k1 - dy;
  out.rcont[0] = z;
  out.rcont[1] = dy;
  out.rcont[2] = bspl;
  out.rcont[3] = dy - h * k7 - bspl;
  out.rcont[4] =
      h * (d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * k7);
  return out;
}

// One orbit's trial step under `tol`.
template <class F>
Dopri5Step dopri5_trial_step(const F& f, const Tolerances& tol, double t,
                             Vec2 z, Vec2 k1, double h) {
  return dopri5_trial(f, tol.abs_tol, tol.rel_tol, t, z, k1, h);
}

// Step-size controller: next step size after a step with `error` (the
// scaled norm from Dopri5Step) and size h.  Standard PI-free controller
// with safety factor and growth clamps.
inline double dopri5_next_step_size(double h, double error) {
  constexpr double safety = 0.9;
  constexpr double min_factor = 0.2;
  constexpr double max_factor = 5.0;
  double factor;
  if (error <= 1e-30) {
    factor = max_factor;
  } else {
    factor = safety * std::pow(error, -0.2);
    factor = std::clamp(factor, min_factor, max_factor);
  }
  return h * factor;
}

// Initial step-size heuristic (Hairer's algorithm, simplified).
template <class F>
double dopri5_initial_step_size(const F& f, double t0, Vec2 z0) {
  const Vec2 f0 = f(t0, z0);
  const double d0 = z0.norm();
  const double d1n = f0.norm();
  double h0 = (d0 < 1e-5 || d1n < 1e-5) ? 1e-6 : 0.01 * (d0 / d1n);
  // One Euler probe to estimate the second derivative scale.
  const Vec2 z1 = z0 + h0 * f0;
  const Vec2 f1 = f(t0 + h0, z1);
  const double d2 = (f1 - f0).norm() / h0;
  const double scale = std::max(d1n, d2);
  double h1 = (scale <= 1e-15)
                  ? std::max(1e-6, h0 * 1e-3)
                  : std::pow(0.01 / scale, 1.0 / 5.0);
  return std::min(100.0 * h0, h1);
}

// DOPRI5 over a type-erased right-hand side: the smooth-system driver's
// stepper (ode/integrate.h).
class Dopri5 {
 public:
  explicit Dopri5(Rhs f, Tolerances tol = {})
      : f_(std::move(f)), tol_(tol) {}

  Dopri5Step trial_step(double t, Vec2 z, Vec2 k1, double h) const {
    return dopri5_trial_step(f_, tol_, t, z, k1, h);
  }

  Vec2 compute_k1(double t, Vec2 z) const { return f_(t, z); }

  double next_step_size(double h, double error) const {
    return dopri5_next_step_size(h, error);
  }

  double initial_step_size(double t0, Vec2 z0) const {
    return dopri5_initial_step_size(f_, t0, z0);
  }

 private:
  Rhs f_;
  Tolerances tol_;
};

}  // namespace bcn::ode
