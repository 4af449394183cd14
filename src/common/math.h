// Small numeric helpers shared across the library.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <optional>

namespace bcn {

// A point in the (x, y) phase plane; also used as a generic 2-vector.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Vec2 operator*(double s, Vec2 v) { return {s * v.x, s * v.y}; }
  friend Vec2 operator*(Vec2 v, double s) { return s * v; }
  friend bool operator==(const Vec2&, const Vec2&) = default;

  double norm() const { return std::hypot(x, y); }
};

// Sign of v as -1, 0 or +1.
inline int sign(double v) { return (v > 0.0) - (v < 0.0); }

// True when |a - b| <= atol + rtol * max(|a|, |b|).
bool approx_equal(double a, double b, double rtol = 1e-9, double atol = 1e-12);

// Relative error |measured - expected| / max(|expected|, floor).
double relative_error(double measured, double expected, double floor = 1e-30);

// Roots of x^2 + m x + n = 0, always returned as a complex pair with
// real roots ordered so that real(first) <= real(second).
std::array<std::complex<double>, 2> solve_monic_quadratic(double m, double n);

// Bisection root refinement of a continuous scalar function f on [lo, hi]
// where f(lo) and f(hi) have opposite (non-zero) signs.  Returns the root
// located to within xtol.  Returns nullopt when the bracket is invalid.
// When `iterations` is non-null it receives the number of interval
// halvings performed (0 when an endpoint already is the root).  A
// template, so the hybrid driver's event location inlines its guard.
template <class F>
std::optional<double> bisect(const F& f, double lo, double hi,
                             double xtol = 1e-12, int max_iter = 200,
                             int* iterations = nullptr) {
  if (iterations) *iterations = 0;
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if (sign(flo) == sign(fhi) || lo > hi) return std::nullopt;
  for (int i = 0; i < max_iter && (hi - lo) > xtol; ++i) {
    const double mid = lo + (hi - lo) / 2.0;
    const double fmid = f(mid);
    if (iterations) *iterations = i + 1;
    if (fmid == 0.0) return mid;
    if (sign(fmid) == sign(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
      fhi = fmid;
    }
  }
  return lo + (hi - lo) / 2.0;
}

// Linear interpolation: value at fraction u in [0,1] between a and b.
inline double lerp(double a, double b, double u) { return a + (b - a) * u; }

// Wrap an angle into [0, 2*pi).
double wrap_angle(double theta);

}  // namespace bcn
