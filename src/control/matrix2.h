// 2x2 real matrices and the exact matrix exponential, used as an
// independent validation path for the closed-form solutions: the linear
// phase-plane system z' = M z with M = [[0, 1], [-n, -m]] is solved both
// by LinearSolution (the paper's H/F/L formulas) and by z(t) = e^{M t} z0
// (Cayley-Hamilton); the test suite checks the two agree for every regime.
#pragma once

#include "common/math.h"

namespace bcn::control {

struct Mat2 {
  // Row-major [[a, b], [c, d]].
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;

  static Mat2 identity() { return {1.0, 0.0, 0.0, 1.0}; }

  double trace() const { return a + d; }
  double det() const { return a * d - b * c; }

  Vec2 apply(Vec2 v) const { return {a * v.x + b * v.y, c * v.x + d * v.y}; }

  friend Mat2 operator*(const Mat2& x, const Mat2& y) {
    return {x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
            x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
  }
  friend Mat2 operator+(const Mat2& x, const Mat2& y) {
    return {x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d};
  }
  friend Mat2 operator*(double s, const Mat2& m) {
    return {s * m.a, s * m.b, s * m.c, s * m.d};
  }
};

// The companion matrix of lambda^2 + m lambda + n: [[0, 1], [-n, -m]].
// Oracle for LinearSolution (closed_form.h); no production caller.
Mat2 companion(double m, double n);

// Exact e^{M t} by Cayley-Hamilton: with mu = tr/2 and
// delta = mu^2 - det,
//   e^{Mt} = e^{mu t} [ f(t) I + g(t) (M - mu I) ]
// where (f, g) = (cosh, sinh/s)(s t) for delta = s^2 > 0,
//                (cos, sin/s)(s t)  for delta = -s^2 < 0,
//                (1, t)             for delta = 0.
// Oracle for LinearSolution (closed_form.h); no production caller.
Mat2 expm(const Mat2& m, double t);

}  // namespace bcn::control
