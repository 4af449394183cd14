#include "common/math.h"

#include <algorithm>
#include <numbers>

namespace bcn {

bool approx_equal(double a, double b, double rtol, double atol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= atol + rtol * scale;
}

double relative_error(double measured, double expected, double floor) {
  const double denom = std::max(std::abs(expected), floor);
  return std::abs(measured - expected) / denom;
}

std::array<std::complex<double>, 2> solve_monic_quadratic(double m, double n) {
  const double disc = m * m - 4.0 * n;
  if (disc >= 0.0) {
    const double s = std::sqrt(disc);
    // Use the numerically stable form: compute the larger-magnitude root
    // first, derive the other from the product of roots (= n).
    double r1;
    if (m >= 0.0) {
      r1 = (-m - s) / 2.0;
    } else {
      r1 = (-m + s) / 2.0;
    }
    double r2 = (r1 != 0.0) ? n / r1 : (-m - r1);
    if (r1 > r2) std::swap(r1, r2);
    return {std::complex<double>(r1, 0.0), std::complex<double>(r2, 0.0)};
  }
  const double re = -m / 2.0;
  const double im = std::sqrt(-disc) / 2.0;
  return {std::complex<double>(re, -im), std::complex<double>(re, im)};
}

double wrap_angle(double theta) {
  constexpr double two_pi = 2.0 * std::numbers::pi;
  double w = std::fmod(theta, two_pi);
  if (w < 0.0) w += two_pi;
  return w;
}

}  // namespace bcn
