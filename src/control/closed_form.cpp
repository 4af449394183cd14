#include "control/closed_form.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace bcn::control {
namespace {

constexpr double kPi = std::numbers::pi;

// Strict-after tolerance: events exactly at `after` are not returned.
double after_tolerance(double after) {
  return 1e-12 * std::max(1.0, std::abs(after));
}

}  // namespace

std::string to_string(SolutionKind kind) {
  switch (kind) {
    case SolutionKind::Spiral: return "spiral (H)";
    case SolutionKind::Node: return "node (F)";
    case SolutionKind::Degenerate: return "degenerate (L)";
  }
  return "?";
}

LinearFlow::LinearFlow(const SecondOrderSystem& system) {
  assert(system.n() > 0.0 &&
         "closed forms require n > 0 (no saddle/zero root)");
  const double m = system.m();
  const double disc = system.discriminant();
  if (disc < 0.0) {
    kind_ = SolutionKind::Spiral;
    alpha_ = -m / 2.0;
    beta_ = std::sqrt(-disc) / 2.0;
    theta_ = std::atan(alpha_ / beta_);
  } else if (disc > 0.0) {
    kind_ = SolutionKind::Node;
    const auto eig = system.eigenvalues();
    lambda1_ = eig[0].real();
    lambda2_ = eig[1].real();
  } else {
    kind_ = SolutionKind::Degenerate;
    lambda1_ = lambda2_ = -m / 2.0;
  }
}

FlowLine LinearFlow::line(double p, double q) const {
  FlowLine line;
  line.p = p;
  line.q = q;
  if (kind_ == SolutionKind::Spiral) {
    const double rx = p + q * alpha_;
    const double ry = q * beta_;
    // R = hypot(rx, ry) is zero exactly when both are.
    line.crossable = rx != 0.0 || ry != 0.0;
    line.psi = std::atan2(ry, rx);
  } else {
    line.r1 = p + q * lambda1_;
    line.r2 = p + q * lambda2_;
  }
  return line;
}

LinearSolution::LinearSolution(const SecondOrderSystem& system, Vec2 z0)
    : LinearSolution(LinearFlow(system), z0) {}

LinearSolution::LinearSolution(const LinearFlow& flow, Vec2 z0)
    : flow_(flow), z0_(z0) {
  const double l1 = flow_.lambda1();
  const double l2 = flow_.lambda2();
  switch (flow_.kind()) {
    case SolutionKind::Spiral: {
      // x0 = A cos(phi); (alpha x0 - y0)/beta = A sin(phi).  Using atan2
      // instead of the paper's principal arctan keeps the representation
      // valid in every quadrant (the paper's -arctan((y0-ax0)/(bx0))
      // breaks for x0 <= 0).
      const double s = (flow_.alpha() * z0.x - z0.y) / flow_.beta();
      amp_ = std::hypot(z0.x, s);
      phase_ = std::atan2(s, z0.x);
      break;
    }
    case SolutionKind::Node:
      a1_ = (l2 * z0.x - z0.y) / (l2 - l1);
      a2_ = (l1 * z0.x - z0.y) / (l1 - l2);
      break;
    case SolutionKind::Degenerate:
      a3_ = z0.x;
      a4_ = z0.y - l1 * z0.x;
      break;
  }
}

Vec2 LinearSolution::eval(double t) const {
  const double l1 = flow_.lambda1();
  const double l2 = flow_.lambda2();
  switch (flow_.kind()) {
    case SolutionKind::Spiral: {
      const double alpha = flow_.alpha();
      const double beta = flow_.beta();
      const double e = std::exp(alpha * t);
      const double c = std::cos(beta * t + phase_);
      const double s = std::sin(beta * t + phase_);
      const double x = amp_ * e * c;
      const double y = amp_ * e * (alpha * c - beta * s);
      return {x, y};
    }
    case SolutionKind::Node: {
      const double e1 = std::exp(l1 * t);
      const double e2 = std::exp(l2 * t);
      return {a1_ * e1 + a2_ * e2, a1_ * l1 * e1 + a2_ * l2 * e2};
    }
    case SolutionKind::Degenerate: {
      const double e = std::exp(l1 * t);
      const double x = (a3_ + a4_ * t) * e;
      const double y = (a4_ + l1 * (a3_ + a4_ * t)) * e;
      return {x, y};
    }
  }
  return {};
}

std::optional<XExtremum> LinearSolution::spiral_extremum(double after) const {
  if (amp_ == 0.0) return std::nullopt;
  const double beta = flow_.beta();
  const double theta_star = flow_.extremum_phase();
  const double tol = after_tolerance(after);
  double j = std::ceil((beta * after + phase_ - theta_star) / kPi);
  double t = (theta_star + j * kPi - phase_) / beta;
  while (t <= after + tol) {
    j += 1.0;
    t = (theta_star + j * kPi - phase_) / beta;
  }
  const double value = eval(t).x;
  // At an extremum x'' = y' = -n x, so maxima sit at x > 0.
  return XExtremum{t, value, value > 0.0};
}

std::optional<XExtremum> LinearSolution::node_extremum(double after) const {
  const double l1 = flow_.lambda1();
  const double l2 = flow_.lambda2();
  const double u = a1_ * l1;
  const double v = a2_ * l2;
  if (u == 0.0 || v == 0.0) return std::nullopt;
  const double rho = -v / u;
  if (rho <= 0.0) return std::nullopt;
  const double t = std::log(rho) / (l1 - l2);
  if (t <= after + after_tolerance(after)) return std::nullopt;
  const double value = eval(t).x;
  return XExtremum{t, value, value > 0.0};
}

std::optional<XExtremum> LinearSolution::degenerate_extremum(
    double after) const {
  // y = 0  <=>  a4 + lambda (a3 + a4 t) = 0.
  const double lambda = flow_.lambda1();
  if (a4_ == 0.0 || lambda == 0.0) return std::nullopt;
  const double t = -(a4_ + lambda * a3_) / (lambda * a4_);
  if (t <= after + after_tolerance(after)) return std::nullopt;
  const double value = eval(t).x;
  return XExtremum{t, value, value > 0.0};
}

std::optional<XExtremum> LinearSolution::first_x_extremum(double after) const {
  switch (flow_.kind()) {
    case SolutionKind::Spiral: return spiral_extremum(after);
    case SolutionKind::Node: return node_extremum(after);
    case SolutionKind::Degenerate: return degenerate_extremum(after);
  }
  return std::nullopt;
}

std::optional<double> LinearSolution::first_line_crossing(
    const FlowLine& line, double after) const {
  const double tol = after_tolerance(after);
  switch (flow_.kind()) {
    case SolutionKind::Spiral: {
      // p x + q y = A e^{alpha t} R cos(beta t + phi + psi).
      if (amp_ == 0.0 || !line.crossable) return std::nullopt;
      const double beta = flow_.beta();
      const double psi = line.psi;
      double j = std::ceil((beta * after + phase_ + psi - kPi / 2.0) / kPi);
      double t = (kPi / 2.0 + j * kPi - phase_ - psi) / beta;
      while (t <= after + tol) {
        j += 1.0;
        t = (kPi / 2.0 + j * kPi - phase_ - psi) / beta;
      }
      return t;
    }
    case SolutionKind::Node: {
      const double u = a1_ * line.r1;
      const double v = a2_ * line.r2;
      if (u == 0.0 || v == 0.0) return std::nullopt;
      const double rho = -v / u;
      if (rho <= 0.0) return std::nullopt;
      const double t = std::log(rho) / (flow_.lambda1() - flow_.lambda2());
      if (t <= after + tol) return std::nullopt;
      return t;
    }
    case SolutionKind::Degenerate: {
      const double c0 =
          line.p * a3_ + line.q * (a4_ + flow_.lambda1() * a3_);
      const double c1 = a4_ * line.r1;
      if (c1 == 0.0) return std::nullopt;
      const double t = -c0 / c1;
      if (t <= after + tol) return std::nullopt;
      return t;
    }
  }
  return std::nullopt;
}

// --- Paper formulas --------------------------------------------------------

double paper_spiral_extremum_time(double alpha, double beta, Vec2 z0) {
  const double base = std::atan(alpha / beta) +
                      std::atan((z0.y - alpha * z0.x) / (beta * z0.x));
  if (z0.x * z0.y >= 0.0) return base / beta;
  return (kPi + base) / beta;
}

double paper_spiral_extremum_value(double alpha, double beta, Vec2 z0) {
  const double t_star = paper_spiral_extremum_time(alpha, beta, z0);
  const double amp =
      std::sqrt((alpha * alpha + beta * beta) * z0.x * z0.x -
                2.0 * alpha * z0.x * z0.y + z0.y * z0.y) /
      beta;
  const double magnitude = amp * beta / std::hypot(alpha, beta) *
                           std::exp(alpha * t_star);
  // Eq. (19) for y0 > 0 (closest extremum is the maximum), eq. (20) for
  // y0 < 0 (the minimum).
  return z0.y > 0.0 ? magnitude : -magnitude;
}

std::optional<double> paper_node_extremum_value(double lambda1, double lambda2,
                                                Vec2 z0) {
  const double p1 = z0.y - lambda1 * z0.x;
  const double p2 = z0.y - lambda2 * z0.x;
  if (!(p1 > 0.0) || !(p2 > 0.0) || !(lambda1 < 0.0) || !(lambda2 < 0.0)) {
    return std::nullopt;
  }
  // Eq. (28) evaluated in log space.  NOTE: the paper prints a leading
  // minus sign; checked against the direct t*-evaluation the extremum is
  // sign(y0) * magnitude (the minus sign is a typo for the y0 > 0 branch).
  const double log_mag =
      (lambda1 * std::log(-lambda1) + lambda2 * std::log(p2) -
       lambda2 * std::log(-lambda2) - lambda1 * std::log(p1)) /
      (lambda2 - lambda1);
  const double magnitude = std::exp(log_mag);
  return z0.y > 0.0 ? magnitude : -magnitude;
}

std::optional<double> paper_degenerate_extremum_value(double lambda,
                                                      Vec2 z0) {
  const double a3 = z0.x;
  const double a4 = z0.y - lambda * z0.x;
  if (a4 == 0.0 || lambda == 0.0) return std::nullopt;
  const double t_star = -(a4 + lambda * a3) / (lambda * a4);
  if (t_star < 0.0) return std::nullopt;
  // Eq. (34) with the exponent corrected: x(t*) = -(A4/lambda) *
  // exp(-(lambda A3 + A4)/A4).  (The paper prints the exponent as
  // -(lambda A3 + A4)/(lambda A4), which fails a direct substitution
  // check, e.g. lambda=-1, z0=(0,1) gives e instead of 1/e.)
  return -(a4 / lambda) * std::exp(-(lambda * a3 + a4) / a4);
}

}  // namespace bcn::control
