// Closed-form solutions of the second-order linear phase-plane system
//
//   dx/dt = y,   dy/dt = -n x - m y        (n > 0)
//
// in the three regimes the paper distinguishes:
//
//   m^2 - 4n < 0 : H-type, logarithmic spiral (paper eq. (12), Fig. 4)
//   m^2 - 4n > 0 : F-type, parabola-like node (paper eq. (21), Fig. 5)
//   m^2 - 4n = 0 : L-type, degenerate node    (paper eq. (29))
//
// LinearFlow holds what depends on the system alone; LinearSolution adds
// a start point.  Besides evaluation, a solution answers the two
// questions the phase-plane analysis needs in closed form:
//   * when does x(t) next reach a local extremum (y = 0)?  -- paper
//     eqs. (18)-(20), (28), (34)
//   * when does the trajectory next cross a line p x + q y = 0 through the
//     origin (the switching line sigma = 0 has p = 1, q = k)?  -- the
//     paper's H^{-1}/F/L crossing computations (e.g. T_i^1 in Case 1)
#pragma once

#include <optional>
#include <string>

#include "common/math.h"
#include "control/second_order.h"

namespace bcn::control {

enum class SolutionKind { Spiral, Node, Degenerate };

std::string to_string(SolutionKind kind);

// A local extremum of x(t) along the solution.
struct XExtremum {
  double t = 0.0;
  double value = 0.0;
  bool is_maximum = false;  // x'' = -n x < 0 at the extremum iff value > 0
};

// A line p x + q y = 0 through the origin, with the constants every
// crossing of it by one flow's solutions needs (LinearFlow::line).
struct FlowLine {
  double p = 0.0;
  double q = 0.0;
  // Spiral: p x + q y = A e^{alpha t} R cos(beta t + phi + psi), with
  // R = hypot(p + q alpha, q beta) and psi = atan2(q beta, p + q alpha).
  // With R = 0 the solutions never cross the line.
  double psi = 0.0;
  bool crossable = true;
  // Node / degenerate: p + q lambda1 and p + q lambda2.
  double r1 = 0.0, r2 = 0.0;
};

// The per-system half of the closed-form solutions: the regime and every
// constant that does not depend on the start point, computed once per
// system and shared by all its LinearSolutions.
class LinearFlow {
 public:
  // Requires n > 0 (the only regime arising from physical BCN
  // parameters).
  explicit LinearFlow(const SecondOrderSystem& system);

  SolutionKind kind() const { return kind_; }
  double alpha() const { return alpha_; }      // spiral: Re(lambda)
  double beta() const { return beta_; }        // spiral: |Im(lambda)|
  double lambda1() const { return lambda1_; }  // node: smaller eigenvalue
  double lambda2() const { return lambda2_; }  // node/degenerate
  // Spiral: y = 0 <=> tan(beta t + phi) = alpha / beta, so every x
  // extremum sits at phase atan(alpha / beta) modulo pi.
  double extremum_phase() const { return theta_; }

  // The line p x + q y = 0 as this flow's solutions cross it.
  FlowLine line(double p, double q) const;

 private:
  SolutionKind kind_;
  // Spiral parameters.
  double alpha_ = 0.0, beta_ = 0.0, theta_ = 0.0;
  // Node / degenerate parameters.
  double lambda1_ = 0.0, lambda2_ = 0.0;
};

// One solution of a LinearFlow: the flow plus the coefficients of its
// start point.
class LinearSolution {
 public:
  // Solution with initial condition z(0) = z0.  Requires n > 0.
  LinearSolution(const SecondOrderSystem& system, Vec2 z0);
  LinearSolution(const LinearFlow& flow, Vec2 z0);

  SolutionKind kind() const { return flow_.kind(); }
  Vec2 initial() const { return z0_; }

  Vec2 eval(double t) const;

  // Earliest local extremum of x strictly after time `after`.
  // nullopt when x has no further extremum (e.g. node past its turn, or the
  // zero solution).
  std::optional<XExtremum> first_x_extremum(double after = 0.0) const;

  // Earliest t strictly after `after` on the line p x + q y = 0 whose
  // constants LinearFlow::line(p, q) built once.
  std::optional<double> first_line_crossing(const FlowLine& line,
                                            double after = 0.0) const;

  // --- regime-specific parameters (for tests and the paper's formulas) ---
  double alpha() const { return flow_.alpha(); }    // spiral: Re(lambda)
  double beta() const { return flow_.beta(); }      // spiral: |Im(lambda)|
  double amplitude() const { return amp_; }  // spiral: A in eq. (12)
  double phase() const { return phase_; }    // spiral: phi in eq. (12)
  double lambda1() const { return flow_.lambda1(); }  // node: smaller
  double lambda2() const { return flow_.lambda2(); }  // node/degenerate

 private:
  std::optional<XExtremum> spiral_extremum(double after) const;
  std::optional<XExtremum> node_extremum(double after) const;
  std::optional<XExtremum> degenerate_extremum(double after) const;

  LinearFlow flow_;
  Vec2 z0_;
  // Spiral parameters.
  double amp_ = 0.0, phase_ = 0.0;
  // Node / degenerate coefficients.
  double a1_ = 0.0, a2_ = 0.0;  // node coefficients (eq. (21))
  double a3_ = 0.0, a4_ = 0.0;  // degenerate coefficients (eq. (29))
};

// --- The paper's explicit extremum formulas, for cross-validation ---------

// Eq. (18): time of the extremum of x closest to the initial point for the
// spiral case.  alpha/beta as in eq. (12)'s solution.
// Oracle for LinearSolution::first_x_extremum; its one production caller
// is paper_spiral_extremum_value.
double paper_spiral_extremum_time(double alpha, double beta, Vec2 z0);

// Eqs. (19)/(20): value of that closest extremum (signed: positive for the
// maximum branch, negative for the minimum branch).
double paper_spiral_extremum_value(double alpha, double beta, Vec2 z0);

// Eq. (28): global extremum of x for the node case (lambda1 < lambda2 < 0).
// Only valid when the bracketed quantities are positive, which holds for
// the trajectories the paper applies it to (initial point with
// y0 - lambda_{1,2} x0 > 0); returns nullopt otherwise.
std::optional<double> paper_node_extremum_value(double lambda1, double lambda2,
                                                Vec2 z0);

// Eq. (34): unique extremum of x for the degenerate case.
// Oracle for LinearSolution::first_x_extremum; no production caller.
std::optional<double> paper_degenerate_extremum_value(double lambda, Vec2 z0);

}  // namespace bcn::control
