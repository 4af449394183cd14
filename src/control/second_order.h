// Second-order linear systems x'' + m x' + n x = 0, written in first-order
// form over the phase plane:
//
//   dx/dt = y
//   dy/dt = -n x - m y
//
// This is exactly the form of the BCN linearized subsystems (paper eq. (9)):
// the increase region has (m, n) = (a k, a) and the decrease region
// (m, n) = (k b C, b C).
#pragma once

#include <array>
#include <complex>

#include "ode/system.h"

namespace bcn::control {

// Qualitative type of the equilibrium at the origin.
enum class EquilibriumType {
  StableFocus,      // complex eigenvalues, negative real part (spiral in)
  UnstableFocus,    // complex eigenvalues, positive real part (spiral out)
  Center,           // purely imaginary eigenvalues (closed orbits)
  StableNode,       // distinct negative real eigenvalues
  UnstableNode,     // distinct positive real eigenvalues
  DegenerateStableNode,    // repeated negative eigenvalue
  DegenerateUnstableNode,  // repeated positive eigenvalue
  Saddle,           // real eigenvalues of opposite sign
};

class SecondOrderSystem {
 public:
  // Characteristic polynomial lambda^2 + m lambda + n.
  SecondOrderSystem(double m, double n) : m_(m), n_(n) {}

  double m() const { return m_; }
  double n() const { return n_; }

  double discriminant() const { return m_ * m_ - 4.0 * n_; }

  // Eigenvalues ordered with real(first) <= real(second); complex pairs are
  // returned (conjugate with negative imaginary part first).
  std::array<std::complex<double>, 2> eigenvalues() const;

  EquilibriumType classify() const;

  // True when both eigenvalues have a strictly negative real part.
  bool is_hurwitz_stable() const;

  // The vector field, for numeric integration cross-checks.
  ode::Rhs rhs() const;

 private:
  double m_;
  double n_;
};

}  // namespace bcn::control
