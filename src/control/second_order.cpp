#include "control/second_order.h"

#include "common/math.h"

namespace bcn::control {

std::array<std::complex<double>, 2> SecondOrderSystem::eigenvalues() const {
  return solve_monic_quadratic(m_, n_);
}

EquilibriumType SecondOrderSystem::classify() const {
  const double disc = discriminant();
  if (disc < 0.0) {
    if (m_ > 0.0) return EquilibriumType::StableFocus;
    if (m_ < 0.0) return EquilibriumType::UnstableFocus;
    return EquilibriumType::Center;
  }
  if (n_ < 0.0) return EquilibriumType::Saddle;
  if (disc == 0.0) {
    return m_ > 0.0 ? EquilibriumType::DegenerateStableNode
                    : EquilibriumType::DegenerateUnstableNode;
  }
  // disc > 0, n >= 0: both real roots share the sign of -m (their sum is -m
  // and product n >= 0).  n == 0 gives one zero eigenvalue; we lump it with
  // the node of the matching stability for this library's purposes.
  return m_ > 0.0 ? EquilibriumType::StableNode
                  : EquilibriumType::UnstableNode;
}

bool SecondOrderSystem::is_hurwitz_stable() const {
  // Routh-Hurwitz for lambda^2 + m lambda + n: stable iff m > 0 and n > 0.
  return m_ > 0.0 && n_ > 0.0;
}

ode::Rhs SecondOrderSystem::rhs() const {
  const double m = m_;
  const double n = n_;
  return [m, n](double /*t*/, Vec2 z) -> Vec2 {
    return {z.y, -n * z.x - m * z.y};
  };
}

}  // namespace bcn::control
