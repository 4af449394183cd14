// Fixed-step classic RK4 over arbitrary-dimension states.
//
// The planar stack (steppers.h / dopri5.h) covers the phase-plane work;
// this utility serves the N-dimensional models (e.g. the multi-flow fluid
// model's [q, r_1..r_N] state) without forcing them to hand-roll the
// tableau.  Derivatives are written into a caller-provided buffer so the
// inner loop allocates nothing.
#pragma once

#include <functional>
#include <vector>

namespace bcn::ode {

// dy/dt = f(t, y) with y an N-vector; f writes the derivative into `dy`
// (sized like `y`).
using VectorRhs =
    std::function<void(double t, const std::vector<double>& y,
                       std::vector<double>& dy)>;

// Scratch space for allocation-free stepping; reusable across steps.
struct VectorRk4Scratch {
  std::vector<double> k1, k2, k3, k4, tmp;
  void resize(std::size_t n) {
    k1.resize(n);
    k2.resize(n);
    k3.resize(n);
    k4.resize(n);
    tmp.resize(n);
  }
};

// Advances `state` in place by one RK4 step of size h.
void vector_rk4_step(const VectorRhs& f, double t, double h,
                     std::vector<double>& state, VectorRk4Scratch& scratch);

}  // namespace bcn::ode
