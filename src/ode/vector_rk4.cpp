#include "ode/vector_rk4.h"

namespace bcn::ode {

void vector_rk4_step(const VectorRhs& f, double t, double h,
                     std::vector<double>& state, VectorRk4Scratch& s) {
  const std::size_t n = state.size();
  s.resize(n);
  f(t, state, s.k1);
  for (std::size_t j = 0; j < n; ++j) s.tmp[j] = state[j] + 0.5 * h * s.k1[j];
  f(t + 0.5 * h, s.tmp, s.k2);
  for (std::size_t j = 0; j < n; ++j) s.tmp[j] = state[j] + 0.5 * h * s.k2[j];
  f(t + 0.5 * h, s.tmp, s.k3);
  for (std::size_t j = 0; j < n; ++j) s.tmp[j] = state[j] + h * s.k3[j];
  f(t + h, s.tmp, s.k4);
  for (std::size_t j = 0; j < n; ++j) {
    state[j] += h / 6.0 * (s.k1[j] + 2.0 * s.k2[j] + 2.0 * s.k3[j] + s.k4[j]);
  }
}

}  // namespace bcn::ode
