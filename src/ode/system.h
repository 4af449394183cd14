// Planar (2-D) autonomous/non-autonomous ODE system abstractions.
//
// The whole phase-plane toolkit works on second-order systems written in
// first-order form over the plane, so the integrators are specialized to
// Vec2 states.  This keeps the API concrete (no templates at call sites)
// and matches the paper's setting exactly.
#pragma once

#include <functional>

#include "common/math.h"

namespace bcn::ode {

// Right-hand side f(t, z) -> dz/dt of a planar ODE: the smooth drivers'
// (ode/integrate.h) vector field.
using Rhs = std::function<Vec2(double t, Vec2 z)>;

}  // namespace bcn::ode
