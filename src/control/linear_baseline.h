// The linear-analysis baseline the paper critiques (Lu et al. [4],
// "Congestion Control in Networks with No Congestion Drops").
//
// That work splits the BCN variable-structure system into its two linear
// subsystems, checks each with a classical frequency-domain criterion, and
// declares the overall system stable when both subsystems are.  The paper's
// central point is that this verdict ignores (1) the switching transient
// between the subsystems and (2) the finite buffer, so it cannot predict
// queue oscillation (limit cycles) or transient overflow/underflow.
//
// We reproduce the baseline so the benches can put both verdicts side by
// side with the strong-stability verdict and the packet simulator's ground
// truth.
#pragma once

#include "control/second_order.h"

namespace bcn::control {

struct SubsystemReport {
  double m = 0.0;  // damping coefficient of lambda^2 + m lambda + n
  double n = 0.0;  // stiffness coefficient
  EquilibriumType equilibrium = EquilibriumType::StableFocus;
  bool hurwitz_stable = false;
};

struct LinearBaselineReport {
  SubsystemReport increase;  // sigma > 0 subsystem: m = a k, n = a
  SubsystemReport decrease;  // sigma < 0 subsystem: m = k b C, n = b C
  // The baseline's overall verdict: both subsystems Hurwitz-stable.
  bool declared_stable = false;
};

// a = Ru*Gi*N, b = Gd, k = w/(pm*C), C = bottleneck capacity, as in the
// paper's Section IV.A.
LinearBaselineReport analyze_linear_baseline(double a, double b, double k,
                                             double capacity);

}  // namespace bcn::control
