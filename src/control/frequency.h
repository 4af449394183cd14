// Frequency-domain analysis of the BCN subsystem loops -- the toolkit of
// the Lu et al. [4] baseline, extended with delay margins.
//
// Each BCN subsystem closes the loop
//
//     L(s) = n (1 + k s) / s^2        (n = a or bC, k = w/(pm C))
//
// around unity feedback: 1 + L(s) = 0 gives the characteristic equation
// s^2 + k n s + n = 0 of paper eq. (35).  The gain crossover and phase
// margin have closed forms; the delay margin tau_m = phi_m / omega_c
// predicts when a feedback delay destabilizes the *subsystem*.
//
// Comparing tau_m with the switched system's measured critical delay
// (core/delayed_model.h) exposes how conservative per-subsystem linear
// analysis is -- three orders of magnitude for the standard draft.
#pragma once

#include <complex>

namespace bcn::control {

// The open-loop transfer function L(s) = n (1 + k s) / s^2.
struct LoopTransfer {
  double n = 0.0;  // loop gain (a or bC)
  double k = 0.0;  // zero time-constant (w / (pm C))
};

// L(j omega), optionally with a loop delay e^{-j omega tau}.
// Oracle for the three margins below; no production caller.
std::complex<double> loop_gain(const LoopTransfer& loop, double omega,
                               double delay = 0.0);

// Gain-crossover frequency: |L(j omega_c)| = 1.  Closed form:
// omega_c^2 = (n^2 k^2 + sqrt(n^4 k^4 + 4 n^2)) / 2.
double gain_crossover(const LoopTransfer& loop);

// Phase margin in radians: pi + arg L(j omega_c) = atan(k omega_c).
double phase_margin(const LoopTransfer& loop);

// Delay margin: the loop delay that erases the phase margin,
// tau_m = phase_margin / omega_c.
double delay_margin(const LoopTransfer& loop);

// True iff the delayed subsystem loop is stable per the margin test
// (delay < delay margin).
// Oracle for delay_margin; no production caller.
bool delayed_subsystem_stable(const LoopTransfer& loop, double delay);

}  // namespace bcn::control
