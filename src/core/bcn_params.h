// BCN congestion-control parameters (paper Section II.B / IV) and the
// derived fluid-model coefficients.
#pragma once

#include <string>
#include <vector>

namespace bcn::core {

// All quantities in SI base units: bits, seconds, bits/second.
struct BcnParams {
  // --- plant ---------------------------------------------------------------
  double num_sources = 50.0;  // N: homogeneous sources sharing the bottleneck
  double capacity = 10e9;     // C: bottleneck link capacity [bits/s]
  double q0 = 2.5e6;          // reference (equilibrium) queue length [bits]
  double buffer = 5e6;        // B: physical buffer size [bits]
  double qsc = 4.5e6;         // severe-congestion PAUSE threshold (> q0) [bits]

  // --- congestion point (core switch) --------------------------------------
  double w = 2.0;    // weight of the queue-variation term in sigma (eq. (1))
  double pm = 0.01;  // deterministic sampling probability

  // --- reaction point (rate regulator, eq. (2)) -----------------------------
  double gi = 4.0;          // Gi: additive-increase gain
  double gd = 1.0 / 128.0;  // Gd: multiplicative-decrease gain [1/bits]
  double ru = 8e6;          // Ru: rate increase unit [bits/s]

  // --- initial condition ----------------------------------------------------
  double init_rate = 0.0;  // mu: per-source rate at t = 0 [bits/s]

  // --- derived fluid-model coefficients (Section IV.A) ----------------------
  double a() const { return ru * gi * num_sources; }      // a = Ru Gi N
  double b() const { return gd; }                         // b = Gd
  double k() const { return w / (pm * capacity); }        // k = w/(pm C)

  // Region-kind thresholds: the increase subsystem is a spiral iff
  // a < 4/k^2 = 4 pm^2 C^2 / w^2; the decrease one iff b C < 4/k^2, i.e.
  // b < 4 pm^2 C / w^2.
  double spiral_threshold() const {
    const double kk = k();
    return 4.0 / (kk * kk);
  }

  // Characteristic-equation coefficients lambda^2 + m lambda + n (eq. (35)).
  double increase_m() const { return a() * k(); }
  double increase_n() const { return a(); }
  double decrease_m() const { return k() * b() * capacity; }
  double decrease_n() const { return b() * capacity; }

  // Theorem 1: buffer needed for guaranteed strong stability,
  // (1 + sqrt(a/(bC))) q0.
  double theorem1_required_buffer() const;
  bool satisfies_theorem1() const { return theorem1_required_buffer() < buffer; }

  // Duration of the empty-queue warm-up from rate mu to link saturation,
  // T0 = (C - N mu)/(a q0) (paper Section IV.C).
  double warmup_duration() const;

  // Human-readable violations; empty when the parameter set is physically
  // meaningful (positive gains, q0 < qsc <= B, pm in (0, 1], ...).
  std::vector<std::string> validate() const;
  bool is_valid() const { return validate().empty(); }
  // Throws std::invalid_argument carrying the first validate() message.
  void require_valid() const;

  std::string describe() const;

  // The configuration from the paper's Section IV remarks: N = 50,
  // C = 10 Gbps, q0 = 2.5 Mbit, Gi = 4, Gd = 1/128, Ru = 8 Mbit/s and the
  // standard-draft buffer of 5 Mbit (the bandwidth-delay product), which
  // Theorem 1 shows to be ~2.8x too small.
  static BcnParams standard_draft();
};

}  // namespace bcn::core
