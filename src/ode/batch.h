// Structure-of-arrays batched integration of many *independent* planar
// switched systems: the stability-map/sweep hot path.
//
// The scalar stack (dopri5.h / hybrid_driver.h) integrates one trajectory
// at a time on a facet's typed law (core/fluid_laws.h) — ideal for a
// single high-accuracy run, wasteful for a map that integrates thousands
// of short, mutually independent trajectories.  This driver instead steps N
// lanes per fixed-size RK4 macro step over contiguous SoA arrays, and
// after the first reset at a given capacity it allocates nothing.
//
// Each step_all() runs two vector passes over the active lanes.  The
// candidate pass selects each lane's region field and step size and
// takes the RK4 step into a candidate end state.  The commit pass takes
// sigma at both ends and, for every lane that neither crosses the
// switching line nor goes non-finite, the commit, the extrema fold and
// both retirement tests; it flags the rest and reports whether it
// flagged any.  Most steps flag no lane, and step_all returns there.
// On the others the crossing pass localizes and commits every lane
// flagged crossing, several vectors at a time (below), and a scalar scan
// of the flags retires non-finite and finished lanes and compacts.
// Each vector pass is compiled twice from one template: four lanes wide
// under AVX2, chosen once from the CPU, and two lanes wide (baseline
// SSE2 on x86-64) for every other host, where every mask select is
// bitwise (SSE2 has no 64-bit compare, and GCC would branch per lane).
// Neither build may use FMA: contracting a multiply-add rounds once
// instead of twice, and the AVX2 kernel must reproduce the scalar RK4
// bit for bit, so its target is exactly "avx2" (AVX-512 implies FMA).
//
// Lane dynamics are restricted to the affine switched family
//
//   sigma(z) = -(sx x + sy y),   region r = sigma > 0 ? 0 : 1,
//   dx/dt = y,
//   dy/dt = drive[r] + (g0[r] + g1[r] y) sigma,
//
// which covers the interior laws of every registered fluid mechanism
// (BCN eq. (8)/(9), QCN's constant drive + quantized decrease, RCP's
// single smooth rate law) at both the Linearized and Nonlinear model
// levels.  Buffer-wall (Clipped) modes are deliberately out of scope:
// callers needing walls take the scalar hybrid path.
//
// Switching-surface events mirror ode/hybrid's dense-output bisection:
// sigma along an accepted macro step is interpolated by a cubic Hermite
// (sigma and its time derivative are exact at both step ends), the
// crossing is bisected on that cubic, and the lane is re-stepped to land
// exactly on the crossing, where the region flips and the macro step
// truncates — the next step continues under the new region's field and
// step size (the scalar driver's restart-at-event policy).  Step sizes
// are per region: a lane whose decrease law is 30x slower than its
// increase law takes 30x larger steps there.
//
// The 48 bisection steps are one dependent chain per vector, so the
// crossing pass gathers the crossing lanes and bisects four vectors
// together (16 lanes under AVX2, 8 on the baseline) while that many
// remain, then one vector at a time; its lane list is padded to a whole
// 4-lane block by repeating the last crossing lane.  Every lane runs the
// same operations as it would alone, so its bits never depend on which
// lanes cross beside it.  Lanes of one map wave start together at
// (-q0, 0), and each lane's step is sized from its own rates, so a
// wave's lanes cross on the same steps: on E22's map 2.1 % of step_all
// calls flag any lane, and a crossing pass on a two-worker slice takes
// about 180 lanes.  core::batch_numeric_verdicts gives each worker one
// slice of a wave, at most 512 lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"

namespace bcn::ode {

namespace internal {
struct BatchKernel;
}  // namespace internal

// The vector pass this host's BatchIntegrators run: "avx2" or
// "baseline".
const char* batch_kernel_name();

// One lane's switched interior law (see the family above).
struct LaneLaw {
  double sx = 1.0;  // sigma = -(sx x + sy y)
  double sy = 0.0;
  double drive[2] = {0.0, 0.0};  // constant drive per region
  double g0[2] = {0.0, 0.0};     // dy += (g0 + g1 y) sigma
  double g1[2] = {0.0, 0.0};
  // False for single-law mechanisms (RCP): both regions carry the same
  // coefficients and no crossing is ever localized or reported, matching
  // the scalar hybrid system's guard-free interior.
  bool switched = true;
};

// Everything needed to run one lane to completion.
struct BatchLane {
  LaneLaw law;
  double x0 = 0.0;  // initial state at t = 0
  double y0 = 0.0;
  double t_end = 0.0;  // integration horizon (> 0)
  // Fixed RK4 macro step per region (> 0; the last step is shortened to
  // land on t_end, and steps truncate at sigma crossings).
  double dt[2] = {0.0, 0.0};
  // Early-stop predicate |x| inv_x_scale + |y| inv_y_scale < stop_tol,
  // checked after every macro step (stop_tol 0 disables) — mirrors
  // FluidRunOptions::convergence_tol.
  double inv_x_scale = 0.0;
  double inv_y_scale = 0.0;
  double stop_tol = 0.0;
};

// Per-lane integration summary: exactly the quantities the numeric
// strong-stability verdict consumes from a scalar core::FluidRun.
// Extrema are over the discrete sample set {macro-step ends, localized
// crossing points}, the initial state excluded — the same sample set the
// scalar driver records into its trajectory.
struct LaneResult {
  double max_x = 0.0;
  double min_x = 0.0;
  bool crossed = false;        // at least one sigma crossing
  double first_crossing_t = 0.0;
  // Extrema from the first crossing on; 0 when no crossing occurred
  // (mirrors FluidRun's post-switch fields, which fold from 0).
  double post_switch_max_x = 0.0;
  double post_switch_min_x = 0.0;
  bool completed = false;  // reached t_end or stopped via stop_tol
  bool converged = false;  // stopped early via stop_tol
  // The lane's state went non-finite (NaN/Inf) and it was retired
  // immediately with completed = false; nonfinite_t is the time of the
  // last finite state.  Without this guard a NaN lane's clock never
  // satisfies t >= t_end (NaN comparisons are false) and
  // run_to_completion spins forever.
  bool nonfinite = false;
  double nonfinite_t = 0.0;
  std::uint32_t steps = 0;
  std::uint32_t crossings = 0;
};

class BatchIntegrator {
 public:
  BatchIntegrator();

  // Loads n lanes (all become active, t = 0).  Scratch is resized, not
  // shrunk: after the first reset at the high-water lane count, further
  // resets and all stepping allocate nothing.
  void reset(const BatchLane* lanes, std::size_t n);
  void reset(const std::vector<BatchLane>& lanes) {
    reset(lanes.data(), lanes.size());
  }

  // Advances every active lane by one of its own macro steps (lanes are
  // independent — there is no shared clock), localizing crossings and
  // retiring lanes that reach t_end or their stop predicate.  Retired
  // lanes are compacted out of the active set.  Returns the number of
  // lanes still active.
  std::size_t step_all();

  // Steps until every lane has retired.
  void run_to_completion();

  // Results indexed like the lanes passed to reset().  Valid for retired
  // lanes; fully populated once run_to_completion/step_all reports 0.
  const std::vector<LaneResult>& results() const { return results_; }

 private:
  friend struct internal::BatchKernel;

  bool retire_if_done(std::size_t i);
  void retire_nonfinite(std::size_t i);

  const internal::BatchKernel* kernel_;
  std::size_t active_ = 0;

  // SoA lane state, padded to whole vector blocks.  Region, switched,
  // crossed and the step count are 64-bit so the vector pass loads them
  // lane for lane beside the doubles.  tstop_ is the completion time
  // t_end - 1e-12 max(1, |t_end|).
  std::vector<double> x_, y_, t_, dt0_, dt1_, tend_, tstop_;
  std::vector<double> sx_, sy_, dr0_, dr1_, ga0_, ga1_, gb0_, gb1_;
  std::vector<double> ivx_, ivy_, stol_;
  std::vector<std::int64_t> reg_, swi_;
  std::vector<std::uint32_t> ids_;
  // Vector-pass outputs: candidate step ends, sigma at both ends, the
  // step taken, and the flag that sends a lane to the later passes.
  std::vector<double> xn_, yn_, s0_, s1_, hcur_;
  std::vector<std::uint8_t> flag_;
  // The crossing pass's lane list, padded to a whole block.
  std::vector<std::uint32_t> cross_;
  // Per-lane running statistics.
  std::vector<double> maxx_, minx_, pmaxx_, pminx_, fct_;
  std::vector<std::int64_t> crossed_, steps_;
  std::vector<std::uint32_t> ncross_;
  // Rate limit for non-finite lane diagnostics (fail fast, log the
  // first few offending lanes, keep the per-lane flags as the tally).
  LogRateLimit nonfinite_warnings_{3};

  std::vector<LaneResult> results_;
};

}  // namespace bcn::ode
