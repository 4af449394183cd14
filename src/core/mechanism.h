// Pluggable congestion-control mechanisms: the fluid facet.
//
// The phase-plane machinery (hybrid integration, numeric strong-stability
// verdicts, stability maps, fluid-vs-packet cross-validation) originally
// hard-wired BCN's sigma feedback.  A CongestionControlMechanism now has
// two coordinated facets:
//
//   * the fluid facet (this header): a typed switched law, its region
//     laws and the hook that integrates it (core/fluid_laws.h).  BCN's
//     facet is core::FluidModel (core/fluid_model.h); QCN's and RCP's
//     live in mechanism.cpp.  Every facet is built at one ModelLevel and
//     keeps it, every facet is integrated by core::simulate_fluid alone
//     and judged by core::numeric_strong_stability alone;
//   * the packet facet (sim/mechanism.h): the switch feedback-generation
//     policy and regulator reaction policy consumed by src/sim.
//
// Both facets of one mechanism are registered under one name ("bcn",
// "qcn", "rcp", ...) in the registry below, which is what --mechanism
// resolves against in the bench runner and the analysis tools.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bcn_params.h"
#include "ode/batch.h"
#include "ode/hybrid.h"

namespace bcn {
class ArgParser;
}  // namespace bcn

namespace bcn::core {

struct FluidRun;

// How much of the plant physics a fluid facet models (core/fluid_model.h
// describes the three levels for BCN).
enum class ModelLevel { Linearized, Nonlinear, Clipped };

// Interior mode indices of the switched laws (core/fluid_laws.h); at
// Clipped, BufferWalls<Law> numbers the two wall modes after them.
inline constexpr int kModeIncrease = 0;
inline constexpr int kModeDecrease = 1;

// RCP-style explicit-rate controller (Voice & Raina): once per control
// interval d the switch updates its advertised rate by the relative rate
// mismatch plus a queue term,
//   R <- R [1 + (T/d) (alpha (C - y) - beta (q - q0)/d) / C].
// The (q - q0) form (instead of the classic q) places the equilibrium at
// the phase-plane origin shared by the other mechanisms.
struct RcpParams {
  double alpha = 0.4;     // rate-mismatch gain
  double beta = 0.226;    // queue-drain gain
  double interval = 1e-4; // control interval d [s] (the RTT estimate)
};

// QCN-style operation promoted out of the old rate_regulator.h mode
// flags: negative-only quantized feedback, source-driven recovery.
struct QcnParams {
  double active_increase = 5e6;    // R_AI [bits/s] per self-increase
  double increase_period = 1e-4;   // self-increase timer period [s]
  int feedback_bits = 6;           // |Fb| quantized to 2^bits - 1 levels
  double fb_scale = 64.0;          // sigma_frames mapping to full scale
  int fast_recovery_cycles = 5;
  double max_decrease = 0.5;       // largest per-message rate fraction cut
  double frame_bits = 12000.0;     // sigma quantum for the Fb field
};

// FERA/ERICA-style explicit fair-share advertisement (packet-only: the
// advert jumps between fair-share levels as the flow estimate updates,
// which has no planar fluid limit in this framework).
struct FeraParams {
  double alpha = 0.5;              // queue-correction weight in the advert
  std::uint64_t epoch_frames = 1000;  // flow-estimation epoch length
  double smoothing = 0.5;          // regulator EWMA weight for new adverts
};

// Everything needed to instantiate any registered mechanism: the shared
// plant description plus the per-mechanism knobs.
struct MechanismConfig {
  BcnParams plant = BcnParams::standard_draft();
  RcpParams rcp;
  QcnParams qcn;
  FeraParams fera;
};

// One linearized region law lambda^2 + m lambda + n = 0 of a mechanism's
// switched dynamics.  Mechanisms whose drive in a region is constant
// (QCN's active increase) have no second-order law there.
struct RegionLaw {
  const char* label = "";
  double m = 0.0;
  double n = 0.0;
  bool linearizable = true;
};

// FluidRun's extrema (core/simulate.h), folded one sample at a time.  The
// first sample is the start, which sits on the empty-buffer boundary by
// construction (q(0) = 0 after the warm-up): it stands in only until a
// second arrives, so the extrema cover t > 0.  The post-switch extrema
// take the samples at or after the first switch between two of the
// law's `interior_modes`, which must arrive before them: the driver
// reports each switch ahead of its step's samples.
//
// A fold that `settles` (FluidMechanism::extrema_fold) also watches the
// orbit turn where x' = y changes sign, its x-peaks and x-dips, and
// reads settled() once no later sample can move max_x or the post-switch
// min_x: the driver then ends the orbit (ode/hybrid_driver.h).
// kSettleMargin in simulate.cpp gives the rule and why it is exact.
class ExtremaFold {
 public:
  ExtremaFold(int interior_modes, bool settles)
      : interior_modes_(interior_modes), settles_(settles) {}

  void sample(double t, Vec2 z) {
    if (samples_++ < 2) {
      max_x_ = min_x_ = z.x;
      max_y_ = min_y_ = z.y;
    }
    max_x_ = std::max(max_x_, z.x);
    min_x_ = std::min(min_x_, z.x);
    max_y_ = std::max(max_y_, z.y);
    min_y_ = std::min(min_y_, z.y);
    if (t >= gate_) {
      post_switch_max_x_ = std::max(post_switch_max_x_, z.x);
      post_switch_min_x_ = std::min(post_switch_min_x_, z.x);
    }
    if (settles_) {
      if ((last_.y > 0.0 && z.y <= 0.0) || (last_.y < 0.0 && z.y >= 0.0)) {
        turn(t, z);
      }
      last_t_ = t;
      last_ = z;
    }
  }
  // A buffer wall's capture or release is not a switching event, and
  // switch times never decrease, so the gate is the first interior one's.
  void mode_switch(const ode::ModeSwitch& s) {
    if (s.from_mode >= interior_modes_ || s.to_mode >= interior_modes_) return;
    gate_ = std::min(gate_, s.t);
  }

  // True once max_x and the post-switch min_x are final.
  bool settled() const { return peaks_final_ && dips_final_; }

  // The folded extrema plus the driver's statistics.
  FluidRun finish(const ode::HybridStats& stats) const;

 private:
  // The turn of x between the last sample and (t, z), where y changed
  // sign: a peak or a dip.
  void turn(double t, Vec2 z);

  int interior_modes_;
  bool settles_;
  double max_x_ = 0.0, min_x_ = 0.0, max_y_ = 0.0, min_y_ = 0.0;
  double post_switch_max_x_ = 0.0, post_switch_min_x_ = 0.0;
  std::size_t samples_ = 0;
  double gate_ = std::numeric_limits<double>::infinity();
  double last_t_ = 0.0;
  Vec2 last_;
  bool peaks_final_ = false, dips_final_ = false;
};

// The fluid facet: a planar switched system in the translated coordinates
// x = q - q0, y = (aggregate rate) - C, built at one model level.
class FluidMechanism {
 public:
  virtual ~FluidMechanism() = default;

  virtual const char* name() const = 0;
  const BcnParams& plant() const { return plant_; }
  // The model level the facet was built at; fixed for its lifetime.
  ModelLevel level() const { return level_; }

  // Feedback signal driving the regulators; its sign selects the region.
  virtual double sigma(Vec2 z) const = 0;

  // The fold of the facet's orbits: over its law's interior modes (at
  // Clipped the two buffer-wall modes follow them), settling where the
  // law allows it (ExtremaFold::settled), at Linearized and Nonlinear
  // only, since at Clipped a wall holds x' = 0.
  virtual ExtremaFold extrema_fold() const = 0;

  // Integrates the facet's switched law at its level over [t0, t1] from
  // z0 into `sink` (core::LawFacet implements both).
  virtual ode::HybridStats integrate(double t0, Vec2 z0, double t1,
                                     const ode::HybridOptions& options,
                                     ode::RecordingSink& sink) const = 0;
  virtual ode::HybridStats integrate(double t0, Vec2 z0, double t1,
                                     const ode::HybridOptions& options,
                                     ExtremaFold& sink) const = 0;
  // Integrates this facet from lanes[0] and `peer` from lanes[1] together
  // (ode::run_hybrid_pair), each as its own integrate call would.  Both
  // must be facets of one law at interior levels (Linearized or
  // Nonlinear); otherwise throws std::invalid_argument.
  virtual std::array<ode::HybridStats, 2> integrate_pair(
      const FluidMechanism& peer,
      const std::array<ode::HybridLane<ExtremaFold>, 2>& lanes) const = 0;

  // Linearized characteristic polynomials per region.
  virtual std::vector<RegionLaw> region_laws() const = 0;

  // False when the vector field cannot vanish at the origin (QCN's
  // constant active increase): the mechanism orbits a sawtooth / limit
  // cycle instead of settling.
  virtual bool has_equilibrium() const { return true; }

  // Group dynamics for heterogeneous competition: dy_g/dt for a source
  // group whose fair share of the capacity is `share` [bits/s], carrying
  // aggregate deviation y_group, while the shared queue sees x and the
  // total deviation y_total.  Always the nonlinear (level-(8)) law.
  virtual double group_rate_deriv(double x, double y_group, double y_total,
                                  double share) const = 0;

  // The facet's interior dynamics as an affine lane law for the SoA
  // batched integrator (ode/batch.h).  Returns false when the dynamics
  // fall outside the affine family or the facet's level has buffer walls
  // (Clipped) — callers then fall back to the scalar hybrid path.  Every
  // current fluid facet is representable at Linearized and Nonlinear.
  virtual bool lane_law(ode::LaneLaw* /*out*/) const { return false; }

  // Buffer walls and the canonical analysis start, shared by every
  // mechanism operating on the same plant.
  double x_min() const { return -plant_.q0; }
  double x_max() const { return plant_.buffer - plant_.q0; }
  // At Clipped a wall captures every state within this distance of it,
  // so that states event localization lands on a wall count as on it.
  double wall_tol() const { return 1e-9 * plant_.q0; }
  Vec2 analysis_initial_point() const { return {-plant_.q0, 0.0}; }

 protected:
  FluidMechanism(const BcnParams& plant, ModelLevel level)
      : plant_(plant), level_(level) {}

  BcnParams plant_;
  ModelLevel level_;
};

// --- registry ---------------------------------------------------------------

struct MechanismInfo {
  const char* name;
  const char* summary;
  // The two gain axes a per-mechanism stability map sweeps.
  const char* gain1;
  const char* gain2;
  bool has_fluid;
  bool has_packet;
  void (*set_gains)(MechanismConfig&, double g1, double g2);
  std::pair<double, double> (*default_gains)(const MechanismConfig&);
};

const std::vector<MechanismInfo>& mechanism_registry();

// nullptr when `name` is not registered.
const MechanismInfo* find_mechanism(std::string_view name);

// "bcn, bcn-draft, qcn, rcp, fera" -- for usage/error messages.
std::string mechanism_name_list();

// The --mechanism flag of every tool and bench (default "bcn"); an
// unregistered name throws UsageError listing the registry.
std::string mechanism_flag(const ArgParser& args);

// Builds the fluid facet at `level`; nullptr for unknown names and for
// packet-only mechanisms (fera).  bcn and bcn-draft build a FluidModel,
// which throws std::invalid_argument on an invalid config.plant.
std::unique_ptr<FluidMechanism> make_fluid_mechanism(
    std::string_view name, const MechanismConfig& config = {},
    ModelLevel level = ModelLevel::Nonlinear);

}  // namespace bcn::core
