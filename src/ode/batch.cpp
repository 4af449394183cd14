#include "ode/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "ode/batch_kernel.h"

namespace bcn::ode {

namespace internal {

struct LaneArrays {
  double *x, *y, *t;
  const double *tend, *tstop, *dt0, *dt1;
  const double *sx, *sy, *dr0, *dr1, *ga0, *ga1, *gb0, *gb1;
  const double *ivx, *ivy, *stol;
  std::int64_t* reg;
  const std::int64_t *swi, *crossed;
  std::int64_t* steps;
  double *maxx, *minx, *pmaxx, *pminx;
  double *xn, *yn, *s0, *s1, *h;
  std::uint8_t* flag;
};

}  // namespace internal

namespace {

// Lane arithmetic shared by the vector pass (V a GCC vector of doubles)
// and the scalar crossing path (V = double), so both produce the same
// bits from the same inputs.  Everything travels by reference: a helper
// left out of line that took or returned a 32-byte vector by value
// would change the ABI between AVX and non-AVX callers.

// sigma = -(sx x + sy y).
template <typename V>
[[gnu::always_inline]] inline void sigma(const V& x, const V& y, const V& sx,
                                         const V& sy, V& out) {
  out = -(sx * x + sy * y);
}

// dy/dt of the lane law under one region's coefficients.
template <typename V>
[[gnu::always_inline]] inline void field_y(const V& x, const V& y,
                                           const V& sx, const V& sy,
                                           const V& drive, const V& g0,
                                           const V& g1, V& out) {
  V s;
  sigma(x, y, sx, sy, s);
  out = drive + (g0 + g1 * y) * s;
}

// One classic RK4 step of the lane law under a frozen region field.
template <typename V>
[[gnu::always_inline]] inline void rk4_step(const V& x, const V& y,
                                            const V& h, const V& sx,
                                            const V& sy, const V& drive,
                                            const V& g0, const V& g1, V& xo,
                                            V& yo) {
  const V k1x = y;
  V k1y, k2y, k3y, k4y;
  field_y(x, y, sx, sy, drive, g0, g1, k1y);
  const V k2x = y + 0.5 * h * k1y;
  field_y(V(x + 0.5 * h * k1x), V(y + 0.5 * h * k1y), sx, sy, drive, g0, g1,
          k2y);
  const V k3x = y + 0.5 * h * k2y;
  field_y(V(x + 0.5 * h * k2x), V(y + 0.5 * h * k2y), sx, sy, drive, g0, g1,
          k3y);
  const V k4x = y + h * k3y;
  field_y(V(x + h * k3x), V(y + h * k3y), sx, sy, drive, g0, g1, k4y);
  xo = x + h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x);
  yo = y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y);
}

// The early-stop predicate |x| ivx + |y| ivy < stol (stol 0 disables),
// given |x| and |y|.
template <typename V, typename M>
[[gnu::always_inline]] inline void converged(const V& ax, const V& ay,
                                             const V& ivx, const V& ivy,
                                             const V& stol, M& out) {
  out = (stol > 0.0) & (ax * ivx + ay * ivy < stol);
}

// Root of the cubic Hermite interpolant of sigma over [0, 1] given end
// values and end derivatives (d/du).  Bisection on the polynomial: the
// caller guarantees a sign change between the endpoints.
inline double hermite_root(double p0, double m0, double p1, double m1,
                           int iters) {
  const auto eval = [&](double u) {
    const double u2 = u * u;
    const double u3 = u2 * u;
    return (2.0 * u3 - 3.0 * u2 + 1.0) * p0 + (u3 - 2.0 * u2 + u) * m0 +
           (-2.0 * u3 + 3.0 * u2) * p1 + (u3 - u2) * m1;
  };
  double lo = 0.0, hi = 1.0;
  double flo = p0;
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fm = eval(mid);
    if ((flo <= 0.0) == (fm <= 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// Why the vector pass sends a lane to the scalar pass.
constexpr std::int64_t kLive = 0;       // committed, still running
constexpr std::int64_t kDone = 1;       // committed, reached t_end or stop
constexpr std::int64_t kCrossing = 2;   // sigma changed sign: not committed
constexpr std::int64_t kNonfinite = 3;  // candidate non-finite: not committed

// Every kernel loads whole blocks of this many lanes or fewer, so lane
// capacity rounds up to a multiple of it and no pass has a scalar tail.
constexpr std::size_t kBlock = 4;

// W-lane vector types: doubles, 64-bit masks, and the unaligned aliasing
// forms the lane arrays are read and written through (as the x86
// loadu/storeu intrinsics read them).  GCC drops vector_size on a
// dependent type, so each width is spelled out.
template <std::size_t W>
struct Lanes;

template <>
struct Lanes<2> {
  using D = double __attribute__((vector_size(16)));
  using I = std::int64_t __attribute__((vector_size(16)));
  using DU = double __attribute__((vector_size(16), aligned(8), may_alias));
  using IU =
      std::int64_t __attribute__((vector_size(16), aligned(8), may_alias));
  using BU =
      std::int8_t __attribute__((vector_size(2), aligned(1), may_alias));
  // The low byte of each 64-bit lane.
  [[gnu::always_inline]] static void low_bytes(const I& v, BU& out) {
    using C = std::int8_t __attribute__((vector_size(16)));
    const C c = C(v);
    out = __builtin_shufflevector(c, c, 0, 8);
  }
};

template <>
struct Lanes<4> {
  using D = double __attribute__((vector_size(32)));
  using I = std::int64_t __attribute__((vector_size(32)));
  using DU = double __attribute__((vector_size(32), aligned(8), may_alias));
  using IU =
      std::int64_t __attribute__((vector_size(32), aligned(8), may_alias));
  using BU =
      std::int8_t __attribute__((vector_size(4), aligned(1), may_alias));
  [[gnu::always_inline]] static void low_bytes(const I& v, BU& out) {
    using C = std::int8_t __attribute__((vector_size(32)));
    const C c = C(v);
    out = __builtin_shufflevector(c, c, 0, 8, 16, 24);
  }
};

// The W lanes at `p` as one vector V (a *U type above).
template <typename V, typename T>
[[gnu::always_inline]] inline auto& lanes_at(T* p) {
  using Q = std::conditional_t<std::is_const_v<T>, const V, V>;
  return *reinterpret_cast<Q*>(p);
}

// The fused pass, W lanes at a time (see batch.h).  Lanes past m in the
// last block are pad: computed and stored, never read.
template <std::size_t W>
[[gnu::always_inline]] inline void fused_pass(
    const internal::LaneArrays& a, std::size_t m) {
  using L = Lanes<W>;
  using D = typename L::D;
  using I = typename L::I;
  using DU = typename L::DU;
  using IU = typename L::IU;
  constexpr std::int64_t kAbs = std::numeric_limits<std::int64_t>::max();
  constexpr double kMax = std::numeric_limits<double>::max();
  const I zero{};
  const I one = zero + 1;
  for (std::size_t i = 0; i < m; i += W) {
    const D x = lanes_at<DU>(a.x + i), y = lanes_at<DU>(a.y + i);
    const D t = lanes_at<DU>(a.t + i);
    const I reg = lanes_at<IU>(a.reg + i);
    const I r0 = reg == 0;
    const I swi = lanes_at<IU>(a.swi + i) != 0;
    const D dt = r0 ? lanes_at<DU>(a.dt0 + i) : lanes_at<DU>(a.dt1 + i);
    const D rest = lanes_at<DU>(a.tend + i) - t;
    const D h = rest < dt ? rest : dt;  // std::min(dt, rest)
    const D sx = lanes_at<DU>(a.sx + i), sy = lanes_at<DU>(a.sy + i);
    const D drive = r0 ? lanes_at<DU>(a.dr0 + i) : lanes_at<DU>(a.dr1 + i);
    const D g0 = r0 ? lanes_at<DU>(a.ga0 + i) : lanes_at<DU>(a.ga1 + i);
    const D g1 = r0 ? lanes_at<DU>(a.gb0 + i) : lanes_at<DU>(a.gb1 + i);
    D xn, yn, s0, s1;
    rk4_step(x, y, h, sx, sy, drive, g0, g1, xn, yn);
    sigma(x, y, sx, sy, s0);
    sigma(xn, yn, sx, sy, s1);

    // |v| by clearing the sign bit, as std::abs does.
    const D axn = D(I(xn) & kAbs), ayn = D(I(yn) & kAbs);
    const I finite = (axn <= kMax) & (ayn <= kMax);
    const I crossing = finite & swi & ((s0 <= 0.0) ^ (s1 <= 0.0));
    const I plain = finite & ~crossing;

    // Commit the plain lanes: state, region (the scalar driver's mode_of
    // safety net: a no-op unless sigma landed exactly on 0), extrema
    // fold, step count.
    const D tn = t + h;
    lanes_at<DU>(a.x + i) = plain ? xn : x;
    lanes_at<DU>(a.y + i) = plain ? yn : y;
    lanes_at<DU>(a.t + i) = plain ? tn : t;
    lanes_at<IU>(a.reg + i) =
        (plain & swi) ? ((s1 > 0.0) ? zero : one) : reg;
    const D maxx = lanes_at<DU>(a.maxx + i), minx = lanes_at<DU>(a.minx + i);
    lanes_at<DU>(a.maxx + i) = (plain & (maxx < xn)) ? xn : maxx;
    lanes_at<DU>(a.minx + i) = (plain & (xn < minx)) ? xn : minx;
    const I post = plain & (lanes_at<IU>(a.crossed + i) != 0);
    const D pmaxx = lanes_at<DU>(a.pmaxx + i);
    const D pminx = lanes_at<DU>(a.pminx + i);
    lanes_at<DU>(a.pmaxx + i) = (post & (pmaxx < xn)) ? xn : pmaxx;
    lanes_at<DU>(a.pminx + i) = (post & (xn < pminx)) ? xn : pminx;
    lanes_at<IU>(a.steps + i) += plain & one;

    // Both retirement tests on the committed state.
    const D ivx = lanes_at<DU>(a.ivx + i), ivy = lanes_at<DU>(a.ivy + i);
    const D stol = lanes_at<DU>(a.stol + i);
    I stop;
    converged(axn, ayn, ivx, ivy, stol, stop);
    const I done = plain & (stop | (tn >= lanes_at<DU>(a.tstop + i)));

    lanes_at<DU>(a.xn + i) = xn;
    lanes_at<DU>(a.yn + i) = yn;
    lanes_at<DU>(a.s0 + i) = s0;
    lanes_at<DU>(a.s1 + i) = s1;
    lanes_at<DU>(a.h + i) = h;
    const I flag = (done & kDone) | (crossing & kCrossing) |
                   (~finite & kNonfinite);
    L::low_bytes(flag, lanes_at<typename L::BU>(a.flag + i));
  }
}

void fused_pass_baseline(const internal::LaneArrays& lanes, std::size_t m) {
  fused_pass<2>(lanes, m);
}

constexpr internal::BatchKernel kBaseline{"baseline", fused_pass_baseline};

#if defined(__x86_64__)
__attribute__((target("avx2"))) void fused_pass_avx2(
    const internal::LaneArrays& lanes, std::size_t m) {
  fused_pass<4>(lanes, m);
}

constexpr internal::BatchKernel kAvx2{"avx2", fused_pass_avx2};

bool cpu_has_avx2() {
  // A function-local static: a namespace-scope initializer could run
  // before libgcc's CPU-model constructor.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}
#endif

}  // namespace

namespace internal {

const BatchKernel& host_batch_kernel() {
#if defined(__x86_64__)
  if (cpu_has_avx2()) return kAvx2;
#endif
  return kBaseline;
}

std::vector<const BatchKernel*> host_batch_kernels() {
  std::vector<const BatchKernel*> kernels{&kBaseline};
#if defined(__x86_64__)
  if (cpu_has_avx2()) kernels.push_back(&kAvx2);
#endif
  return kernels;
}

}  // namespace internal

const char* batch_kernel_name() { return internal::host_batch_kernel().name; }

BatchIntegrator::BatchIntegrator(BatchOptions options)
    : options_(options), kernel_(&internal::host_batch_kernel()) {}

void BatchIntegrator::reset(const BatchLane* lanes, std::size_t n) {
  const std::size_t capacity = (n + kBlock - 1) / kBlock * kBlock;
  const auto grow = [capacity](auto& v) {
    v.resize(std::max(v.size(), capacity));
  };
  grow(x_), grow(y_), grow(t_), grow(dt0_), grow(dt1_), grow(tend_);
  grow(tstop_), grow(sx_), grow(sy_), grow(dr0_), grow(dr1_);
  grow(ga0_), grow(ga1_), grow(gb0_), grow(gb1_);
  grow(ivx_), grow(ivy_), grow(stol_);
  grow(reg_), grow(swi_), grow(ids_);
  grow(xn_), grow(yn_), grow(s0_), grow(s1_), grow(hcur_), grow(flag_);
  grow(maxx_), grow(minx_), grow(pmaxx_), grow(pminx_), grow(fct_);
  grow(crossed_), grow(steps_), grow(ncross_);
  results_.assign(n, LaneResult{});
  active_ = n;

  for (std::size_t i = 0; i < n; ++i) {
    const BatchLane& lane = lanes[i];
    x_[i] = lane.x0;
    y_[i] = lane.y0;
    t_[i] = 0.0;
    dt0_[i] = lane.dt[0];
    dt1_[i] = lane.dt[1];
    tend_[i] = lane.t_end;
    // Completion tolerance mirrors vector_rk4's loop bound.
    tstop_[i] =
        lane.t_end - 1e-12 * std::max(1.0, std::abs(lane.t_end));
    sx_[i] = lane.law.sx;
    sy_[i] = lane.law.sy;
    dr0_[i] = lane.law.drive[0];
    dr1_[i] = lane.law.drive[1];
    ga0_[i] = lane.law.g0[0];
    ga1_[i] = lane.law.g0[1];
    gb0_[i] = lane.law.g1[0];
    gb1_[i] = lane.law.g1[1];
    ivx_[i] = lane.inv_x_scale;
    ivy_[i] = lane.inv_y_scale;
    stol_[i] = lane.stop_tol;
    double sig0;
    sigma(lane.x0, lane.y0, lane.law.sx, lane.law.sy, sig0);
    reg_[i] = sig0 > 0.0 ? 0 : 1;
    swi_[i] = lane.law.switched ? 1 : 0;
    ids_[i] = static_cast<std::uint32_t>(i);
    maxx_[i] = -std::numeric_limits<double>::infinity();
    minx_[i] = std::numeric_limits<double>::infinity();
    pmaxx_[i] = 0.0;  // post-switch extrema fold from 0, like FluidRun
    pminx_[i] = 0.0;
    fct_[i] = 0.0;
    crossed_[i] = 0;
    steps_[i] = 0;
    ncross_[i] = 0;
  }
}

void BatchIntegrator::commit_at_crossing(std::size_t i) {
  // Sigma changed sign across the candidate step: localize the first
  // crossing on the cubic Hermite interpolant of sigma, land the lane
  // exactly there, flip the region, and truncate the macro step.  The
  // next step continues under the new region's field *and step size* —
  // the scalar hybrid driver's restart-at-event policy.  This keeps the
  // candidate end state from ever being committed with a stale field,
  // which matters once the two regions carry very different dts.
  const double h = hcur_[i];
  const double sx = sx_[i], sy = sy_[i];
  const bool r0 = reg_[i] == 0;
  const double drive = r0 ? dr0_[i] : dr1_[i];
  const double g0 = r0 ? ga0_[i] : ga1_[i];
  const double g1 = r0 ? gb0_[i] : gb1_[i];

  const double xa = x_[i], ya = y_[i];
  const double xb = xn_[i], yb = yn_[i];
  // Hermite data for sigma over the step: sigma' = sigma(x', y').
  double fa, fb, da, db;
  field_y(xa, ya, sx, sy, drive, g0, g1, fa);
  field_y(xb, yb, sx, sy, drive, g0, g1, fb);
  sigma(ya, fa, sx, sy, da);
  sigma(yb, fb, sx, sy, db);
  double u = hermite_root(s0_[i], da * h, s1_[i], db * h,
                          options_.max_bisections);
  // Guarantee forward progress even if the interpolant pins the root
  // onto the step's start.
  u = std::clamp(u, 1e-6, 1.0);
  const double hc = u * h;
  double xc, yc;
  rk4_step(xa, ya, hc, sx, sy, drive, g0, g1, xc, yc);

  x_[i] = xc;
  y_[i] = yc;
  t_[i] += hc;
  if (!crossed_[i]) {
    crossed_[i] = 1;
    // The crossing sample itself is post-switch (the scalar run gates
    // on t >= first switch time inclusively).
    fct_[i] = t_[i];
  }
  ++ncross_[i];
  // The landed sigma is an epsilon value of ambiguous sign; trust the
  // side the candidate step was heading to.
  reg_[i] = s1_[i] > 0.0 ? 0 : 1;
  maxx_[i] = std::max(maxx_[i], xc);
  minx_[i] = std::min(minx_[i], xc);
  pmaxx_[i] = std::max(pmaxx_[i], xc);
  pminx_[i] = std::min(pminx_[i], xc);
  ++steps_[i];
}

void BatchIntegrator::retire_nonfinite(std::size_t i) {
  LaneResult& out = results_[ids_[i]];
  out.nonfinite = true;
  out.nonfinite_t = t_[i];  // last committed (finite) time
  out.completed = false;
  if (steps_[i] > 0) {
    out.max_x = maxx_[i];
    out.min_x = minx_[i];
  }
  out.crossed = crossed_[i] != 0;
  out.first_crossing_t = fct_[i];
  out.post_switch_max_x = pmaxx_[i];
  out.post_switch_min_x = pminx_[i];
  out.steps = static_cast<std::uint32_t>(steps_[i]);
  out.crossings = ncross_[i];
  if (nonfinite_warnings_.allow()) {
    BCN_LOG_ERROR(
        "ode: batch lane %u went non-finite after t=%.9g "
        "(x=%g, y=%g); lane retired, verdict will not be stable",
        ids_[i], t_[i], xn_[i], yn_[i]);
  }
}

bool BatchIntegrator::retire_if_done(std::size_t i) {
  bool converged_now;
  converged(std::abs(x_[i]), std::abs(y_[i]), ivx_[i], ivy_[i], stol_[i],
            converged_now);
  if (!converged_now && !(t_[i] >= tstop_[i])) return false;

  LaneResult& out = results_[ids_[i]];
  out.max_x = maxx_[i];
  out.min_x = minx_[i];
  out.crossed = crossed_[i] != 0;
  out.first_crossing_t = fct_[i];
  out.post_switch_max_x = pmaxx_[i];
  out.post_switch_min_x = pminx_[i];
  out.completed = true;
  out.converged = converged_now;
  out.steps = static_cast<std::uint32_t>(steps_[i]);
  out.crossings = ncross_[i];
  return true;
}

std::size_t BatchIntegrator::step_all() {
  const std::size_t m = active_;
  if (m == 0) return 0;

  kernel_->fused_pass(
      {.x = x_.data(), .y = y_.data(), .t = t_.data(),
       .tend = tend_.data(), .tstop = tstop_.data(),
       .dt0 = dt0_.data(), .dt1 = dt1_.data(),
       .sx = sx_.data(), .sy = sy_.data(),
       .dr0 = dr0_.data(), .dr1 = dr1_.data(),
       .ga0 = ga0_.data(), .ga1 = ga1_.data(),
       .gb0 = gb0_.data(), .gb1 = gb1_.data(),
       .ivx = ivx_.data(), .ivy = ivy_.data(), .stol = stol_.data(),
       .reg = reg_.data(), .swi = swi_.data(), .crossed = crossed_.data(),
       .steps = steps_.data(),
       .maxx = maxx_.data(), .minx = minx_.data(),
       .pmaxx = pmaxx_.data(), .pminx = pminx_.data(),
       .xn = xn_.data(), .yn = yn_.data(), .s0 = s0_.data(),
       .s1 = s1_.data(), .h = hcur_.data(), .flag = flag_.data()},
      m);

  // Scalar pass over the flagged lanes: crossing localization,
  // retirement with swap-from-last compaction.  Results are keyed by
  // original lane id, so the outcome is independent of retirement order.
  std::size_t i = 0;
  std::size_t n = m;
  while (i < n) {
    if (flag_[i] == kLive) {
      ++i;
      continue;
    }
    bool retired;
    // Fail fast on a non-finite candidate state: committing it would
    // poison the lane clock (NaN t never reaches t_end) and the folded
    // extrema.  The lane retires with nonfinite set; the rest of the
    // batch is unaffected.
    if (flag_[i] == kNonfinite) {
      retire_nonfinite(i);
      retired = true;
    } else {
      if (flag_[i] == kCrossing) commit_at_crossing(i);
      retired = retire_if_done(i);
    }
    if (!retired) {
      ++i;
      continue;
    }
    --n;
    if (i != n) {
      x_[i] = x_[n], y_[i] = y_[n], t_[i] = t_[n];
      dt0_[i] = dt0_[n], dt1_[i] = dt1_[n];
      tend_[i] = tend_[n], tstop_[i] = tstop_[n];
      sx_[i] = sx_[n], sy_[i] = sy_[n];
      dr0_[i] = dr0_[n], dr1_[i] = dr1_[n];
      ga0_[i] = ga0_[n], ga1_[i] = ga1_[n];
      gb0_[i] = gb0_[n], gb1_[i] = gb1_[n];
      ivx_[i] = ivx_[n], ivy_[i] = ivy_[n], stol_[i] = stol_[n];
      reg_[i] = reg_[n], swi_[i] = swi_[n], ids_[i] = ids_[n];
      // The swapped-in lane has not been through this pass yet; its
      // vector-pass outputs must travel with it.
      xn_[i] = xn_[n], yn_[i] = yn_[n];
      s0_[i] = s0_[n], s1_[i] = s1_[n], hcur_[i] = hcur_[n];
      flag_[i] = flag_[n];
      maxx_[i] = maxx_[n], minx_[i] = minx_[n];
      pmaxx_[i] = pmaxx_[n], pminx_[i] = pminx_[n], fct_[i] = fct_[n];
      crossed_[i] = crossed_[n];
      steps_[i] = steps_[n], ncross_[i] = ncross_[n];
    }
  }
  active_ = n;
  return n;
}

void BatchIntegrator::run_to_completion() {
  while (step_all() != 0) {
  }
}

}  // namespace bcn::ode
