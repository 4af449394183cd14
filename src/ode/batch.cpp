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
  const std::int64_t* swi;
  std::int64_t *crossed, *steps;
  std::uint32_t* ncross;
  double *maxx, *minx, *pmaxx, *pminx, *fct;
  double *xn, *yn, *s0, *s1, *h;
  std::uint8_t* flag;
};

}  // namespace internal

namespace {

// Lane arithmetic shared by the vector passes (V a GCC vector of
// doubles) and the scalar bookkeeping (V = double), so every path
// produces the same bits from the same inputs.  Everything travels by
// reference: a helper left out of line that took or returned a 32-byte
// vector by value would change the ABI between AVX and non-AVX callers.

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

// Bisection iterations on the Hermite interpolant per crossing.
constexpr int kMaxBisections = 48;

// The cubic Hermite interpolant of sigma over [0, 1] at u, given end
// values p0, p1 and end derivatives (d/du) m0, m1.
template <typename V>
[[gnu::always_inline]] inline void hermite(const V& u, const V& p0,
                                           const V& m0, const V& p1,
                                           const V& m1, V& out) {
  const V u2 = u * u;
  const V u3 = u2 * u;
  out = (2.0 * u3 - 3.0 * u2 + 1.0) * p0 + (u3 - 2.0 * u2 + u) * m0 +
        (-2.0 * u3 + 3.0 * u2) * p1 + (u3 - u2) * m1;
}

// Why the commit pass flags a lane.
constexpr std::int64_t kLive = 0;       // committed, still running
constexpr std::int64_t kDone = 1;       // committed, reached t_end or stop
constexpr std::int64_t kCrossing = 2;   // sigma changed sign: not committed
constexpr std::int64_t kNonfinite = 3;  // candidate non-finite: not committed

// Every kernel loads whole blocks of this many lanes or fewer, so lane
// capacity and the crossing list round up to a multiple of it and no
// pass has a scalar tail.
constexpr std::size_t kBlock = 4;

// Vectors the crossing pass bisects together while that many crossing
// lanes remain: the bisection is one dependent chain per vector, and
// interleaving independent chains hides its latency.
constexpr std::size_t kGroup = 4;

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
  // m ? a : b for a mask m, bit by bit: SSE2 has no 64-bit compare, and
  // GCC branches per lane on a ?: whose mask combines two masks.
  [[gnu::always_inline]] static void select(const I& m, const D& a,
                                            const D& b, D& out) {
    out = D((I(a) & m) | (I(b) & ~m));
  }
  [[gnu::always_inline]] static void select(const I& m, const I& a,
                                            const I& b, I& out) {
    out = (a & m) | (b & ~m);
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
  [[gnu::always_inline]] static void select(const I& m, const D& a,
                                            const D& b, D& out) {
    out = m ? a : b;
  }
  [[gnu::always_inline]] static void select(const I& m, const I& a,
                                            const I& b, I& out) {
    out = m ? a : b;
  }
};

// The W lanes at `p` as one vector V (a *U type above).
template <typename V, typename T>
[[gnu::always_inline]] inline auto& lanes_at(T* p) {
  using Q = std::conditional_t<std::is_const_v<T>, const V, V>;
  return *reinterpret_cast<Q*>(p);
}

// Stores m ? a : b to the W lanes at p.
template <typename L>
[[gnu::always_inline]] inline void store_select(const typename L::I& m,
                                                const typename L::D& a,
                                                const typename L::D& b,
                                                double* p) {
  typename L::D v;
  L::select(m, a, b, v);
  lanes_at<typename L::DU>(p) = v;
}

// The candidate pass, W lanes at a time (see batch.h): each lane's
// region field and step h = min(dt, t_end - t), and the RK4 step from
// (x, y) into (xn, yn).  Lanes past m in the last block are pad:
// computed and stored, never read.
template <std::size_t W>
[[gnu::always_inline]] inline void candidate_pass(
    const internal::LaneArrays& a, std::size_t m) {
  using L = Lanes<W>;
  using D = typename L::D;
  using I = typename L::I;
  using DU = typename L::DU;
  using IU = typename L::IU;
  for (std::size_t i = 0; i < m; i += W) {
    const D x = lanes_at<DU>(a.x + i), y = lanes_at<DU>(a.y + i);
    const I r0 = lanes_at<IU>(a.reg + i) == 0;
    const D dt0 = lanes_at<DU>(a.dt0 + i), dt1 = lanes_at<DU>(a.dt1 + i);
    const D dr0 = lanes_at<DU>(a.dr0 + i), dr1 = lanes_at<DU>(a.dr1 + i);
    const D ga0 = lanes_at<DU>(a.ga0 + i), ga1 = lanes_at<DU>(a.ga1 + i);
    const D gb0 = lanes_at<DU>(a.gb0 + i), gb1 = lanes_at<DU>(a.gb1 + i);
    D dt, drive, g0, g1, h;
    L::select(r0, dt0, dt1, dt);
    L::select(r0, dr0, dr1, drive);
    L::select(r0, ga0, ga1, g0);
    L::select(r0, gb0, gb1, g1);
    const D rest = lanes_at<DU>(a.tend + i) - lanes_at<DU>(a.t + i);
    L::select(rest < dt, rest, dt, h);  // std::min(dt, rest)
    const D sx = lanes_at<DU>(a.sx + i), sy = lanes_at<DU>(a.sy + i);
    D xn, yn;
    rk4_step(x, y, h, sx, sy, drive, g0, g1, xn, yn);
    lanes_at<DU>(a.xn + i) = xn;
    lanes_at<DU>(a.yn + i) = yn;
    lanes_at<DU>(a.h + i) = h;
  }
}

// The commit pass on the W lanes at i: sigma at both ends of the
// candidate step, the commit of every lane that neither crosses nor
// goes non-finite, and the flags, which it also leaves in `flag`.
template <std::size_t W>
[[gnu::always_inline]] inline void commit_block(
    const internal::LaneArrays& a, std::size_t i, typename Lanes<W>::I& flag) {
  using L = Lanes<W>;
  using D = typename L::D;
  using I = typename L::I;
  using DU = typename L::DU;
  using IU = typename L::IU;
  constexpr std::int64_t kAbs = std::numeric_limits<std::int64_t>::max();
  constexpr double kMax = std::numeric_limits<double>::max();
  const I zero{};
  const I one = zero + 1;
  const D x = lanes_at<DU>(a.x + i), y = lanes_at<DU>(a.y + i);
  const D xn = lanes_at<DU>(a.xn + i), yn = lanes_at<DU>(a.yn + i);
  const D sx = lanes_at<DU>(a.sx + i), sy = lanes_at<DU>(a.sy + i);
  const I swi = lanes_at<IU>(a.swi + i) != 0;
  D s0, s1;
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
  const D t = lanes_at<DU>(a.t + i);
  const D tn = t + lanes_at<DU>(a.h + i);
  store_select<L>(plain, xn, x, a.x + i);
  store_select<L>(plain, yn, y, a.y + i);
  store_select<L>(plain, tn, t, a.t + i);
  I reg;
  L::select(s1 > 0.0, zero, one, reg);
  L::select(plain & swi, reg, I(lanes_at<IU>(a.reg + i)), reg);
  lanes_at<IU>(a.reg + i) = reg;
  const D maxx = lanes_at<DU>(a.maxx + i), minx = lanes_at<DU>(a.minx + i);
  store_select<L>(plain & (maxx < xn), xn, maxx, a.maxx + i);
  store_select<L>(plain & (xn < minx), xn, minx, a.minx + i);
  const I post = plain & (lanes_at<IU>(a.crossed + i) != 0);
  const D pmaxx = lanes_at<DU>(a.pmaxx + i);
  const D pminx = lanes_at<DU>(a.pminx + i);
  store_select<L>(post & (pmaxx < xn), xn, pmaxx, a.pmaxx + i);
  store_select<L>(post & (xn < pminx), xn, pminx, a.pminx + i);
  lanes_at<IU>(a.steps + i) += plain & one;

  // Both retirement tests on the committed state.
  const D ivx = lanes_at<DU>(a.ivx + i), ivy = lanes_at<DU>(a.ivy + i);
  const D stol = lanes_at<DU>(a.stol + i);
  I stop;
  converged(axn, ayn, ivx, ivy, stol, stop);
  const I done = plain & (stop | (tn >= lanes_at<DU>(a.tstop + i)));

  lanes_at<DU>(a.s0 + i) = s0;
  lanes_at<DU>(a.s1 + i) = s1;
  flag = (done & kDone) | (crossing & kCrossing) | (~finite & kNonfinite);
  L::low_bytes(flag, lanes_at<typename L::BU>(a.flag + i));
}

// The commit pass, W lanes at a time (see batch.h).  Returns whether it
// flagged any of the lanes [0, m); pad lanes past m in the last block
// are computed and stored but never read or counted.
template <std::size_t W>
[[gnu::always_inline]] inline bool commit_pass(const internal::LaneArrays& a,
                                               std::size_t m) {
  typename Lanes<W>::I flag, any{};
  std::size_t i = 0;
  for (; i + W <= m; i += W) {
    commit_block<W>(a, i, flag);
    any |= flag;
  }
  if (i < m) {
    commit_block<W>(a, i, flag);
    for (std::size_t k = 0; k < m - i; ++k) any[k] |= flag[k];
  }
  bool flagged = false;
  for (std::size_t k = 0; k < W; ++k) flagged |= any[k] != 0;
  return flagged;
}

// Localizes and commits the crossings of G vectors of W lanes, the lanes
// idx[0, G W), with the vectors' bisections interleaved.  Sigma changed
// sign across each lane's candidate step: bisect the first crossing on
// the cubic Hermite interpolant of sigma, land the lane exactly there,
// flip its region, and truncate the macro step.  The next step continues
// under the new region's field *and step size* (the scalar hybrid
// driver's restart-at-event policy), so a candidate end state is never
// committed with a stale field, which matters once the two regions carry
// very different dts.  A lane may repeat within one vector: every lane
// is read before any is written, and a repeat stores the same bits.
template <std::size_t W, std::size_t G>
[[gnu::always_inline]] inline void commit_crossings(
    const internal::LaneArrays& a, const std::uint32_t* idx) {
  using L = Lanes<W>;
  using D = typename L::D;
  using I = typename L::I;
  const D zero{};
  D xa[G], ya[G], h[G], sx[G], sy[G], drive[G], g0[G], g1[G];
  D p0[G], m0[G], p1[G], m1[G];
  // Each lane's region (0 or 1) indexes its coefficient arrays: a load,
  // where a per-lane ?: on the region would branch.
  const double* const drs[2] = {a.dr0, a.dr1};
  const double* const gas[2] = {a.ga0, a.ga1};
  const double* const gbs[2] = {a.gb0, a.gb1};
  for (std::size_t g = 0; g < G; ++g) {
    D xb, yb;
    for (std::size_t k = 0; k < W; ++k) {
      const std::uint32_t i = idx[g * W + k];
      const std::int64_t r = a.reg[i];
      xa[g][k] = a.x[i], ya[g][k] = a.y[i];
      xb[k] = a.xn[i], yb[k] = a.yn[i];
      h[g][k] = a.h[i], p0[g][k] = a.s0[i], p1[g][k] = a.s1[i];
      sx[g][k] = a.sx[i], sy[g][k] = a.sy[i];
      drive[g][k] = drs[r][i], g0[g][k] = gas[r][i], g1[g][k] = gbs[r][i];
    }
    // Hermite data for sigma over the step: sigma' = sigma(x', y').
    D fa, fb, da, db;
    field_y(xa[g], ya[g], sx[g], sy[g], drive[g], g0[g], g1[g], fa);
    field_y(xb, yb, sx[g], sy[g], drive[g], g0[g], g1[g], fb);
    sigma(ya[g], fa, sx[g], sy[g], da);
    sigma(yb, fb, sx[g], sy[g], db);
    m0[g] = da * h[g];
    m1[g] = db * h[g];
  }

  // Bisection on the polynomial: the commit pass saw a sign change
  // between the endpoints.
  D lo[G], hi[G], flo[G];
  for (std::size_t g = 0; g < G; ++g) {
    lo[g] = zero, hi[g] = zero + 1.0, flo[g] = p0[g];
  }
  for (int it = 0; it < kMaxBisections; ++it) {
    for (std::size_t g = 0; g < G; ++g) {
      const D mid = 0.5 * (lo[g] + hi[g]);
      D fm;
      hermite(mid, p0[g], m0[g], p1[g], m1[g], fm);
      // (flo <= 0) != (fm <= 0): the root is in [lo, mid].
      const I left = (flo[g] <= 0.0) ^ (fm <= 0.0);
      L::select(left, lo[g], mid, lo[g]);
      L::select(left, flo[g], fm, flo[g]);
      L::select(left, mid, hi[g], hi[g]);
    }
  }

  for (std::size_t g = 0; g < G; ++g) {
    D u = 0.5 * (lo[g] + hi[g]);
    // std::clamp(u, 1e-6, 1.0): forward progress even if the
    // interpolant pins the root onto the step's start.
    u = u < 1e-6 ? zero + 1e-6 : u;
    u = 1.0 < u ? zero + 1.0 : u;
    const D hc = u * h[g];
    D xc, yc;
    rk4_step(xa[g], ya[g], hc, sx[g], sy[g], drive[g], g0[g], g1[g], xc, yc);

    D t, fct, maxx, minx, pmaxx, pminx;
    I crossed, steps, ncross;
    for (std::size_t k = 0; k < W; ++k) {
      const std::uint32_t i = idx[g * W + k];
      t[k] = a.t[i], fct[k] = a.fct[i], crossed[k] = a.crossed[i];
      maxx[k] = a.maxx[i], minx[k] = a.minx[i];
      pmaxx[k] = a.pmaxx[i], pminx[k] = a.pminx[i];
      steps[k] = a.steps[i], ncross[k] = a.ncross[i];
    }
    const D tn = t + hc;
    // The crossing sample itself is post-switch (the scalar run gates on
    // t >= first switch time inclusively).
    L::select(crossed != 0, fct, tn, fct);
    // std::max and std::min folds of the landed x.
    maxx = maxx < xc ? xc : maxx;
    minx = xc < minx ? xc : minx;
    pmaxx = pmaxx < xc ? xc : pmaxx;
    pminx = xc < pminx ? xc : pminx;
    for (std::size_t k = 0; k < W; ++k) {
      const std::uint32_t i = idx[g * W + k];
      a.x[i] = xc[k], a.y[i] = yc[k], a.t[i] = tn[k];
      a.crossed[i] = 1, a.fct[i] = fct[k];
      // The landed sigma is an epsilon value of ambiguous sign; trust
      // the side the candidate step was heading to.
      a.reg[i] = p1[g][k] > 0.0 ? 0 : 1;
      a.maxx[i] = maxx[k], a.minx[i] = minx[k];
      a.pmaxx[i] = pmaxx[k], a.pminx[i] = pminx[k];
      a.steps[i] = steps[k] + 1;
      a.ncross[i] = static_cast<std::uint32_t>(ncross[k] + 1);
    }
  }
}

// The crossing pass over the n lanes idx[0, n), W lanes a vector: groups
// of kGroup vectors while that many lanes remain, then single vectors.
// The list is padded to a whole block by repeating its last lane.
template <std::size_t W>
[[gnu::always_inline]] inline void crossing_pass(
    const internal::LaneArrays& a, const std::uint32_t* idx, std::size_t n) {
  std::size_t k = 0;
  for (; k + kGroup * W <= n; k += kGroup * W) {
    commit_crossings<W, kGroup>(a, idx + k);
  }
  for (; k < n; k += W) commit_crossings<W, 1>(a, idx + k);
}

void candidate_pass_baseline(const internal::LaneArrays& lanes,
                             std::size_t m) {
  candidate_pass<2>(lanes, m);
}

bool commit_pass_baseline(const internal::LaneArrays& lanes, std::size_t m) {
  return commit_pass<2>(lanes, m);
}

void crossing_pass_baseline(const internal::LaneArrays& lanes,
                            const std::uint32_t* idx, std::size_t n) {
  crossing_pass<2>(lanes, idx, n);
}

constexpr internal::BatchKernel kBaseline{
    "baseline", candidate_pass_baseline, commit_pass_baseline,
    crossing_pass_baseline, kGroup * 2};

#if defined(__x86_64__)
__attribute__((target("avx2"))) void candidate_pass_avx2(
    const internal::LaneArrays& lanes, std::size_t m) {
  candidate_pass<4>(lanes, m);
}

__attribute__((target("avx2"))) bool commit_pass_avx2(
    const internal::LaneArrays& lanes, std::size_t m) {
  return commit_pass<4>(lanes, m);
}

__attribute__((target("avx2"))) void crossing_pass_avx2(
    const internal::LaneArrays& lanes, const std::uint32_t* idx,
    std::size_t n) {
  crossing_pass<4>(lanes, idx, n);
}

constexpr internal::BatchKernel kAvx2{"avx2", candidate_pass_avx2,
                                      commit_pass_avx2, crossing_pass_avx2,
                                      kGroup * 4};

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

BatchIntegrator::BatchIntegrator()
    : kernel_(&internal::host_batch_kernel()) {}

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
  grow(cross_);
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

  const internal::LaneArrays lanes{
      .x = x_.data(), .y = y_.data(), .t = t_.data(),
      .tend = tend_.data(), .tstop = tstop_.data(),
      .dt0 = dt0_.data(), .dt1 = dt1_.data(),
      .sx = sx_.data(), .sy = sy_.data(),
      .dr0 = dr0_.data(), .dr1 = dr1_.data(),
      .ga0 = ga0_.data(), .ga1 = ga1_.data(),
      .gb0 = gb0_.data(), .gb1 = gb1_.data(),
      .ivx = ivx_.data(), .ivy = ivy_.data(), .stol = stol_.data(),
      .reg = reg_.data(), .swi = swi_.data(),
      .crossed = crossed_.data(), .steps = steps_.data(),
      .ncross = ncross_.data(),
      .maxx = maxx_.data(), .minx = minx_.data(),
      .pmaxx = pmaxx_.data(), .pminx = pminx_.data(), .fct = fct_.data(),
      .xn = xn_.data(), .yn = yn_.data(), .s0 = s0_.data(),
      .s1 = s1_.data(), .h = hcur_.data(), .flag = flag_.data()};
  kernel_->candidate_pass(lanes, m);
  // A step that flags no lane has committed every lane and retires none.
  if (!kernel_->commit_pass(lanes, m)) return m;

  // Gather the crossing lanes (branch-free: slot c is overwritten until
  // a crossing lane claims it) and commit them all.  Each commit reads
  // and writes only its own lane, so committing before the compaction
  // below changes nothing.
  std::size_t c = 0;
  for (std::size_t i = 0; i < m; ++i) {
    cross_[c] = static_cast<std::uint32_t>(i);
    c += flag_[i] == kCrossing;
  }
  if (c > 0) {
    for (std::size_t k = c; k % kBlock != 0; ++k) cross_[k] = cross_[c - 1];
    kernel_->crossing_pass(lanes, cross_.data(), c);
  }

  // Scalar pass over the flagged lanes: retirement with swap-from-last
  // compaction.  Results are keyed by original lane id, so the outcome
  // is independent of retirement order.
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
      // The swapped-in lane has not been through this pass yet; its flag
      // and the candidate state a non-finite report prints must travel
      // with it.
      xn_[i] = xn_[n], yn_[i] = yn_[n], flag_[i] = flag_[n];
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
