#include "analysis/sweep.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/format.h"

namespace bcn::analysis {

std::vector<double> linspace(double lo, double hi, int n) {
  if (n <= 0) return {};
  if (n == 1) return {lo};
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  if (lo == hi) {
    out.assign(static_cast<std::size_t>(n), lo);
    return out;
  }
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) / (n - 1));
  }
  out.back() = hi;  // exact endpoint, no accumulated rounding
  return out;
}

std::vector<double> logspace(double lo, double hi, int n) {
  // A real error path, not an assert: under NDEBUG a non-positive bound
  // would otherwise silently produce NaN axes that fan out into every
  // parallel map cell.
  if (!(lo > 0.0) || !(hi > 0.0)) {
    throw std::invalid_argument(
        strf("logspace requires positive bounds, got [%g, %g]", lo, hi));
  }
  if (n <= 0) return {};
  if (n == 1) return {lo};
  if (lo == hi) return std::vector<double>(static_cast<std::size_t>(n), lo);
  std::vector<double> out = linspace(std::log(lo), std::log(hi), n);
  for (double& v : out) v = std::exp(v);
  out.front() = lo;  // exact endpoints: exp(log(x)) need not round-trip
  out.back() = hi;
  return out;
}

}  // namespace bcn::analysis
