// Parameter-sweep helpers shared by the stability-map analysis and the
// benchmark harnesses.
#pragma once

#include <vector>

namespace bcn::analysis {

// n evenly spaced values from lo to hi inclusive.  Degenerate shapes are
// well defined: n <= 0 -> {}, n == 1 -> {lo}, lo == hi -> n copies of lo;
// both endpoints are exact (no accumulated rounding at hi).
std::vector<double> linspace(double lo, double hi, int n);

// n log-spaced values from lo to hi inclusive (lo, hi > 0).  Same
// degenerate shapes and exact endpoints as linspace.  Throws
// std::invalid_argument on non-positive bounds — in release builds too,
// where the old assert would have compiled out and produced NaN axes.
std::vector<double> logspace(double lo, double hi, int n);

}  // namespace bcn::analysis
