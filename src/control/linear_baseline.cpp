#include "control/linear_baseline.h"

namespace bcn::control {
namespace {

SubsystemReport analyze_subsystem(double m, double n) {
  const SecondOrderSystem system(m, n);
  return {m, n, system.classify(), system.is_hurwitz_stable()};
}

}  // namespace

LinearBaselineReport analyze_linear_baseline(double a, double b, double k,
                                             double capacity) {
  LinearBaselineReport report;
  report.increase = analyze_subsystem(a * k, a);
  report.decrease = analyze_subsystem(k * b * capacity, b * capacity);
  report.declared_stable =
      report.increase.hurwitz_stable && report.decrease.hurwitz_stable;
  return report;
}

}  // namespace bcn::control
