// Named (x, y) series: the common currency between traces, benches and the
// ASCII and SVG backends.
#pragma once

#include <string>
#include <vector>

#include "common/math.h"
#include "ode/trajectory.h"

namespace bcn::plot {

struct Series {
  std::string name;
  std::vector<Vec2> points;

  void add(double x, double y) { points.push_back({x, y}); }
  bool empty() const { return points.empty(); }

  double min_x() const;
  double max_x() const;
  double min_y() const;
  double max_y() const;
};

// Time series of one state component (0 -> x, 1 -> y) from a trajectory.
Series series_vs_time(const ode::Trajectory& trajectory, int component,
                      std::string name, double x_scale = 1.0,
                      double y_scale = 1.0);

// Phase-portrait series (state.x vs state.y).
Series series_phase(const ode::Trajectory& trajectory, std::string name,
                    double x_scale = 1.0, double y_scale = 1.0);

}  // namespace bcn::plot
