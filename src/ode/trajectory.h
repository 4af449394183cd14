// Sampled solution of a planar ODE, with query helpers used by the
// phase-plane analysis and the benchmark harnesses.
#pragma once

#include <vector>

#include "common/math.h"

namespace bcn::ode {

struct Sample {
  double t = 0.0;
  Vec2 z;
};

// A local extremum of one state component along a trajectory.
struct Extremum {
  double t = 0.0;
  double value = 0.0;
  bool is_maximum = false;
};

class Trajectory {
 public:
  Trajectory() = default;

  void push_back(double t, Vec2 z) { samples_.push_back({t, z}); }
  void clear() { samples_.clear(); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const Sample& front() const { return samples_.front(); }
  const Sample& back() const { return samples_.back(); }
  const std::vector<Sample>& samples() const { return samples_; }

  double duration() const {
    return empty() ? 0.0 : samples_.back().t - samples_.front().t;
  }

  // Global min / max of the selected component (0 -> x, 1 -> y).
  double min_component(int component) const;
  double max_component(int component) const;

  // All interior local extrema of the selected component.  A sample is an
  // extremum when its value is strictly greater (resp. smaller) than both
  // neighbours; plateaus report their first sample.
  std::vector<Extremum> local_extrema(int component) const;

  // Keeps at most every `stride`-th sample plus the final one; used to thin
  // dense traces before writing CSV/SVG.
  Trajectory decimate(std::size_t stride) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace bcn::ode
