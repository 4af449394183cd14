#include "ode/trajectory.h"

#include <algorithm>
#include <cassert>

namespace bcn::ode {
namespace {

double component_of(Vec2 z, int component) {
  return component == 0 ? z.x : z.y;
}

}  // namespace

double Trajectory::min_component(int component) const {
  assert(!samples_.empty());
  double m = component_of(samples_.front().z, component);
  for (const Sample& s : samples_) {
    m = std::min(m, component_of(s.z, component));
  }
  return m;
}

double Trajectory::max_component(int component) const {
  assert(!samples_.empty());
  double m = component_of(samples_.front().z, component);
  for (const Sample& s : samples_) {
    m = std::max(m, component_of(s.z, component));
  }
  return m;
}

std::vector<Extremum> Trajectory::local_extrema(int component) const {
  std::vector<Extremum> out;
  for (std::size_t i = 1; i + 1 < samples_.size(); ++i) {
    const double prev = component_of(samples_[i - 1].z, component);
    const double cur = component_of(samples_[i].z, component);
    const double next = component_of(samples_[i + 1].z, component);
    if (cur > prev && cur >= next) {
      out.push_back({samples_[i].t, cur, true});
    } else if (cur < prev && cur <= next) {
      out.push_back({samples_[i].t, cur, false});
    }
  }
  return out;
}

Trajectory Trajectory::decimate(std::size_t stride) const {
  if (stride <= 1 || samples_.size() <= 2) return *this;
  Trajectory out;
  out.reserve(samples_.size() / stride + 2);
  for (std::size_t i = 0; i < samples_.size(); i += stride) {
    out.samples_.push_back(samples_[i]);
  }
  if (out.samples_.back().t != samples_.back().t) {
    out.samples_.push_back(samples_.back());
  }
  return out;
}

}  // namespace bcn::ode
