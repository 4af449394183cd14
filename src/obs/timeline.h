// Named time series ("timelines") for simulator observability: per-flow
// rates, per-port queue lengths, or any other (t, value) signal.
//
// A TimelineSet keys timelines by name and exports them as one
// long-format CSV (series,t,value) with series in name order, so the
// artifact is deterministic regardless of recording interleaving.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace bcn::obs {

struct TimelinePoint {
  double t = 0.0;  // seconds
  double value = 0.0;
};

class Timeline {
 public:
  void record(double t, double value) { points_.push_back({t, value}); }
  const std::vector<TimelinePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

 private:
  std::vector<TimelinePoint> points_;
};

class TimelineSet {
 public:
  // Creates on first use; the returned reference is stable for the life
  // of the set, so hot paths can hold it across records.
  Timeline& series(const std::string& name) { return series_[name]; }

  const Timeline* find(const std::string& name) const;
  std::vector<std::string> names() const;  // sorted
  bool empty() const { return series_.empty(); }
  std::size_t size() const { return series_.size(); }
  std::size_t total_points() const;

  // Long-format CSV: header series,t,value; rows grouped by series in
  // name order, points in recording order.
  bool write_csv(const std::filesystem::path& path) const;

 private:
  std::map<std::string, Timeline> series_;
};

}  // namespace bcn::obs
