#include "obs/event_trace.h"

#include <algorithm>

#include "common/csv.h"

namespace bcn::obs {

void EventTrace::set_ring_capacity(std::size_t capacity) {
  ring_capacity_ = capacity;
  if (capacity > 0) events_.reserve(capacity);
}

void EventTrace::record_ring(const TraceEvent& event) {
  if (events_.size() < ring_capacity_) {
    events_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  events_[ring_head_] = event;
  ring_head_ = (ring_head_ + 1) % ring_capacity_;
  ++evicted_;
}

std::vector<TraceEvent> EventTrace::in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  out.insert(out.end(), events_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
             events_.end());
  out.insert(out.end(), events_.begin(),
             events_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
  return out;
}

std::vector<TraceEvent> EventTrace::recent(std::size_t n) const {
  std::vector<TraceEvent> all = in_order();
  if (all.size() <= n) return all;
  return {all.end() - static_cast<std::ptrdiff_t>(n), all.end()};
}

std::uint64_t EventTrace::count(EventKind kind) const {
  std::uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

const char* EventTrace::kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::BcnNegativeSent: return "bcn_negative_sent";
    case EventKind::BcnPositiveSent: return "bcn_positive_sent";
    case EventKind::BcnRateAdvertSent: return "bcn_rate_advert_sent";
    case EventKind::BcnApplied: return "bcn_applied";
    case EventKind::PauseOn: return "pause_on";
    case EventKind::PauseOff: return "pause_off";
    case EventKind::PauseApplied: return "pause_applied";
    case EventKind::FaultBcnDropped: return "fault_bcn_dropped";
    case EventKind::FaultBcnDelayed: return "fault_bcn_delayed";
    case EventKind::FaultBcnDuplicated: return "fault_bcn_duplicated";
    case EventKind::FaultDataDropped: return "fault_data_dropped";
    case EventKind::FaultPauseDropped: return "fault_pause_dropped";
    case EventKind::LinkDown: return "link_down";
    case EventKind::LinkUp: return "link_up";
  }
  return "unknown";
}

namespace {

CsvWriter build_csv(const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t < b.t;
                   });
  CsvWriter csv({"t", "kind", "point", "flow", "sigma", "value"});
  for (const auto& e : sorted) {
    csv.add_row({CsvWriter::format(e.t), EventTrace::kind_name(e.kind),
                 std::to_string(e.point), std::to_string(e.flow),
                 CsvWriter::format(e.sigma), CsvWriter::format(e.value)});
  }
  return csv;
}

}  // namespace

bool EventTrace::write_csv(const std::filesystem::path& path) const {
  return build_csv(in_order()).write_file(path);
}

}  // namespace bcn::obs
