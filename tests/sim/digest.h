// FNV-1a digests over scenario results, field by field, so a pinned value
// catches any drift in a packet scenario's trajectory: the generic digest
// of tests/support plus the sim and obs structs the scenarios report.
#pragma once

#include <cstdint>

#include "../support/digest.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "sim/faults.h"

namespace bcn::sim::testing {

class Digest : public bcn::testing::FnvDigest<Digest> {
 public:
  using FnvDigest::add;

  Digest& add(const FaultCounters& c) {
    return add(c.bcn_dropped)
        .add(c.bcn_duplicated)
        .add(c.bcn_delayed)
        .add(c.data_dropped)
        .add(c.pause_dropped)
        .add(c.link_flaps)
        .add(c.flap_dropped);
  }

  Digest& add(const obs::TraceEvent& e) {
    return add(e.t).add(e.kind).add(e.point).add(e.flow).add(e.sigma).add(
        e.value);
  }

  Digest& add(const obs::Histogram& h) {
    add(h.count()).add(h.sum());
    for (const std::uint64_t n : h.bucket_counts()) add(n);
    return *this;
  }
};

}  // namespace bcn::sim::testing
