// FNV-1a digests over scenario results, field by field, so a pinned value
// catches any drift in a packet scenario's trajectory (struct padding
// never enters the hash).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "sim/faults.h"

namespace bcn::sim::testing {

class Digest {
 public:
  template <typename T>
  Digest& add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
    return *this;
  }

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

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace bcn::sim::testing
