#include "ode/hybrid.h"

#include <utility>

#include "ode/hybrid_driver.h"

namespace bcn::ode {

HybridResult integrate_hybrid(const HybridSystem& system, double t0, Vec2 z0,
                              double t1, const HybridOptions& options) {
  RecordingSink sink;
  const HybridStats stats =
      run_hybrid(ErasedSystem(system), t0, z0, t1, options, sink);
  return {stats, std::move(sink.trajectory), std::move(sink.switches)};
}

}  // namespace bcn::ode
