// The vector passes compiled into BatchIntegrator, for the tests and
// microbenchmarks that must check or time each one.  No public header
// includes this one: the CPU alone selects the pass a BatchIntegrator
// runs, and nothing here is an option.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ode/batch.h"

namespace bcn::ode::internal {

// Raw views of one integrator's SoA arrays (defined in batch.cpp).
struct LaneArrays;

struct BatchKernel {
  const char* name;  // "avx2" or "baseline"
  // The candidate pass over the active lanes [0, m).
  void (*candidate_pass)(const LaneArrays& lanes, std::size_t m);
  // The commit pass over the active lanes [0, m); true if it flagged any.
  bool (*commit_pass)(const LaneArrays& lanes, std::size_t m);
  // Localizes and commits the crossings of the lanes idx[0, n); the list
  // is padded to a whole block by repeating its last lane.
  void (*crossing_pass)(const LaneArrays& lanes, const std::uint32_t* idx,
                        std::size_t n);
  // The most crossing lanes the crossing pass bisects together.
  std::size_t group_lanes;

  // Makes `integrator` step with this kernel from now on.
  void install(BatchIntegrator& integrator) const {
    integrator.kernel_ = this;
  }
};

// The kernel the CPU selected, which every BatchIntegrator starts with.
const BatchKernel& host_batch_kernel();

// Every kernel compiled into this build that this CPU can run, the
// baseline first.
std::vector<const BatchKernel*> host_batch_kernels();

}  // namespace bcn::ode::internal
