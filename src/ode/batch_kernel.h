// The vector passes compiled into BatchIntegrator, for the tests and
// microbenchmarks that must check or time each one.  No public header
// includes this one: the CPU alone selects the pass a BatchIntegrator
// runs, and nothing here is an option.
#pragma once

#include <cstddef>
#include <vector>

#include "ode/batch.h"

namespace bcn::ode::internal {

// Raw views of one integrator's SoA arrays (defined in batch.cpp).
struct LaneArrays;

struct BatchKernel {
  const char* name;  // "avx2" or "baseline"
  // The fused vector pass over the active lanes [0, m).
  void (*fused_pass)(const LaneArrays& lanes, std::size_t m);

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
