// Chunked data-parallel loop: the execution layer's one fork-join.
//
// Determinism contract: the body is called exactly once per index, and
// callers write results *by index* (parallel_map allocates the output
// vector up front and the body fills slot i).  Because cells are
// independent and land in their own slots, the output of a parallel run
// is bitwise identical to the serial run — only the completion order
// differs.  `threads == 1` runs the plain loop in the calling thread, so
// the legacy serial path stays exactly what it was.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/thread_pool.h"

namespace bcn::exec {

struct ParallelForOptions {
  int threads = 0;  // 0 = hardware concurrency, 1 = serial path
};

// Runs body(i) for i in [0, n).  With more than one thread the call starts
// that many workers, which claim chunks of n / (threads * 8) indices from
// one atomic counter, and joins them before it returns; the calling thread
// only waits.  Rethrows the first body exception in the calling thread
// (remaining chunks are abandoned).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelForOptions& options = {});

// Maps fn over [0, n) into a vector, slot i = fn(i).  T must be
// default-constructible.  Output is index-ordered (and therefore
// thread-count independent) by construction.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn,
                            const ParallelForOptions& options = {}) {
  std::vector<T> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, options);
  return out;
}

}  // namespace bcn::exec
