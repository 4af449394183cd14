#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/format.h"
#include "obs/tracing.h"

namespace bcn::exec {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  return hardware_threads();
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  const ParallelForOptions& options) {
  const int threads = resolve_threads(options.threads);
  obs::TraceSpan call_span("exec.parallel_for");
  call_span.arg("n", static_cast<double>(n));
  call_span.arg("threads", threads);

  // Legacy serial path: the plain loop in the calling thread, no workers,
  // no atomics.
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Chunk size: enough chunks per worker to balance uneven cells without
  // drowning in counter traffic.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads) * 8));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto run_chunks = [&](int worker) {
    obs::tracing_set_thread_name(strf("pool-worker-%d", worker));
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      obs::TraceSpan chunk_span("exec.chunk");
      chunk_span.arg("begin", static_cast<double>(begin));
      chunk_span.arg("count", static_cast<double>(end - begin));
      chunk_span.arg("worker", worker);
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) workers.emplace_back(run_chunks, t);
  }  // joins every worker
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bcn::exec
