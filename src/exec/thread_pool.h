// Fixed-size worker pool for the execution layer.  Workers are started
// once and fed through a simple task queue; `wait_idle` gives the
// fork-join shape `parallel_for` needs without re-spawning threads per
// grid.  The pool never touches library state: tasks own their data.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bcn::exec {

// Number of workers a `threads` knob resolves to: 0 means "all hardware
// threads" (never less than 1), anything else is taken literally.
int resolve_threads(int requested);

// Hardware threads this machine offers (never less than 1) -- what a
// `threads` knob of 0 resolves to.
int hardware_threads();

// Index of the calling pool worker within its pool, or -1 off-pool.
// Trace spans recorded inside parallel_for chunks attach it so a
// Perfetto timeline shows which worker ran which chunk.
int current_worker_index();

class ThreadPool {
 public:
  // Starts `threads` workers (resolved via resolve_threads).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task.  Tasks must not submit further tasks and must not
  // throw (parallel_for funnels exceptions itself).
  void submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop(int index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace bcn::exec
