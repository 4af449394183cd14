// The stability-verdict service: a persistent TCP server exposing the
// phase-plane analysis engine over the newline-delimited JSON protocol
// of protocol.h (reference: docs/SERVICE.md).
//
// Execution shape:
//
//   accept thread -> one reader thread per connection
//                 -> bounded admission queue (blocking backpressure)
//                 -> single batcher thread
//                 -> micro-batches on the exec-layer ThreadPool
//
// Each reader resolves requests in arrival order: cheap ops (ping,
// stats, shutdown) and verdict-cache hits are answered inline; misses
// are pushed onto the admission queue and the reader blocks until the
// batcher has executed the job, so responses on one connection are
// always FIFO.  The batcher drains up to `max_batch` jobs at a time,
// deduplicates jobs sharing a cache key (one execution answers all of
// them), dispatches one pool task per distinct key and waits for the
// batch to finish; handlers themselves run serially (no nested pools),
// so parallelism comes from batching across connections.
//
// Determinism contract: every analytic response is a pure function of
// its quantized cache key (protocol.h), so a cached answer is
// byte-identical to a cold one, and verdict text is byte-identical to
// the matching `bcn_analyze` stdout.
//
// The server binds to 127.0.0.1 only: it is local tooling, not an
// internet-facing daemon.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/verdict_cache.h"

namespace bcn::service {

struct ServiceConfig {
  int port = 0;  // 0 -> ephemeral; the bound port is reported by port()
  int threads = 0;  // pool workers (exec::resolve_threads semantics)
  std::size_t cache_entries = 4096;
  std::size_t cache_shards = 8;
  // Admission-queue bound: readers block (backpressure) when this many
  // cache misses are already waiting for the batcher.
  std::size_t queue_capacity = 256;
  // Largest micro-batch the batcher dispatches onto the pool at once.
  std::size_t max_batch = 32;
  obs::MonitorSpec monitors;
};

class ServiceServer {
 public:
  explicit ServiceServer(const ServiceConfig& config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens and starts the accept / batcher threads.  False on
  // socket failure; error() then holds the reason.
  bool start();
  const std::string& error() const { return error_; }

  // The actually-bound port (after start()).
  int port() const { return port_; }

  // True once a client issued the shutdown op (or request_shutdown()
  // was called).  The server keeps serving until stop() runs, so the
  // shutdown response can flush; the thread blocked in
  // wait_for_shutdown() is expected to call stop().
  bool shutdown_requested() const;
  void request_shutdown();
  // Blocks up to `seconds` for a shutdown request; true when requested.
  // Short timeouts let callers interleave a signal-flag poll (a signal
  // handler cannot safely notify a condition variable).
  bool wait_for_shutdown(double seconds);

  // Full teardown: unblocks the accept loop and every reader, drains
  // the admission queue through the batcher (pending jobs still get
  // answers), joins all threads, closes all sockets.  Idempotent.
  void stop();

  const obs::MetricsRegistry& metrics() const { return metrics_; }
  VerdictCache& cache() { return *cache_; }

 private:
  struct Job {
    Request request;
    std::string key;
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string body;  // canonical (id-less) response
    bool error = false;
  };

  // Bounded blocking MPSC queue between readers and the batcher.
  class JobQueue {
   public:
    explicit JobQueue(std::size_t capacity) : capacity_(capacity) {}
    // Blocks while full; false once stopped (the job was not enqueued).
    bool push(std::shared_ptr<Job> job);
    // Blocks for the next job; null only when stopped AND empty, so the
    // batcher drains every admitted job before exiting.
    std::shared_ptr<Job> pop_wait();
    // Grabs up to `max` more jobs without waiting.
    void drain_into(std::vector<std::shared_ptr<Job>>& out, std::size_t max);
    void stop();

   private:
    std::size_t capacity_;
    std::mutex mutex_;
    std::condition_variable ready_, space_;
    std::deque<std::shared_ptr<Job>> jobs_;
    bool stopped_ = false;
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reader_loop(Connection* conn);
  void handle_line(Connection* conn, std::string line);
  void batch_loop();
  static bool write_line(int fd, const std::string& body);
  void finish(Job& job, std::string body, bool is_error);

  ServiceConfig config_;
  ServiceOptions options_;
  std::string error_;

  // Declared before the cache, whose counters live in the registry.
  // Every registry entry is created in the constructor: the stats op
  // snapshots the registry concurrently with handlers, which is safe
  // only because the entry maps never change after construction.
  obs::MetricsRegistry metrics_;
  obs::Counter* connections_;
  obs::Counter* requests_;
  obs::Counter* errors_;
  obs::Counter* batches_;
  std::unique_ptr<VerdictCache> cache_;
  std::unique_ptr<exec::ThreadPool> pool_;
  JobQueue queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::thread batch_thread_;

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // stop() already completed (under conns_mutex_)

  mutable std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace bcn::service
