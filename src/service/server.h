// The stability-verdict service: a persistent TCP server exposing the
// phase-plane analysis engine over the newline-delimited JSON protocol
// of protocol.h (reference: docs/SERVICE.md).
//
// Execution shape:
//
//   accept thread -> one reader thread per connection
//
// Each reader resolves its requests in arrival order and answers each
// before reading the next, so responses on one connection are always
// FIFO and a busy reader stops reading its socket (blocking
// backpressure).  Cheap ops (ping, stats, shutdown) and verdict-cache
// hits are answered at once.  A miss is executed by the reader itself,
// holding one of `threads` execution slots; readers that miss on a key
// already in flight wait for that execution's answer instead of
// repeating it (single flight), so concurrent clients asking the same
// question cost one analysis.  Handlers themselves run serially (no
// nested pools), so parallelism comes from concurrent connections.
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
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/verdict_cache.h"

namespace bcn::service {

struct ServiceConfig {
  int port = 0;  // 0 -> ephemeral; the bound port is reported by port()
  // Cache misses executing at once (exec::resolve_threads semantics).
  int threads = 0;
  std::size_t cache_entries = 4096;
  std::size_t cache_shards = 8;
  obs::MonitorSpec monitors;
};

class ServiceServer {
 public:
  explicit ServiceServer(const ServiceConfig& config);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // Binds, listens and starts the accept thread.  False on socket
  // failure; error() then holds the reason.
  bool start();
  const std::string& error() const { return error_; }

  // The actually-bound port (after start()).
  int port() const { return port_; }

  // What the shutdown op does.  The server keeps serving until stop()
  // runs, so the shutdown response can flush; the thread blocked in
  // wait_for_shutdown() is expected to call stop().
  void request_shutdown();
  // Blocks up to `seconds` for a shutdown request; true when requested
  // (0 only polls).  Short timeouts let callers interleave a signal-flag
  // poll (a signal handler cannot safely notify a condition variable).
  bool wait_for_shutdown(double seconds);

  // Full teardown: unblocks the accept loop and every reader, lets a
  // reader that is executing a request finish and answer it, joins all
  // threads, closes all sockets.  Idempotent.
  void stop();

  const obs::MetricsRegistry& metrics() const { return metrics_; }
  VerdictCache& cache() { return *cache_; }

 private:
  // One in-flight execution of a cache key, shared by its leader and
  // every reader waiting for the same answer.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string body;  // canonical (id-less) response
    bool error = false;
  };

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reader_loop(Connection* conn);
  void handle_line(Connection* conn, const std::string& line);
  std::shared_ptr<Flight> resolve_miss(const Request& request,
                                       const std::string& key);
  // Sends `line`, newline included, in full.
  static bool send_line(int fd, const std::string& line);

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
  obs::Counter* batches_;  // executions: one per single-flight group
  std::unique_ptr<VerdictCache> cache_;

  std::counting_semaphore<> slots_;  // bounds concurrent executions
  std::mutex flights_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // stop() already completed (under conns_mutex_)

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace bcn::service
