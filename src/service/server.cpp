#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "exec/thread_pool.h"

namespace bcn::service {

// A connection whose unterminated request line grows past this is sent a
// parse error and cut off.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// --- lifecycle --------------------------------------------------------------

ServiceServer::ServiceServer(const ServiceConfig& config)
    : config_(config),
      connections_(&metrics_.counter("service.connections")),
      requests_(&metrics_.counter("service.requests")),
      errors_(&metrics_.counter("service.errors")),
      batches_(&metrics_.counter("service.batches")),
      slots_(exec::resolve_threads(config.threads)) {
  options_.monitors = config.monitors;
  VerdictCache::Config cache_config;
  cache_config.entries = config.cache_entries;
  cache_config.shards = config.cache_shards;
  cache_ = std::make_unique<VerdictCache>(cache_config, &metrics_);
}

ServiceServer::~ServiceServer() { stop(); }

bool ServiceServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

bool ServiceServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return shutdown_requested_;
}

void ServiceServer::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool ServiceServer::wait_for_shutdown(double seconds) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [this] { return shutdown_requested_; });
}

void ServiceServer::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopped_ || listen_fd_ < 0) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
  }
  // 1. Unblock and retire the accept loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Unblock every reader's read().
  // 3. Join the readers.  One that is executing a request finishes it
  //    and answers it; a leader's publish releases the readers waiting
  //    on its flight, and a slot always frees once an execution ends.
  // 4. Close the fds, which no reader ever closes itself.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    conns_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  request_shutdown();  // release any wait_for_shutdown() caller
}

// --- accept / read ----------------------------------------------------------

void ServiceServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener is gone
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopped_) {
      ::close(fd);
      return;
    }
    // Reap connections whose readers already finished, so a long-lived
    // server with many short connections does not accumulate threads.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        ::close((*it)->fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    connections_->inc();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { reader_loop(raw); });
    conns_.push_back(std::move(conn));
  }
}

bool ServiceServer::send_line(int fd, const std::string& line) {
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void ServiceServer::reader_loop(Connection* conn) {
  std::string buffer;
  std::string line;  // reused, so a warm reader copies lines without allocating
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    // Walk the complete lines by offset; erase them once per read.
    std::size_t begin = 0;
    while (alive) {
      const std::size_t end = buffer.find('\n', begin);
      if (end == std::string::npos) break;
      line.assign(buffer, begin, end - begin);
      begin = end + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
      if (stopping_.load(std::memory_order_acquire)) alive = false;
    }
    buffer.erase(0, begin);
    if (buffer.size() > kMaxLineBytes) {
      errors_->inc();
      const std::string error =
          error_response("parse", "request line too long");
      send_line(conn->fd, response_line(std::nullopt, error));
      ::shutdown(conn->fd, SHUT_RDWR);  // the peer reads EOF next
      break;
    }
  }
  // The fd is closed by the accept loop's reaper or by stop(), never
  // here: closing it while stop() may concurrently shutdown() the same
  // fd would race with kernel fd reuse.  shutdown() keeps the fd open.
  conn->done.store(true, std::memory_order_release);
}

void ServiceServer::handle_line(Connection* conn, const std::string& line) {
  std::string parse_error;
  auto request = parse_request(line, &parse_error);
  if (!request) {
    errors_->inc();
    parse_error += '\n';
    send_line(conn->fd, parse_error);
    return;
  }
  requests_->inc();

  // Only the control-plane ops (ping, stats, shutdown) have no cache
  // key.  They run at once and take no slot: the stats snapshot must not
  // sit behind analysis work.
  const std::string key = cache_key(*request);
  if (key.empty()) {
    const ExecResult result = execute(*request, options_, &metrics_);
    send_line(conn->fd, response_line(request->id, result.body));
    if (request->op == "shutdown") request_shutdown();
    return;
  }

  if (const auto cached = cache_->get(key)) {
    send_line(conn->fd, response_line(request->id, *cached));
    return;
  }

  const auto flight = resolve_miss(*request, key);
  if (flight->error) errors_->inc();
  send_line(conn->fd, response_line(request->id, flight->body));
}

// --- single flight ----------------------------------------------------------

// The first reader to miss on a key leads its flight: it takes a slot,
// executes, caches the answer, retires the flight and publishes.  A
// reader that misses on a key already in flight waits for that answer.
// One window stays open: a reader that misses the cache just before the
// leader's insert, and reaches the table just after the leader's erase,
// leads a second execution of the same key.  That wastes one analysis
// but never answers wrongly, since a response is a pure function of its
// key; closing it would take a second, counted cache lookup.
std::shared_ptr<ServiceServer::Flight> ServiceServer::resolve_miss(
    const Request& request, const std::string& key) {
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto& entry = flights_[key];
    if (!entry) {
      entry = std::make_shared<Flight>();
      leader = true;
    }
    flight = entry;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&flight] { return flight->done; });
    return flight;
  }

  slots_.acquire();
  batches_->inc();
  ExecResult result = execute(request, options_, &metrics_);
  slots_.release();
  if (result.cacheable && !result.error) cache_->put(key, result.body);
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    flights_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->body = std::move(result.body);
    flight->error = result.error;
    flight->done = true;
  }
  flight->cv.notify_all();
  return flight;
}

}  // namespace bcn::service
