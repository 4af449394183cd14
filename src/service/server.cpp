#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace bcn::service {

// A connection whose unterminated request line grows past this is sent a
// parse error and cut off.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// --- JobQueue ---------------------------------------------------------------

bool ServiceServer::JobQueue::push(std::shared_ptr<Job> job) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_.wait(lock,
              [this] { return stopped_ || jobs_.size() < capacity_; });
  if (stopped_) return false;
  jobs_.push_back(std::move(job));
  ready_.notify_one();
  return true;
}

std::shared_ptr<ServiceServer::Job> ServiceServer::JobQueue::pop_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return stopped_ || !jobs_.empty(); });
  if (jobs_.empty()) return nullptr;
  auto job = std::move(jobs_.front());
  jobs_.pop_front();
  space_.notify_one();
  return job;
}

void ServiceServer::JobQueue::drain_into(
    std::vector<std::shared_ptr<Job>>& out, std::size_t max) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t taken = 0;
  while (taken < max && !jobs_.empty()) {
    out.push_back(std::move(jobs_.front()));
    jobs_.pop_front();
    ++taken;
  }
  if (taken > 0) space_.notify_all();
}

void ServiceServer::JobQueue::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  ready_.notify_all();
  space_.notify_all();
}

// --- lifecycle --------------------------------------------------------------

ServiceServer::ServiceServer(const ServiceConfig& config)
    : config_(config),
      connections_(&metrics_.counter("service.connections")),
      requests_(&metrics_.counter("service.requests")),
      errors_(&metrics_.counter("service.errors")),
      batches_(&metrics_.counter("service.batches")),
      queue_(config.queue_capacity > 0 ? config.queue_capacity : 1) {
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

  pool_ = std::make_unique<exec::ThreadPool>(config_.threads);
  batch_thread_ = std::thread([this] { batch_loop(); });
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
  // 2. Unblock every reader's read(); readers waiting on a pending job
  //    stay blocked until the batcher answers it below.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  // 3. Stop admissions; the batcher drains whatever is queued (every
  //    admitted job still gets an answer) and exits.
  queue_.stop();
  if (batch_thread_.joinable()) batch_thread_.join();
  // 4. Readers are now answerable and unblocked; join and close.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    conns_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  pool_.reset();
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

bool ServiceServer::write_line(int fd, const std::string& body) {
  std::string out = body;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void ServiceServer::reader_loop(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while (alive && (pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, std::move(line));
      if (stopping_.load(std::memory_order_acquire)) alive = false;
    }
    if (buffer.size() > kMaxLineBytes) {
      errors_->inc();
      write_line(conn->fd, error_response("parse", "request line too long"));
      ::shutdown(conn->fd, SHUT_RDWR);  // the peer reads EOF next
      break;
    }
  }
  // The fd is closed by the accept loop's reaper or by stop(), never
  // here: closing it while stop() may concurrently shutdown() the same
  // fd would race with kernel fd reuse.  shutdown() keeps the fd open.
  conn->done.store(true, std::memory_order_release);
}

void ServiceServer::handle_line(Connection* conn, std::string line) {
  std::string parse_error;
  auto request = parse_request(line, &parse_error);
  if (!request) {
    errors_->inc();
    write_line(conn->fd, parse_error);
    return;
  }
  requests_->inc();

  // Cheap control-plane ops run inline on the reader: the stats
  // snapshot must not sit behind queued analysis work.
  if (request->op == "ping" || request->op == "stats" ||
      request->op == "shutdown") {
    const ExecResult result = execute(*request, options_, &metrics_);
    write_line(conn->fd, attach_id(request->id, result.body));
    if (request->op == "shutdown") request_shutdown();
    return;
  }

  const std::string key = cache_key(*request);
  if (auto cached = cache_->get(key)) {
    write_line(conn->fd, attach_id(request->id, *cached));
    return;
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(*request);
  job->key = key;
  if (!queue_.push(job)) {
    errors_->inc();
    write_line(conn->fd, attach_id(job->request.id,
                                   error_response("shutting_down",
                                                  "server is shutting down")));
    return;
  }
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&job] { return job->done; });
  }
  if (job->error) errors_->inc();
  write_line(conn->fd, attach_id(job->request.id, job->body));
}

// --- batcher ----------------------------------------------------------------

void ServiceServer::finish(Job& job, std::string body, bool is_error) {
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.body = std::move(body);
    job.error = is_error;
    job.done = true;
  }
  job.cv.notify_one();
}

void ServiceServer::batch_loop() {
  std::vector<std::shared_ptr<Job>> batch;
  for (;;) {
    batch.clear();
    auto first = queue_.pop_wait();
    if (!first) return;  // stopped and fully drained
    batch.push_back(std::move(first));
    if (config_.max_batch > 1) {
      queue_.drain_into(batch, config_.max_batch - 1);
    }
    batches_->inc();

    // Deduplicate within the batch: jobs sharing a cache key are
    // answered by one execution (concurrent clients asking the same
    // question cost one analysis, not N).
    std::vector<std::vector<std::shared_ptr<Job>>> groups;
    for (auto& job : batch) {
      bool grouped = false;
      for (auto& group : groups) {
        if (group.front()->key == job->key) {
          group.push_back(std::move(job));
          grouped = true;
          break;
        }
      }
      if (!grouped) groups.push_back({std::move(job)});
    }

    for (auto& group : groups) {
      pool_->submit([this, &group] {
        ExecResult result = execute(group.front()->request, options_,
                                    &metrics_);
        if (result.cacheable && !result.error) {
          cache_->put(group.front()->key, result.body);
        }
        for (std::size_t i = 0; i < group.size(); ++i) {
          finish(*group[i], result.body, result.error);
        }
      });
    }
    pool_->wait_idle();  // micro-batch barrier: groups die with the loop
  }
}

}  // namespace bcn::service
