// End-to-end tests of the stability-verdict TCP server: protocol
// round-trips, FIFO ordering, cache-counter accuracy, single-flight
// sharing of concurrent identical misses, teardown while misses execute,
// and the determinism contract (cached == cold, byte for byte) under
// concurrent clients.  The whole suite runs under TSan in
// scripts/check.sh gate 1.
#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "service/client.h"

namespace bcn::service {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void start(ServiceConfig config = {}) {
    config.threads = 2;
    server_ = std::make_unique<ServiceServer>(config);
    ASSERT_TRUE(server_->start()) << server_->error();
    ASSERT_GT(server_->port(), 0);
  }

  LineClient connect() {
    LineClient client;
    EXPECT_TRUE(client.connect_to("127.0.0.1", server_->port()))
        << client.error();
    return client;
  }

  std::uint64_t counter(const std::string& name) {
    const auto* c = server_->metrics().find_counter(name);
    return c ? c->value() : 0;
  }

  // A raw socket: LineClient always terminates what it sends.
  int connect_raw() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static void write_all(int fd, const std::string& bytes) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  // Reads until `lines` newlines have arrived, or EOF.
  static std::string read_lines(int fd, int lines) {
    std::string reply;
    char chunk[256];
    while (std::count(reply.begin(), reply.end(), '\n') < lines) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      reply.append(chunk, static_cast<std::size_t>(n));
    }
    return reply;
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServerTest, PingVerdictAndErrorRoundTrip) {
  start();
  LineClient client = connect();
  EXPECT_EQ(client.request("{\"op\":\"ping\",\"id\":1}").value(),
            "{\"id\":1,\"op\":\"ping\",\"ok\":true}");

  const auto verdict = client.request("{\"op\":\"verdict\",\"id\":2}");
  ASSERT_TRUE(verdict);
  const auto body = FlatJson::parse(*verdict);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("id").value(), 2.0);
  EXPECT_EQ(body->string_value("op").value(), "verdict");
  EXPECT_TRUE(body->string_value("text").has_value());

  const auto error = client.request("{\"op\":\"verdict\",\"a\":\"x\"}");
  ASSERT_TRUE(error);
  EXPECT_NE(error->find("\"error\":\"bad_request\""), std::string::npos);
  server_->stop();
}

TEST_F(ServerTest, PipelinedRequestsAnswerInFifoOrder) {
  start();
  LineClient client = connect();
  // Queue a slow analytic request, a cacheable repeat, and two cheap
  // ops before reading anything; responses must come back 1,2,3,4.
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":1}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":2}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"ping\",\"id\":3}"));
  ASSERT_TRUE(client.send_line("{\"op\":\"verdict\",\"id\":4,\"a\":4e8}"));
  for (int expected = 1; expected <= 4; ++expected) {
    const auto response = client.read_line();
    ASSERT_TRUE(response);
    const auto body = FlatJson::parse(*response);
    ASSERT_TRUE(body) << *response;
    EXPECT_EQ(body->number("id").value(), expected);
  }
  server_->stop();
}

TEST_F(ServerTest, CacheCountersTrackLookupsExactly) {
  ServiceConfig config;
  config.cache_entries = 2;
  config.cache_shards = 1;
  start(config);
  LineClient client = connect();
  // Distinct verdicts: a=4e8, a=5e8, a=6e8 with capacity 2 -> the third
  // insert evicts a=4e8; repeating it is a miss again.
  const char* first = "{\"op\":\"verdict\",\"a\":4e8}";
  ASSERT_TRUE(client.request(first));
  ASSERT_TRUE(client.request(first));  // hit
  ASSERT_TRUE(client.request("{\"op\":\"verdict\",\"a\":5e8}"));
  ASSERT_TRUE(client.request("{\"op\":\"verdict\",\"a\":6e8}"));  // evicts
  ASSERT_TRUE(client.request(first));  // miss: was evicted
  EXPECT_EQ(counter("service.cache.hits"), 1u);
  EXPECT_EQ(counter("service.cache.misses"), 4u);
  EXPECT_EQ(counter("service.cache.evictions"), 2u);
  EXPECT_EQ(counter("service.requests"), 5u);

  // The stats op reports the same registry.
  const auto stats = client.request("{\"op\":\"stats\"}");
  ASSERT_TRUE(stats);
  const auto body = FlatJson::parse(*stats);
  ASSERT_TRUE(body);
  EXPECT_EQ(body->number("service.cache.hits").value(), 1.0);
  EXPECT_EQ(body->number("service.cache.misses").value(), 4.0);
  server_->stop();
}

TEST_F(ServerTest, CachedEqualsColdByteForByteUnderConcurrentClients) {
  start();
  // Phase 1 (cold): one client warms each distinct request once.
  std::vector<std::string> pool;
  for (int i = 0; i < 6; ++i) {
    JsonWriter json;
    json.add("op", "verdict");
    json.add("a", 8e8 + 2e8 * i);
    pool.push_back(json.to_line());
  }
  std::map<std::string, std::string> cold;
  {
    LineClient client = connect();
    for (const auto& line : pool) {
      const auto response = client.request(line);
      ASSERT_TRUE(response);
      cold[line] = *response;
    }
  }
  EXPECT_EQ(counter("service.cache.misses"), pool.size());

  // Phase 2 (cached): concurrent clients replay the pool; every
  // response must equal its cold counterpart byte for byte.
  constexpr int kClients = 4;
  constexpr int kPasses = 5;
  std::mutex mismatch_mutex;
  std::vector<std::string> mismatches;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LineClient client;
      if (!client.connect_to("127.0.0.1", server_->port())) return;
      for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          const auto& line = pool[(i + static_cast<std::size_t>(c)) %
                                  pool.size()];
          const auto response = client.request(line);
          if (!response || *response != cold[line]) {
            std::lock_guard<std::mutex> lock(mismatch_mutex);
            mismatches.push_back(line);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " responses diverged from cold";
  // Every phase-2 lookup was a hit: the pool was fully warmed first.
  EXPECT_EQ(counter("service.cache.hits"),
            static_cast<std::uint64_t>(kClients * kPasses) * pool.size());
  EXPECT_EQ(counter("service.cache.misses"), pool.size());
  server_->stop();
}

TEST_F(ServerTest, ConcurrentIdenticalMissesShareOneExecution) {
  start();
  // Four readers miss on one slow key at once.  The first leads the
  // execution; the others wait for its answer (or hit the cache, if
  // they look after the leader's insert) instead of running it again.
  constexpr int kClients = 4;
  const std::string line =
      "{\"op\":\"stability_map\",\"grid\":12,\"mode\":\"scalar\"}";
  std::vector<LineClient> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(connect());
  std::vector<std::optional<std::string>> responses(kClients);
  std::latch go(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      go.arrive_and_wait();
      responses[c] = clients[c].request(line);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& response : responses) {
    ASSERT_TRUE(response);
    EXPECT_FALSE(response->empty());
    EXPECT_EQ(*response, *responses[0]);
  }
  EXPECT_EQ(counter("service.cache.hits") + counter("service.cache.misses"),
            4u);
  EXPECT_EQ(counter("service.batches"), 1u);
  server_->stop();
}

TEST_F(ServerTest, StopWhileMissesExecuteJoinsEveryReader) {
  start();
  // Three distinct slow maps on two slots: two execute, one waits for a
  // slot.  stop() must let each reader finish its request and return.
  std::vector<LineClient> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(connect());
    JsonWriter json;
    json.add("op", "stability_map");
    json.add("grid", 12);
    json.add("mode", "scalar");
    json.add("a_max", 1e10 + 1e9 * c);
    ASSERT_TRUE(clients.back().send_line(json.to_line()));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter("service.cache.misses") < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server_->stop();
  // Every reader that missed ran its execution to the end.
  EXPECT_EQ(counter("service.batches"), counter("service.cache.misses"));
}

TEST_F(ServerTest, ShutdownOpUnblocksWaitAndStopIsIdempotent) {
  start();
  LineClient client = connect();
  EXPECT_FALSE(server_->shutdown_requested());
  const auto response = client.request("{\"op\":\"shutdown\",\"id\":1}");
  ASSERT_TRUE(response);
  EXPECT_NE(response->find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(server_->wait_for_shutdown(5.0));
  server_->stop();
  server_->stop();  // idempotent
  LineClient refused;
  EXPECT_FALSE(refused.connect_to("127.0.0.1", server_->port()));
}

// The reader walks each read by offset: several lines in one write, CRLF
// and empty lines, and a line split across two writes each answer once,
// in order.
TEST_F(ServerTest, ReaderSplitsLinesWithinAndAcrossReads) {
  start();
  const int fd = connect_raw();
  write_all(fd,
            "{\"op\":\"ping\",\"id\":1}\r\n\n\r\n{\"op\":\"ping\",\"id\":2}\n"
            "{\"op\":\"pi");
  // Both answers arrive before the third line's rest is sent.
  std::string reply = read_lines(fd, 2);
  write_all(fd, "ng\",\"id\":3}\n");
  reply += read_lines(fd, 1);
  ::close(fd);
  EXPECT_EQ(reply,
            "{\"id\":1,\"op\":\"ping\",\"ok\":true}\n"
            "{\"id\":2,\"op\":\"ping\",\"ok\":true}\n"
            "{\"id\":3,\"op\":\"ping\",\"ok\":true}\n");
  EXPECT_EQ(counter("service.requests"), 3u);
  EXPECT_EQ(counter("service.errors"), 0u);
  server_->stop();
}

TEST_F(ServerTest, OverlongRequestLineIsRejectedAndCutOff) {
  start();
  const int fd = connect_raw();
  write_all(fd, std::string((1 << 20) + 1, 'x'));  // 1 MiB + 1, no newline
  // read() returning 0 is the EOF the server owes us.
  const std::string reply = read_lines(fd, 2);
  ::close(fd);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.back(), '\n');
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "one line, then EOF";
  EXPECT_NE(reply.find("\"error\":\"parse\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("request line too long"), std::string::npos) << reply;
  EXPECT_EQ(counter("service.errors"), 1u);
  server_->stop();
}

TEST_F(ServerTest, DestructorStopsARunningServer) {
  start();
  LineClient client = connect();
  ASSERT_TRUE(client.request("{\"op\":\"verdict\"}"));
  server_.reset();  // ~ServiceServer must tear down cleanly mid-connection
}

}  // namespace
}  // namespace bcn::service
