// service workload: the stability-verdict service under a closed loop of
// scripted clients that each wait for their reply.  90 % of requests come
// from a hot set warmed during set-up (cache hits: parse -> key -> cache
// read -> write); 10 % were never seen before (misses: admission queue,
// batcher, pool, scalar core/ode verdict and report render, cache insert
// and eviction).  The split shows when a gain on one path costs the other.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/batch_verdict.h"
#include "core/simulate.h"
#include "core/stability.h"
#include "exec/parallel_for.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/verdict_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace service = bcn::service;

constexpr int kConnections = 2;
constexpr int kPoolThreads = 2;
constexpr std::size_t kHotSet = 64;
constexpr std::uint64_t kBlock = 10;  // one cold request per ten

// A verdict request on a random plant: a = Ru Gi N and b = Gd drawn
// log-uniform around the standard-draft defaults (1.6e9 and 1/128).
std::string random_verdict(bcn::Rng& rng) {
  bcn::JsonWriter json;
  json.add("op", "verdict");
  json.add("a", std::exp(rng.uniform(std::log(8e8), std::log(4e9))));
  json.add("b", std::exp(rng.uniform(std::log(1.0 / 256), std::log(1.0 / 64))));
  return json.to_line();
}

std::vector<std::string> hot_lines(std::uint64_t seed) {
  bcn::Rng rng(stream_seed(seed, 1));
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kHotSet; ++i) lines.push_back(random_verdict(rng));
  return lines;
}

struct StreamRequest {
  bool cold = false;
  std::size_t hot = 0;  // hot-set index when !cold
  std::string line;     // the fresh request when cold
};

// The seeded request stream of one connection: blocks of ten, one cold
// request at a random slot, nine picks from the hot set.
class Stream {
 public:
  Stream(std::uint64_t seed, int connection)
      : rng_(stream_seed(seed, 100 + static_cast<std::uint64_t>(connection))) {}

  StreamRequest next() {
    if (slot_ == 0) cold_slot_ = rng_.uniform_int(kBlock);
    StreamRequest r;
    r.cold = slot_ == cold_slot_;
    if (r.cold) {
      r.line = random_verdict(rng_);
    } else {
      r.hot = static_cast<std::size_t>(rng_.uniform_int(kHotSet));
    }
    slot_ = (slot_ + 1) % kBlock;
    return r;
  }
  bool at_block_start() const { return slot_ == 0; }

 private:
  bcn::Rng rng_;
  std::uint64_t slot_ = 0;
  std::uint64_t cold_slot_ = 0;
};

// What protocol::execute answers for a line (no id: the body verbatim).
std::string expected_body(const std::string& line) {
  std::string error;
  const auto request = service::parse_request(line, &error);
  if (!request) return error;
  return service::execute(*request, {}, nullptr).body;
}

std::size_t hash_of(const std::string& s) { return std::hash<std::string>{}(s); }

// The service's set-up: server start, connections, hot-set warm-up.
struct LiveService {
  std::vector<std::string> hot;
  std::unique_ptr<service::ServiceServer> server;
  std::vector<service::LineClient> clients;

  explicit LiveService(std::uint64_t seed) : hot(hot_lines(seed)) {
    service::ServiceConfig config;
    config.threads = kPoolThreads;
    server = std::make_unique<service::ServiceServer>(config);
    if (!server->start()) {
      throw std::runtime_error("service start: " + server->error());
    }
    clients.resize(kConnections);
    for (auto& client : clients) {
      if (!client.connect_to("127.0.0.1", server->port())) {
        throw std::runtime_error("connect: " + client.error());
      }
    }
    bool ok[kConnections] = {true, true};
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([this, c, &ok] {
        for (std::size_t i = c; i < kHotSet; i += kConnections) {
          if (!clients[c].request(hot[i])) ok[c] = false;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (!ok[0] || !ok[1]) {
      throw std::runtime_error("hot-set warm-up lost a response");
    }
  }

  std::uint64_t counter(const char* name) const {
    const auto* c = server->metrics().find_counter(name);
    return c ? c->value() : 0;
  }

  void close() {
    clients.clear();
    server->stop();
  }
};

// One connection's record of the closed loop, in memory that does not
// grow with the request count (beyond 8 bytes per cold request), so peak
// RSS measures the service rather than the load generator.
struct ConnectionLog {
  LatencyHistogram hot_latency, cold_latency;
  // Per hot-set index: how often each response hash came back.
  std::vector<std::unordered_map<std::size_t, std::uint64_t>> hot_hashes =
      std::vector<std::unordered_map<std::size_t, std::uint64_t>>(kHotSet);
  // Response hash of each cold request in stream order; the lines
  // themselves are regenerated from the seed for the check.
  std::vector<std::size_t> cold_hashes;
  std::uint64_t lost = 0;  // requests that got no response
};

struct LoopResult {
  std::vector<ConnectionLog> logs;
  double elapsed = 0.0;
  double server_cpu = 0.0;  // process CPU seconds minus the clients'
  std::uint64_t hits = 0, misses = 0, batches = 0;  // server counter deltas
  std::uint64_t hot_requests = 0, cold_requests = 0;
  LatencyHistogram all, hot, cold;  // merged over connections
};

// kConnections closed-loop clients, no think time, each on its own seeded
// stream, until `seconds` have passed and its current block is complete.
LoopResult closed_loop(LiveService& s, std::uint64_t seed, double seconds) {
  LoopResult out;
  out.logs.resize(kConnections);
  const std::uint64_t hits0 = s.counter("service.cache.hits");
  const std::uint64_t misses0 = s.counter("service.cache.misses");
  const std::uint64_t batches0 = s.counter("service.batches");
  std::vector<double> client_cpu(kConnections, 0.0);
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const double thread_cpu0 = thread_cpu_seconds();
      Stream stream(seed, c);
      ConnectionLog& log = out.logs[c];
      service::LineClient& client = s.clients[c];
      do {
        StreamRequest r = stream.next();
        const std::string& line = r.cold ? r.line : s.hot[r.hot];
        const auto t0 = Clock::now();
        const auto response = client.request(line);
        const double dt = seconds_since(t0);
        if (!response) {
          ++log.lost;
          break;
        }
        if (r.cold) {
          log.cold_latency.add(dt);
          log.cold_hashes.push_back(hash_of(*response));
        } else {
          log.hot_latency.add(dt);
          ++log.hot_hashes[r.hot][hash_of(*response)];
        }
      } while (!stream.at_block_start() || seconds_since(start) < seconds);
      client_cpu[c] = thread_cpu_seconds() - thread_cpu0;
    });
  }
  for (auto& t : threads) t.join();
  out.elapsed = seconds_since(start);
  out.server_cpu = process_cpu_seconds() - cpu0;
  for (const double c : client_cpu) out.server_cpu -= c;
  out.hits = s.counter("service.cache.hits") - hits0;
  out.misses = s.counter("service.cache.misses") - misses0;
  out.batches = s.counter("service.batches") - batches0;
  for (const auto& log : out.logs) {
    out.hot_requests += log.hot_latency.count();
    out.cold_requests += log.cold_latency.count();
    out.hot.merge(log.hot_latency);
    out.cold.merge(log.cold_latency);
  }
  out.all.merge(out.hot);
  out.all.merge(out.cold);
  return out;
}

// Every response must equal protocol::execute on the same line, byte for
// byte, and the server's hit/miss counters must equal the designed split.
void verify(const std::vector<std::string>& hot_bodies, std::uint64_t seed,
            const LoopResult& loop, bool corrupt, Result& result) {
  for (int c = 0; c < kConnections; ++c) {
    const ConnectionLog& log = loop.logs[c];
    for (std::size_t i = 0; i < kHotSet; ++i) {
      const std::size_t expected = hash_of(hot_bodies[i]) ^ corrupt;
      for (const auto& [hash, n] : log.hot_hashes[i]) {
        result.attempted += n;
        if (hash != expected) result.failed += n;
      }
    }
    // Regenerate the connection's cold lines chunk by chunk.
    Stream stream(seed, c);
    std::vector<std::string> chunk;
    for (std::size_t done = 0; done < log.cold_hashes.size();) {
      chunk.clear();
      while (chunk.size() < 256 && done + chunk.size() < log.cold_hashes.size()) {
        StreamRequest r = stream.next();
        if (r.cold) chunk.push_back(std::move(r.line));
      }
      std::vector<std::size_t> expected(chunk.size());
      bcn::exec::parallel_for(
          chunk.size(),
          [&](std::size_t i) {
            expected[i] = hash_of(expected_body(chunk[i])) ^ corrupt;
          },
          {.threads = kPoolThreads});
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        result.check(log.cold_hashes[done + i] == expected[i]);
      }
      done += chunk.size();
    }
    result.attempted += log.lost;
    result.failed += log.lost;
  }
  const bool split = loop.hits == loop.hot_requests &&
                     loop.misses == loop.cold_requests;
  if (!split) {
    std::printf("service: counters hits=%llu misses=%llu, stream hot=%llu "
                "cold=%llu\n",
                static_cast<unsigned long long>(loop.hits),
                static_cast<unsigned long long>(loop.misses),
                static_cast<unsigned long long>(loop.hot_requests),
                static_cast<unsigned long long>(loop.cold_requests));
  }
  result.check(split);
}

std::vector<std::string> bodies_of(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& line : lines) out.push_back(expected_body(line));
  return out;
}

// Per-stage times (seconds) of one replay of a request stream through the
// public functions, outside the server, on a standalone cache of the
// server's default capacity holding the warmed hot set.
struct ReplayTimes {
  std::vector<double> parse, key, get, put, execute;
  std::vector<std::size_t> cold_hash;  // of each cold request's answer
  double wall = 0.0;
};

ReplayTimes replay(const std::vector<StreamRequest>& requests,
                   const std::vector<std::string>& hot,
                   const std::vector<std::string>& hot_bodies) {
  service::VerdictCache cache(service::VerdictCache::Config{}, nullptr);
  std::string error;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    cache.put(service::cache_key(*service::parse_request(hot[i], &error)),
              hot_bodies[i]);
  }
  ReplayTimes t;
  const auto start = Clock::now();
  {
    bcn::obs::TraceSpan root("bench.service_replay");
    auto mark = Clock::now();
    const auto lap = [&mark] {
      const auto now = Clock::now();
      const double d = std::chrono::duration<double>(now - mark).count();
      mark = now;
      return d;
    };
    for (const auto& r : requests) {
      const std::string& line = r.cold ? r.line : hot[r.hot];
      lap();
      std::optional<service::Request> request;
      {
        bcn::obs::TraceSpan span("service.parse_request");
        request = service::parse_request(line, &error);
      }
      t.parse.push_back(lap());
      if (!request) throw std::runtime_error("replay parse: " + error);
      std::string key;
      {
        bcn::obs::TraceSpan span("service.cache_key");
        key = service::cache_key(*request);
      }
      t.key.push_back(lap());
      std::optional<std::string> body;
      {
        bcn::obs::TraceSpan span("service.cache_get");
        body = cache.get(key);
      }
      t.get.push_back(lap());
      if (!body) {
        service::ExecResult exec;
        {
          bcn::obs::TraceSpan span("service.execute");
          exec = service::execute(*request, {}, nullptr);
        }
        t.execute.push_back(lap());
        {
          bcn::obs::TraceSpan span("service.cache_put");
          cache.put(key, exec.body);
        }
        t.put.push_back(lap());
        body = std::move(exec.body);
      }
      if (r.cold) t.cold_hash.push_back(hash_of(*body));
    }
  }
  t.wall = seconds_since(start);
  return t;
}

// The scalar work behind a miss, on the canonical plant of each cold
// request: core::numeric_strong_stability at both model levels (the
// verdict inside the report), and core::simulate_fluid's DOPRI5 rate.
struct ScalarProbe {
  std::vector<double> verdict_s;
  double dopri5_s = 0.0;
  double dopri5_steps = 0.0;
};

ScalarProbe scalar_probe(const std::vector<StreamRequest>& requests) {
  using bcn::core::ModelLevel;
  const auto d = bcn::core::BcnParams::standard_draft();
  const auto q = [](double v) { return service::quantize(v); };
  ScalarProbe probe;
  for (const auto& r : requests) {
    if (!r.cold) continue;
    std::string error;
    const auto request = service::parse_request(r.line, &error);
    const auto p = service::canonical_plant(
        q(request->fields.number("a").value_or(d.a())),
        q(request->fields.number("b").value_or(d.b())), q(d.k()), q(d.q0),
        q(d.buffer));
    const auto start = Clock::now();
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
      bcn::core::numeric_strong_stability(p, {.level = level});
    }
    probe.verdict_s.push_back(seconds_since(start));
    for (const auto level : {ModelLevel::Linearized, ModelLevel::Nonlinear}) {
      bcn::core::FluidRunOptions fo;
      fo.duration = bcn::core::make_bcn_verdict_lane(p, level).duration;
      fo.convergence_tol = 1e-8;
      const auto t0 = Clock::now();
      const auto run =
          bcn::core::simulate_fluid(bcn::core::FluidModel(p, level), fo);
      probe.dopri5_s += seconds_since(t0);
      probe.dopri5_steps +=
          static_cast<double>(run.steps_accepted + run.steps_rejected);
    }
  }
  return probe;
}

}  // namespace

Result run_service(const Options& options) {
  Result result;
  LiveService s(options.seed);
  const double setup_cpu = process_cpu_seconds();
  if (options.setup_only) {
    s.close();
    result.add("setup_s", setup_cpu, "s");
    return result;
  }
  const LoopResult loop = closed_loop(s, options.seed, options.seconds);
  s.close();
  verify(bodies_of(s.hot), options.seed, loop, options.corrupt_reference,
         result);

  const auto requests = static_cast<double>(loop.all.count());
  std::printf("service: %.0f requests (%llu hot, %llu cold) on %d "
              "connections; server hits %llu, misses %llu, batches %llu\n"
              "  wall: %.1f qps, p50 %.4f ms, p99 %.4f ms, miss p50 %.4f ms\n",
              requests, static_cast<unsigned long long>(loop.hot_requests),
              static_cast<unsigned long long>(loop.cold_requests),
              kConnections, static_cast<unsigned long long>(loop.hits),
              static_cast<unsigned long long>(loop.misses),
              static_cast<unsigned long long>(loop.batches),
              requests / loop.elapsed, 1e3 * loop.all.quantile(0.5),
              1e3 * loop.all.quantile(0.99), 1e3 * loop.cold.quantile(0.5));
  add_end_to_end(result, setup_cpu, loop.server_cpu / requests);
  return result;
}

Result trace_service(const Options& options) {
  constexpr double kLoopSeconds = 2.0;
  constexpr std::size_t kReplay = 640;  // 64 cold requests
  Result result;
  LiveService s(options.seed);
  const auto hot_bodies = bodies_of(s.hot);
  const LoopResult loop = closed_loop(s, options.seed, kLoopSeconds);
  s.close();
  verify(hot_bodies, options.seed, loop, options.corrupt_reference, result);

  // Connection 0's stream again, through the public functions; each cold
  // answer must match what the server sent for the same request.
  Stream stream(options.seed, 0);
  std::vector<StreamRequest> requests(kReplay);
  for (auto& r : requests) r = stream.next();
  std::vector<double> untraced, traced, parse, key, get, put, execute;
  std::size_t first_span = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const ReplayTimes u = replay(requests, s.hot, hot_bodies);
    untraced.push_back(u.wall);
    parse.insert(parse.end(), u.parse.begin(), u.parse.end());
    key.insert(key.end(), u.key.begin(), u.key.end());
    get.insert(get.end(), u.get.begin(), u.get.end());
    put.insert(put.end(), u.put.begin(), u.put.end());
    execute.insert(execute.end(), u.execute.begin(), u.execute.end());
    if (rep == 0) {
      const auto& served = loop.logs[0].cold_hashes;
      for (std::size_t k = 0;
           k < std::min(served.size(), u.cold_hash.size()); ++k) {
        result.check(u.cold_hash[k] ==
                     (served[k] ^ options.corrupt_reference));
      }
    }
    bcn::obs::tracing_drain();
    first_span = bcn::obs::tracing_spans().size();
    bcn::obs::tracing_enable();
    traced.push_back(replay(requests, s.hot, hot_bodies).wall);
    bcn::obs::tracing_disable();
    bcn::obs::tracing_drain();
  }

  const auto& spans_all = bcn::obs::tracing_spans();
  const std::vector<bcn::obs::SpanRecord> spans(
      spans_all.begin() + first_span, spans_all.end());
  const bcn::obs::SpanRecord* root = last_span(spans, "bench.service_replay");
  const double wall = static_cast<double>(root->dur_ns) / 1e9;
  const double unattributed = print_layer_table(
      "service (one traced replay of " + std::to_string(kReplay) +
          " requests)",
      layer_self_times(spans, root->tid, root->start_ns,
                       root->start_ns + root->dur_ns),
      "bench", wall);

  const ScalarProbe probe = scalar_probe(requests);
  const double parse_us = 1e6 * median(parse);
  const double key_us = 1e6 * median(key);
  const double get_us = 1e6 * median(get);
  const double execute_us = 1e6 * median(execute);
  const double verdict_us = 1e6 * median(probe.verdict_s);
  result.add("service.parse_us", parse_us, "us");
  result.add("service.key_us", key_us, "us");
  result.add("service.cache_get_us", get_us, "us");
  result.add("service.cache_put_us", 1e6 * median(put), "us");
  result.add("service.execute_miss_us", execute_us, "us");
  result.add("core.verdict_us", verdict_us, "us");
  result.add("ode.dopri5_ns_per_step", 1e9 * probe.dopri5_s / probe.dopri5_steps,
             "ns");
  result.add("service.render_share", 1.0 - verdict_us / execute_us, "ratio");
  result.add("service.transport_us",
             1e6 * loop.hot.quantile(0.5) - (parse_us + key_us + get_us), "us");
  result.add("service.queue_wait_us",
             1e6 * loop.cold.quantile(0.5) - execute_us, "us");
  result.add("service.hit_share",
             static_cast<double>(loop.hits) /
                 static_cast<double>(loop.hits + loop.misses),
             "ratio");
  result.add("service.mean_batch",
             static_cast<double>(loop.misses) /
                 static_cast<double>(std::max<std::uint64_t>(1, loop.batches)),
             "count");
  result.add("service.unattributed_share", unattributed, "ratio");
  result.add("service.trace_overhead_share",
             median(traced) / median(untraced) - 1.0, "ratio");
  // What a client sees of the untraced loop, in wall time.
  const auto served = static_cast<double>(loop.all.count());
  result.add("service.qps", served / loop.elapsed, "1/s");
  result.add("service.p50_ms", 1e3 * loop.all.quantile(0.5), "ms");
  result.add("service.p99_ms", 1e3 * loop.all.quantile(0.99), "ms");
  result.add("service.miss_p50_ms", 1e3 * loop.cold.quantile(0.5), "ms");
  std::printf("service probes: loop %.0f requests, replay %zu requests "
              "(%zu cold) %.4f s untraced\n",
              served, requests.size(), probe.verdict_s.size(),
              median(untraced));
  return result;
}

}  // namespace perfbench
