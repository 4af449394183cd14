// E24: stability-verdict service throughput -- QPS and p50/p99 latency
// of the in-process TCP service, cold (every request a verdict-cache
// miss, executed on its connection's reader) vs cached (every request
// answered from the sharded LRU).  The phases double as the byte-identity gate:
// each cached response must equal, byte for byte, the cold response to
// the same request line.  Emits BENCH_service_qps.json for
// tools/bcn_bench_diff tracking.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "runner.h"
#include "service/client.h"
#include "service/server.h"

using namespace bcn;

namespace {

struct PhaseResult {
  std::vector<double> latencies_ms;
  double elapsed_s = 0.0;
  long long errors = 0;
  long long mismatches = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// Replays `pool` `passes` times, partitioned across `connections`
// threads.  When `golden` is empty it is filled (cold phase); otherwise
// responses are compared against it (cached phase).
PhaseResult run_phase(int port, const std::vector<std::string>& pool,
                      int connections, int passes,
                      std::vector<std::string>& golden) {
  const bool record = golden.empty();
  if (record) golden.resize(pool.size());
  std::vector<PhaseResult> per_thread(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const long long total =
      static_cast<long long>(pool.size()) * passes;
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& out = per_thread[static_cast<std::size_t>(c)];
      service::LineClient client;
      if (!client.connect_to("127.0.0.1", port)) {
        ++out.errors;
        return;
      }
      const long long begin = c * total / connections;
      const long long end = (c + 1) * total / connections;
      for (long long i = begin; i < end; ++i) {
        const auto slot = static_cast<std::size_t>(i) % pool.size();
        const auto start = std::chrono::steady_clock::now();
        const auto response = client.request(pool[slot]);
        const auto stop = std::chrono::steady_clock::now();
        if (!response) {
          ++out.errors;
          return;
        }
        out.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        if (record) {
          golden[slot] = *response;  // each slot written by one thread
        } else if (golden[slot] != *response) {
          ++out.mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult merged;
  merged.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& r : per_thread) {
    merged.latencies_ms.insert(merged.latencies_ms.end(),
                               r.latencies_ms.begin(), r.latencies_ms.end());
    merged.errors += r.errors;
    merged.mismatches += r.mismatches;
  }
  std::sort(merged.latencies_ms.begin(), merged.latencies_ms.end());
  return merged;
}

int run(bench::RunContext& ctx) {
  const int connections = ctx.args->get_count("connections", 8, 1);
  const int space = ctx.args->get_count("space", 64, 1);
  const int passes = ctx.args->get_count("passes", 8, 1);
  std::printf("=== E24: stability-verdict service QPS (cold vs cached) "
              "===\n");

  service::ServiceConfig config;
  config.threads = ctx.threads;
  config.cache_entries = static_cast<std::size_t>(space) * 2;
  service::ServiceServer server(config);
  if (!server.start()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 server.error().c_str());
    return 1;
  }
  std::printf("in-process server on port %d, %d execution slot(s), %d "
              "connection(s), %d distinct request(s)\n",
              server.port(), config.threads, connections, space);

  // Distinct verdict requests along the gain-space a axis; every plant
  // valid, every verdict deterministic.
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(space));
  for (int i = 0; i < space; ++i) {
    JsonWriter json;
    json.add("op", "verdict");
    json.add("a", 8e8 + 5e7 * static_cast<double>(i));
    pool.push_back(json.to_line());
  }

  // Cold: each distinct request exactly once (one pass == all misses).
  std::vector<std::string> golden;
  PhaseResult cold = run_phase(server.port(), pool, connections, 1, golden);
  // Cached: replay the same pool; every request is a hit.
  PhaseResult cached =
      run_phase(server.port(), pool, connections, passes, golden);

  const auto hits = server.metrics().find_counter("service.cache.hits");
  const auto misses = server.metrics().find_counter("service.cache.misses");
  const std::uint64_t hit_count = hits ? hits->value() : 0;
  const std::uint64_t miss_count = misses ? misses->value() : 0;
  server.stop();

  const double cold_qps =
      cold.elapsed_s > 0.0 ? space / cold.elapsed_s : 0.0;
  const double cached_total = static_cast<double>(space) * passes;
  const double cached_qps =
      cached.elapsed_s > 0.0 ? cached_total / cached.elapsed_s : 0.0;
  const double cold_p50 = percentile(cold.latencies_ms, 0.50);
  const double cold_p99 = percentile(cold.latencies_ms, 0.99);
  const double cached_p50 = percentile(cached.latencies_ms, 0.50);
  const double cached_p99 = percentile(cached.latencies_ms, 0.99);

  std::printf("cold:   %8.1f qps  p50 %7.3f ms  p99 %7.3f ms  (%d "
              "requests)\n",
              cold_qps, cold_p50, cold_p99, space);
  std::printf("cached: %8.1f qps  p50 %7.3f ms  p99 %7.3f ms  (%.0f "
              "requests)\n",
              cached_qps, cached_p50, cached_p99, cached_total);
  std::printf("cache counters: hits=%llu misses=%llu | byte mismatches "
              "cached-vs-cold: %lld\n",
              static_cast<unsigned long long>(hit_count),
              static_cast<unsigned long long>(miss_count),
              cached.mismatches);

  if (ctx.metrics) {
    ctx.metrics->counter("service.cache.hits").inc(hit_count);
    ctx.metrics->counter("service.cache.misses").inc(miss_count);
    ctx.metrics->gauge("service.cached_qps").set(cached_qps);
  }

  JsonWriter json;
  json.add("benchmark", "service_qps");
  json.add("threads", ctx.threads);
  json.add("connections", connections);
  json.add("space", space);
  json.add("passes", passes);
  json.add("cold_requests", space);
  json.add("cached_requests", static_cast<std::int64_t>(cached_total));
  json.add("cold_qps", cold_qps);
  json.add("cold_p50_ms", cold_p50);
  json.add("cold_p99_ms", cold_p99);
  json.add("cached_qps", cached_qps);
  json.add("cached_p50_ms", cached_p50);
  json.add("cached_p99_ms", cached_p99);
  json.add("cached_speedup",
           cold_p50 > 0.0 && cached_p50 > 0.0 ? cold_p50 / cached_p50 : 0.0);
  json.add("cache_hits", static_cast<std::int64_t>(hit_count));
  json.add("cache_misses", static_cast<std::int64_t>(miss_count));
  json.add("errors",
           static_cast<std::int64_t>(cold.errors + cached.errors));
  json.add("byte_mismatches", static_cast<std::int64_t>(cached.mismatches));
  const auto path = ctx.out_dir / "BENCH_service_qps.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }

  if (cold.errors + cached.errors > 0) {
    std::fprintf(stderr, "FAIL: %lld connection/protocol errors\n",
                 cold.errors + cached.errors);
    return 1;
  }
  if (cached.mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld cached responses differ from their cold "
                 "responses (determinism contract violated)\n",
                 cached.mismatches);
    return 1;
  }
  return 0;
}

}  // namespace

BCN_EXPERIMENT("service_qps",
               "E24: stability-verdict service QPS and p50/p99 latency, "
               "cold vs cached, with the cached-vs-cold byte-identity gate",
               run, "connections", "space", "passes")
