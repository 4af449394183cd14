// bcn_load: client / load generator for the stability-verdict service
// (tools/bcn_serve, protocol: docs/SERVICE.md).
//
// Script mode (default when --script is given): sends each nonempty
// line of the script file over one connection, in order, and prints
// each response line to stdout — the scripted-session driver
// scripts/check.sh gate 10 uses.
//
// Load mode (--requests): C connection threads replay a seeded,
// deterministic pool of distinct verdict requests (--space points along
// the gain-space a axis), so the first pass over the pool is cold and
// subsequent passes hit the verdict cache.  Reports QPS and p50/p99
// latency, and verifies byte-identity: every response to the same
// request line must equal the first one observed, cached or cold.
//
// Exit codes: 0 ok, 1 connect/protocol/identity failure, 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/json.h"
#include "service/client.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_load --port n [--host 127.0.0.1] (--script file |\n"
      "                --requests n [--connections n] [--space n]\n"
      "                [--seed n]) [--help]\n"
      "  --port n        bcn_serve port (required)\n"
      "  --host a        server address (default 127.0.0.1)\n"
      "  --script file   script mode: send each nonempty line of the file\n"
      "                  over one connection, print each response line\n"
      "  --requests n    load mode: total verdict requests to send\n"
      "  --connections n concurrent client connections (default 4)\n"
      "  --space n       distinct request-parameter points in the pool\n"
      "                  (default 16): pass 1 is cold, later passes are\n"
      "                  cache hits\n"
      "  --seed n        pool shuffle seed (default 1)\n"
      "load mode prints: requests, errors, byte mismatches, QPS, p50/p99\n"
      "latency, and the server's cache hit/miss counters");
}

int run_script(const std::string& host, int port, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bcn_load: cannot read script '%s'\n", path.c_str());
    return 1;
  }
  service::LineClient client;
  if (!client.connect_to(host, port)) {
    std::fprintf(stderr, "bcn_load: %s\n", client.error().c_str());
    return 1;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto response = client.request(line);
    if (!response) {
      std::fprintf(stderr, "bcn_load: connection lost mid-script\n");
      return 1;
    }
    std::printf("%s\n", response->c_str());
  }
  return 0;
}

// xorshift-style seeded mixer — deterministic across platforms (no
// std::mt19937 distribution portability caveats needed here).
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

struct LoadTally {
  std::vector<double> latencies_ms;
  long long errors = 0;
  long long mismatches = 0;
};

int run_load(const std::string& host, int port, long long requests,
             long long connections, long long space, long long seed) {
  // The request pool: distinct points along the gain-space a axis
  // around the standard-draft a = 1.6e9, every plant valid.
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(space));
  for (long long i = 0; i < space; ++i) {
    JsonWriter json;
    json.add("op", "verdict");
    json.add("a", 8e8 + 1e8 * static_cast<double>(i));
    pool.push_back(json.to_line());
  }

  std::mutex identity_mutex;
  std::map<std::string, std::string> first_response;  // request -> response

  std::vector<LoadTally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  std::mutex abort_mutex;
  std::string abort_error;

  const auto t0 = std::chrono::steady_clock::now();
  for (long long c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadTally& tally = tallies[static_cast<std::size_t>(c)];
      service::LineClient client;
      if (!client.connect_to(host, port)) {
        std::lock_guard<std::mutex> lock(abort_mutex);
        abort_error = client.error();
        return;
      }
      const long long begin = c * requests / connections;
      const long long end = (c + 1) * requests / connections;
      for (long long i = begin; i < end; ++i) {
        const auto& line = pool[static_cast<std::size_t>(
            mix(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
                static_cast<std::uint64_t>(i)) %
            static_cast<std::uint64_t>(space))];
        const auto start = std::chrono::steady_clock::now();
        const auto response = client.request(line);
        const auto stop = std::chrono::steady_clock::now();
        if (!response) {
          std::lock_guard<std::mutex> lock(abort_mutex);
          abort_error = "connection lost under load";
          return;
        }
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(stop - start).count());
        if (response->rfind("{\"error\"", 0) == 0) {
          ++tally.errors;
          continue;
        }
        std::lock_guard<std::mutex> lock(identity_mutex);
        const auto [it, inserted] = first_response.emplace(line, *response);
        if (!inserted && it->second != *response) ++tally.mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!abort_error.empty()) {
    std::fprintf(stderr, "bcn_load: %s\n", abort_error.c_str());
    return 1;
  }

  std::vector<double> latencies;
  long long errors = 0, mismatches = 0;
  for (const auto& tally : tallies) {
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
    errors += tally.errors;
    mismatches += tally.mismatches;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[idx];
  };

  // One more connection for the server-side counters.
  std::uint64_t hits = 0, misses = 0;
  {
    service::LineClient client;
    if (client.connect_to(host, port)) {
      if (const auto stats = client.request("{\"op\":\"stats\"}")) {
        if (const auto parsed = FlatJson::parse(*stats)) {
          hits = static_cast<std::uint64_t>(
              parsed->number("service.cache.hits").value_or(0.0));
          misses = static_cast<std::uint64_t>(
              parsed->number("service.cache.misses").value_or(0.0));
        }
      }
    }
  }

  std::printf("requests=%lld errors=%lld byte_mismatches=%lld\n", requests,
              errors, mismatches);
  std::printf("qps=%.1f p50_ms=%.3f p99_ms=%.3f elapsed_s=%.3f\n",
              elapsed > 0.0 ? static_cast<double>(requests) / elapsed : 0.0,
              percentile(0.50), percentile(0.99), elapsed);
  std::printf("server cache: hits=%llu misses=%llu\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  return mismatches > 0 ? 1 : 0;
}

int run(const ArgParser& args) {
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(args, {"help", "port", "host", "script",
                                   "requests", "connections", "space",
                                   "seed"})) {
    usage();
    return 2;
  }
  const int port = args.get_count("port", -1, 0, 65535);
  const int requests = args.get_count("requests", 0, 0, 100'000'000);
  const int connections = args.get_count("connections", 4, 1, 1024);
  const int space = args.get_count("space", 16, 1, 1'000'000);
  const int seed = args.get_count("seed", 1, 0, 999'999'999);
  if (port < 0) {
    std::fprintf(stderr, "--port is required\n");
    usage();
    return 2;
  }
  const std::string host = args.get("host").value_or("127.0.0.1");
  const auto script = args.get("script");
  if (script) return run_script(host, port, *script);
  if (requests <= 0) {
    std::fprintf(stderr, "need --script file or --requests n\n");
    usage();
    return 2;
  }
  return run_load(host, port, requests, connections, space, seed);
}

}  // namespace

int main(int argc, char** argv) { return run_cli(argc, argv, run); }
