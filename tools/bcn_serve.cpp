// bcn_serve: the stability-verdict service — the phase-plane analysis
// engine as a long-running TCP server (protocol: docs/SERVICE.md).
//
//   bcn_serve [--port 0] [--threads 0] [--cache-entries 4096]
//             [--cache-shards 8] [--monitors spec]
//
// Binds 127.0.0.1:<port> (0 = ephemeral), prints "listening on port N"
// once ready, and serves until SIGINT/SIGTERM or a client's shutdown
// op.  Every verdict is byte-identical to the matching bcn_analyze
// output, cold or cached (scripts/check.sh gate 10 enforces this).
//
// Exit codes: 0 ok, 1 startup failure (bind/listen), 2 usage error.
#include <csignal>
#include <cstdio>
#include <string>

#include "common/args.h"
#include "obs/monitor.h"
#include "service/server.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_serve [--port n] [--threads n] [--cache-entries n]\n"
      "                 [--cache-shards n] [--monitors spec] [--help]\n"
      "  --port n          TCP port on 127.0.0.1 (default 0 = ephemeral;\n"
      "                    the chosen port is printed on startup)\n"
      "  --threads n       cache misses executing at once (default 0 = all\n"
      "                    hardware threads); each connection's reader\n"
      "                    runs its own misses, so parallelism comes from\n"
      "                    concurrent connections\n"
      "  --cache-entries n verdict-cache capacity across all shards\n"
      "                    (default 4096)\n"
      "  --cache-shards n  verdict-cache lock shards (default 8)\n"
      "  --monitors spec   arm runtime monitors (obs/monitor.h); with\n"
      "                    `finite` armed, verdicts built on a non-finite\n"
      "                    integration become monitor errors");
}

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

int run(const ArgParser& args) {
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(args, {"help", "port", "threads", "cache-entries",
                                   "cache-shards", "monitors"})) {
    usage();
    return 2;
  }

  service::ServiceConfig config;
  config.port = args.get_count("port", 0, 0, 65535);
  config.threads = args.get_count("threads", 0, 0, 4096);
  config.cache_entries = args.get_count("cache-entries", 4096, 1, 100'000'000);
  config.cache_shards = args.get_count("cache-shards", 8, 1, 4096);
  if (const auto spec = args.lookup("monitors")) {
    config.monitors =
        spec->parse(obs::parse_monitor_spec, obs::monitor_spec_usage());
  }

  service::ServiceServer server(config);
  if (!server.start()) {
    std::fprintf(stderr, "bcn_serve: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);

  // A signal handler cannot safely notify a condition variable, so the
  // wait interleaves short condition waits with a signal-flag poll.
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal == 0 && !server.wait_for_shutdown(0.05)) {
  }
  server.stop();
  std::printf("shutdown: %llu requests, %llu cache hits, %llu misses\n",
              static_cast<unsigned long long>(
                  server.metrics().find_counter("service.requests")->value()),
              static_cast<unsigned long long>(
                  server.metrics().find_counter("service.cache.hits")->value()),
              static_cast<unsigned long long>(
                  server.metrics()
                      .find_counter("service.cache.misses")
                      ->value()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_cli(argc, argv, run); }
