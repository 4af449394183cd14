// The stability-verdict service wire protocol: newline-delimited JSON
// over TCP (docs/SERVICE.md is the reference).
//
// Every request is one line holding one flat JSON object with an "op"
// field; every response is one line holding one flat JSON object.  The
// analytic endpoints (verdict, stability_map, crossval, svg_plot) are
// pure functions of their quantized parameters: requests are snapped to
// the service quantization grid (verdict_cache.h) before anything runs,
// so a cold computation, a cache hit and the matching CLI invocation
// all produce byte-identical answers.
//
// Request parameters live in the paper's gain space: (a, b, k, q0, B)
// with a = Ru Gi N, b = Gd, k = w/(pm C).  The service maps them onto
// the canonical plant (standard-draft N, C, Ru, w; derived gi, gd, pm),
// which is exactly the plant `bcn_analyze --gi --gd --pm --q0 --B`
// analyzes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"
#include "core/bcn_params.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

namespace bcn::service {

// Server-global execution knobs consulted by the handlers.
struct ServiceOptions {
  // Only `finite` is meaningful for the fluid analyses: with it armed,
  // verdicts built on a non-finite integration are refused the way
  // `bcn_analyze --monitors finite` refuses them.
  obs::MonitorSpec monitors;
};

struct Request {
  std::string op;
  std::optional<std::int64_t> id;  // echoed verbatim in the response
  FlatJson fields;
};

// Parses one protocol line.  On failure returns nullopt and fills
// *error_response with a complete response line (id echoed when it
// could be recovered).
std::optional<Request> parse_request(const std::string& line,
                                     std::string* error_response);

// The canonical cache key of a request: op-tagged, built from the
// quantized parameter values.  Empty for uncacheable ops (stats, ping,
// shutdown) — the server answers those inline.
std::string cache_key(const Request& request);

struct ExecResult {
  // Canonical response line WITHOUT the id field (what the cache
  // stores); attach_id() splices the per-request id back in.
  std::string body;
  bool cacheable = false;
  bool error = false;
};

// Computes the response for a parsed request — the cold path.  Pure and
// thread-safe: handlers never touch shared state (`metrics` is read
// only by the stats op, which the server runs at once, outside any
// execution slot).  `metrics` may be null; stats then reports an empty snapshot.
ExecResult execute(const Request& request, const ServiceOptions& options,
                   const obs::MetricsRegistry* metrics);

// "{...}" -> "{\"id\":7,...}"; body returned unchanged without an id.
std::string attach_id(const std::optional<std::int64_t>& id,
                      const std::string& body);

// attach_id(id, body) and the closing newline: the line the server
// sends, built in one allocation.
std::string response_line(const std::optional<std::int64_t>& id,
                          const std::string& body);

// One-line error response body: {"error":code,"message":...}.
std::string error_response(const char* code, const std::string& message);

// The canonical plant for a quantized gain-space tuple: standard-draft
// N, C, Ru, w with gi = a/(Ru N), gd = b, pm = w/(k C) and the default
// severe-congestion threshold.  This is the plant the corresponding
// bcn_analyze invocation sees.
core::BcnParams canonical_plant(double a, double b, double k, double q0,
                                double B);

}  // namespace bcn::service
