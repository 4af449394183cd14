#include "service/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <vector>

#include "analysis/crossval.h"
#include "analysis/report.h"
#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "core/mechanism.h"
#include "core/simulate.h"
#include "plot/series.h"
#include "plot/svg.h"
#include "service/verdict_cache.h"
#include "sim/network.h"
#include "sim/time.h"

namespace bcn::service {

namespace {

// --- request schema --------------------------------------------------------

struct FieldSpec {
  const char* name;
  bool is_string;
};

struct OpSpec {
  const char* op;
  std::vector<FieldSpec> fields;  // allowed fields beyond op/id
};

const std::vector<OpSpec>& op_specs() {
  static const std::vector<OpSpec> specs = {
      {"ping", {}},
      {"stats", {}},
      {"shutdown", {}},
      {"verdict",
       {{"mechanism", true},
        {"a", false},
        {"b", false},
        {"k", false},
        {"q0", false},
        {"B", false}}},
      {"stability_map",
       {{"mechanism", true},
        {"level", true},
        {"mode", true},
        {"a_min", false},
        {"a_max", false},
        {"b_min", false},
        {"b_max", false},
        {"grid", false},
        {"k", false},
        {"q0", false},
        {"B", false}}},
      {"crossval",
       {{"mechanism", true},
        {"a", false},
        {"b", false},
        {"k", false},
        {"q0", false},
        {"B", false},
        {"duration", false}}},
      {"svg_plot",
       {{"mechanism", true},
        {"a", false},
        {"b", false},
        {"k", false},
        {"q0", false},
        {"B", false},
        {"duration", false},
        {"width", false},
        {"height", false}}},
  };
  return specs;
}

const OpSpec* find_op(const std::string& op) {
  for (const auto& spec : op_specs()) {
    if (op == spec.op) return &spec;
  }
  return nullptr;
}

const FieldSpec* find_field(const OpSpec& spec, const std::string& name) {
  for (const auto& field : spec.fields) {
    if (name == field.name) return &field;
  }
  return nullptr;
}

// --- canonical (quantized, defaulted, clamped) parameter extraction --------
//
// Both cache_key() and execute() go through these, so the key always
// describes exactly the computation that would run on a miss.

struct GainTuple {
  std::string mechanism;
  double a, b, k, q0, B;
};

// The standard draft's gains, quantized once: the defaults of every
// analytic op.
const GainTuple& draft_gains() {
  static const GainTuple draft = [] {
    const core::BcnParams d = core::BcnParams::standard_draft();
    return GainTuple{"bcn",           quantize(d.a()), quantize(d.b()),
                     quantize(d.k()), quantize(d.q0),  quantize(d.buffer)};
  }();
  return draft;
}

// A field's quantized value, or its (already quantized) default.
double canon_number(const FlatJson& fields, const char* name,
                    double quantized_default) {
  const auto v = fields.number(name);
  return v ? quantize(*v) : quantized_default;
}

GainTuple gain_tuple(const FlatJson& fields) {
  const GainTuple& d = draft_gains();
  GainTuple t;
  t.mechanism = fields.string_value("mechanism").value_or(d.mechanism);
  t.a = canon_number(fields, "a", d.a);
  t.b = canon_number(fields, "b", d.b);
  t.k = canon_number(fields, "k", d.k);
  t.q0 = canon_number(fields, "q0", d.q0);
  t.B = canon_number(fields, "B", d.B);
  return t;
}

struct MapTuple {
  std::string mechanism, level, mode;
  double a_min, a_max, b_min, b_max, k, q0, B;
  int grid;
};

MapTuple map_tuple(const FlatJson& fields) {
  const GainTuple& d = draft_gains();
  MapTuple t;
  t.mechanism = fields.string_value("mechanism").value_or("bcn");
  t.level = fields.string_value("level").value_or("linearized");
  t.mode = fields.string_value("mode").value_or("batch");
  t.a_min = canon_number(fields, "a_min", quantize(1e8));
  t.a_max = canon_number(fields, "a_max", quantize(1e10));
  t.b_min = canon_number(fields, "b_min", quantize(1e-3));
  t.b_max = canon_number(fields, "b_max", quantize(1e-1));
  t.k = canon_number(fields, "k", d.k);
  t.q0 = canon_number(fields, "q0", d.q0);
  t.B = canon_number(fields, "B", d.B);
  const double grid = fields.number("grid").value_or(16.0);
  t.grid = static_cast<int>(
      std::clamp(std::llround(grid), 2LL, 64LL));
  return t;
}

struct CrossvalTuple {
  GainTuple gains;
  double duration;
};

CrossvalTuple crossval_tuple(const FlatJson& fields) {
  CrossvalTuple t;
  t.gains = gain_tuple(fields);
  t.duration = quantize(
      std::clamp(fields.number("duration").value_or(0.02), 1e-3, 0.1));
  return t;
}

struct SvgTuple {
  GainTuple gains;
  double duration;
  int width, height;
};

SvgTuple svg_tuple(const FlatJson& fields) {
  SvgTuple t;
  t.gains = gain_tuple(fields);
  t.duration = quantize(
      std::clamp(fields.number("duration").value_or(1.5e-3), 1e-4, 0.1));
  t.width = static_cast<int>(
      std::clamp(std::llround(fields.number("width").value_or(760.0)),
                 160LL, 4096LL));
  t.height = static_cast<int>(
      std::clamp(std::llround(fields.number("height").value_or(480.0)),
                 120LL, 2160LL));
  return t;
}

// --- shared helpers --------------------------------------------------------

// Appends body with the id spliced in as its first field.
void append_with_id(std::string& out, const std::optional<std::int64_t>& id,
                    const std::string& body) {
  if (!id || body.empty() || body.front() != '{') {
    out += body;
    return;
  }
  char digits[24];
  out += "{\"id\":";
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), *id).ptr);
  if (body.size() > 2) {
    out += ',';
    out.append(body, 1, std::string::npos);
  } else {
    out += '}';
  }
}

ExecResult error_result(const char* code, const std::string& message) {
  return {error_response(code, message), /*cacheable=*/false, /*error=*/true};
}

// Unknown-name and invalid-plant checks shared by every analytic op.
// Returns an error result (error=true) or a non-error placeholder.
ExecResult check_plant(const GainTuple& t, core::BcnParams* out) {
  if (!core::find_mechanism(t.mechanism)) {
    return error_result("unknown_mechanism",
                        "unknown mechanism '" + t.mechanism +
                            "' (known: " + core::mechanism_name_list() + ")");
  }
  *out = canonical_plant(t.a, t.b, t.k, t.q0, t.B);
  const auto issues = out->validate();
  if (!issues.empty()) {
    std::string message = "invalid parameters:";
    for (const auto& issue : issues) message += " " + issue + ";";
    message.pop_back();
    return error_result("invalid_params", message);
  }
  return {};
}

void add_gain_echo(JsonWriter& json, const GainTuple& t,
                   const core::BcnParams& p) {
  json.add("mechanism", t.mechanism);
  json.add("a", t.a);
  json.add("b", t.b);
  json.add("k", t.k);
  json.add("q0", t.q0);
  json.add("B", t.B);
  json.add("gi", p.gi);
  json.add("gd", p.gd);
  json.add("pm", p.pm);
}

// --- op executors ----------------------------------------------------------

ExecResult exec_verdict(const Request& request,
                        const ServiceOptions& options) {
  const GainTuple t = gain_tuple(request.fields);
  core::BcnParams p;
  if (auto err = check_plant(t, &p); err.error) return err;

  analysis::VerdictRequest vr;
  vr.params = p;
  vr.mechanism = t.mechanism;
  vr.finite_monitor = options.monitors.finite;
  const auto report = analysis::render_verdict_report(vr);
  if (options.monitors.finite && report.nonfinite) {
    return error_result("monitor", report.monitor_error);
  }

  JsonWriter json;
  json.add("op", "verdict");
  add_gain_echo(json, t, p);
  json.add("has_fluid", report.has_fluid);
  json.add("nonfinite", report.nonfinite);
  if (report.has_fluid) {
    json.add("stable_linearized", report.stable_linearized);
    json.add("stable_nonlinear", report.stable_nonlinear);
    json.add("peak_q_linearized", report.peak_q_linearized);
    json.add("dip_q_linearized", report.dip_q_linearized);
    json.add("peak_q_nonlinear", report.peak_q_nonlinear);
    json.add("dip_q_nonlinear", report.dip_q_nonlinear);
  }
  if (report.closed_form) {
    json.add("paper_case", report.paper_case);
    json.add("proposition", report.proposition);
    json.add("proposition_satisfied", report.proposition_satisfied);
    json.add("theorem1_satisfied", report.theorem1_satisfied);
    json.add("theorem1_required_buffer", report.theorem1_required_buffer);
  }
  json.add("text", report.text);
  return {json.to_line(), /*cacheable=*/true, /*error=*/false};
}

ExecResult exec_stability_map(const Request& request,
                              const ServiceOptions& /*options*/) {
  const MapTuple t = map_tuple(request.fields);
  if (t.mechanism != "bcn" && t.mechanism != "bcn-draft") {
    return error_result("unsupported_mechanism",
                        "stability_map supports the closed-form mechanisms "
                        "(bcn, bcn-draft); got '" + t.mechanism + "'");
  }
  core::ModelLevel level;
  if (t.level == "linearized") {
    level = core::ModelLevel::Linearized;
  } else if (t.level == "nonlinear") {
    level = core::ModelLevel::Nonlinear;
  } else if (t.level == "clipped") {
    level = core::ModelLevel::Clipped;
  } else {
    return error_result("bad_request",
                        "level must be linearized, nonlinear or clipped");
  }
  analysis::MapMode mode = analysis::MapMode::Batch;
  if (!analysis::parse_map_mode(t.mode, &mode)) {
    return error_result("bad_request",
                        "mode must be scalar, batch or adaptive");
  }
  if (!(t.a_min > 0.0) || !(t.b_min > 0.0) || t.a_min > t.a_max ||
      t.b_min > t.b_max) {
    return error_result("bad_request",
                        "gain ranges must satisfy 0 < a_min <= a_max and "
                        "0 < b_min <= b_max");
  }
  GainTuple corner{t.mechanism, t.a_min, t.b_min, t.k, t.q0, t.B};
  core::BcnParams base;
  if (auto err = check_plant(corner, &base); err.error) return err;

  // Grid and bounds are validated above, so logspace cannot throw; its
  // endpoints are exactly the requested bounds.
  const auto a_values = analysis::logspace(t.a_min, t.a_max, t.grid);
  const auto b_values = analysis::logspace(t.b_min, t.b_max, t.grid);
  std::vector<double> gi_values(a_values.size());
  for (std::size_t i = 0; i < a_values.size(); ++i) {
    gi_values[i] = a_values[i] / (base.ru * base.num_sources);
  }

  analysis::StabilityMapOptions opts;
  opts.numeric_level = level;
  opts.mode = mode;
  opts.threads = 1;  // handlers are serial; parallelism is across connections
  const auto map =
      analysis::compute_stability_map(base, gi_values, b_values, opts);

  std::vector<double> stable(map.cells.size()), theorem1(map.cells.size());
  for (std::size_t i = 0; i < map.cells.size(); ++i) {
    stable[i] = map.cells[i].numeric.strongly_stable ? 1.0 : 0.0;
    theorem1[i] = map.cells[i].report.theorem1_satisfied ? 1.0 : 0.0;
  }

  JsonWriter json;
  json.add("op", "stability_map");
  json.add("mechanism", t.mechanism);
  json.add("level", t.level);
  json.add("mode", analysis::to_string(map.mode));  // the mode that ran
  json.add("grid", t.grid);
  json.add("k", t.k);
  json.add("q0", t.q0);
  json.add("B", t.B);
  json.add("a_values", a_values);
  json.add("b_values", b_values);
  // Row-major over (a outer, b inner), 1.0 = verdict holds for the cell.
  json.add("stable", stable);
  json.add("theorem1", theorem1);
  json.add("numeric_stable", map.numeric_stable);
  json.add("theorem1_stable", map.theorem1_stable);
  json.add("proposition_stable", map.proposition_stable);
  json.add("theorem1_false_positive", map.theorem1_false_positive);
  json.add("proposition_false_positive", map.proposition_false_positive);
  json.add("integrated_cells",
           static_cast<std::int64_t>(map.integrated_cells));
  json.add("refinement_waves", map.refinement_waves);
  return {json.to_line(), /*cacheable=*/true, /*error=*/false};
}

ExecResult exec_crossval(const Request& request,
                         const ServiceOptions& options) {
  const CrossvalTuple t = crossval_tuple(request.fields);
  core::BcnParams p;
  if (auto err = check_plant(t.gains, &p); err.error) return err;
  const bool has_fluid = core::find_mechanism(t.gains.mechanism)->has_fluid;

  // Fluid side: the nonlinear facet (eq. (8) for BCN), recorded on the
  // same cadence the E11 bench uses.
  core::FluidRun fluid;
  if (has_fluid) {
    core::MechanismConfig mcfg;
    mcfg.plant = p;
    core::FluidRunOptions fopts;
    fopts.duration = t.duration;
    fopts.record_interval = 2e-5;
    fluid = core::simulate_fluid(
        *core::make_fluid_mechanism(t.gains.mechanism, mcfg), fopts);
    if (options.monitors.finite && fluid.nonfinite) {
      return error_result("monitor", analysis::finite_monitor_message(
                                          t.gains.mechanism.c_str()));
    }
  }

  // Packet side: the Fig. 1 network from the fluid analysis start
  // (initial rate C/N, empty queue), aggregate trace only.
  sim::NetworkConfig cfg;
  cfg.params = p;
  cfg.mechanism = t.gains.mechanism;
  cfg.initial_rate = p.capacity / p.num_sources;
  cfg.record_interval = 20 * sim::kMicrosecond;
  cfg.record_timelines = false;
  cfg.record_events = false;
  sim::Network net(cfg);
  net.run(sim::from_seconds(t.duration));
  const auto packet = net.stats().to_phase_trajectory(p.q0, p.capacity);

  const double prominence = 0.05 * p.q0;
  const auto f_pkt = analysis::extract_features(packet, prominence);

  JsonWriter json;
  json.add("op", "crossval");
  add_gain_echo(json, t.gains, p);
  json.add("duration", t.duration);
  json.add("has_fluid", has_fluid);
  json.add("packet_peak_q", f_pkt.peak_value + p.q0);
  json.add("packet_peak_t_ms", f_pkt.peak_time * 1e3);
  json.add("packet_trough_q", f_pkt.trough_value + p.q0);
  json.add("packet_period_ms",
           f_pkt.period ? *f_pkt.period * 1e3 : std::nan(""));
  json.add("packet_settle_q", f_pkt.final_value + p.q0);
  if (has_fluid) {
    const auto cmp =
        analysis::compare_shapes(fluid.trajectory, packet, prominence);
    json.add("fluid_nonfinite", fluid.nonfinite);
    json.add("fluid_peak_q", cmp.a.peak_value + p.q0);
    json.add("fluid_trough_q", cmp.a.trough_value + p.q0);
    json.add("fluid_period_ms",
             cmp.a.period ? *cmp.a.period * 1e3 : std::nan(""));
    json.add("fluid_settle_q", cmp.a.final_value + p.q0);
    json.add("same_character", cmp.same_character);
    json.add("peak_rel_error", cmp.peak_rel_error);
    json.add("period_rel_error", cmp.period_rel_error);
    json.add("settle_offset_q0",
             std::abs(cmp.b.final_value - cmp.a.final_value) / p.q0);
  }
  const auto& c = net.stats().counters;
  json.add("frames_sent", static_cast<std::int64_t>(c.frames_sent));
  json.add("frames_delivered", static_cast<std::int64_t>(c.frames_delivered));
  json.add("frames_dropped", static_cast<std::int64_t>(c.frames_dropped));
  json.add("bcn_positive", static_cast<std::int64_t>(c.bcn_positive));
  json.add("bcn_negative", static_cast<std::int64_t>(c.bcn_negative));
  json.add("pause_frames", static_cast<std::int64_t>(c.pause_frames));
  json.add("throughput_gbps",
           net.stats().throughput(sim::from_seconds(t.duration)) / 1e9);
  return {json.to_line(), /*cacheable=*/true, /*error=*/false};
}

ExecResult exec_svg_plot(const Request& request,
                         const ServiceOptions& options) {
  const SvgTuple t = svg_tuple(request.fields);
  core::BcnParams p;
  if (auto err = check_plant(t.gains, &p); err.error) return err;
  if (!core::find_mechanism(t.gains.mechanism)->has_fluid) {
    return error_result("unsupported_mechanism",
                        "svg_plot needs a fluid facet; '" + t.gains.mechanism +
                            "' is packet-only");
  }

  core::MechanismConfig mcfg;
  mcfg.plant = p;
  core::FluidRunOptions opts;
  opts.duration = t.duration;
  opts.record_interval = t.duration / 1000.0;
  const core::FluidRun run = core::simulate_fluid(
      *core::make_fluid_mechanism(t.gains.mechanism, mcfg), opts);
  if (options.monitors.finite && run.nonfinite) {
    return error_result("monitor", analysis::finite_monitor_message(
                                        t.gains.mechanism.c_str()));
  }

  plot::Series q;
  q.name = "q(t)";
  for (const auto& s : run.trajectory.samples()) {
    q.add(s.t * 1e3, (s.z.x + p.q0) / 1e6);
  }
  plot::SvgOptions svg;
  svg.width = t.width;
  svg.height = t.height;
  const bool is_bcn =
      t.gains.mechanism == "bcn" || t.gains.mechanism == "bcn-draft";
  svg.title = is_bcn ? "queue transient (nonlinear fluid model)"
                     : "queue transient (nonlinear fluid facet)";
  svg.x_label = "t [ms]";
  svg.y_label = "q [Mbit]";
  svg.ref_lines.push_back({false, p.q0 / 1e6, "q0"});

  JsonWriter json;
  json.add("op", "svg_plot");
  add_gain_echo(json, t.gains, p);
  json.add("duration", t.duration);
  json.add("width", t.width);
  json.add("height", t.height);
  json.add("nonfinite", run.nonfinite);
  json.add("svg", plot::render_svg({q}, svg));
  return {json.to_line(), /*cacheable=*/true, /*error=*/false};
}

ExecResult exec_stats(const obs::MetricsRegistry* metrics) {
  JsonWriter json;
  json.add("op", "stats");
  if (metrics) metrics->write_json(json, "");
  return {json.to_line(), /*cacheable=*/false, /*error=*/false};
}

}  // namespace

core::BcnParams canonical_plant(double a, double b, double k, double q0,
                                double B) {
  core::BcnParams p = core::BcnParams::standard_draft();
  p.q0 = q0;
  p.buffer = B;
  p.qsc = std::min(0.9 * B, B - 1.0);
  p.gi = a / (p.ru * p.num_sources);
  p.gd = b;
  p.pm = (k > 0.0) ? p.w / (k * p.capacity) : -1.0;
  return p;
}

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error_response_out) {
  auto parsed = FlatJson::parse(line);
  if (!parsed) {
    *error_response_out =
        error_response("parse", "request is not a flat JSON object");
    return std::nullopt;
  }
  Request request;
  // Recover the id first so even malformed requests echo it.
  if (const auto id = parsed->number("id")) {
    if (!std::isfinite(*id) || *id != std::floor(*id) ||
        std::abs(*id) > 9.007199254740992e15) {
      *error_response_out =
          error_response("bad_request", "id must be an integer");
      return std::nullopt;
    }
    request.id = static_cast<std::int64_t>(*id);
  }
  const auto fail = [&](const std::string& message) {
    *error_response_out =
        attach_id(request.id, error_response("bad_request", message));
    return std::nullopt;
  };
  if (parsed->strings().count("id")) return fail("id must be an integer");
  const auto op = parsed->string_value("op");
  if (!op) return fail("missing op");
  const OpSpec* spec = find_op(*op);
  if (!spec) return fail("unknown op '" + *op + "'");
  // Strict field validation: unknown fields and wrongly-typed known
  // fields are rejected up front.  A numeric field arriving as a string
  // would otherwise silently default in the cache key while erroring in
  // execution — a cache-poisoning hazard, not a convenience.
  for (const auto& [key, value] : parsed->strings()) {
    if (key == "op") continue;
    const FieldSpec* field = find_field(*spec, key);
    if (!field) return fail("unknown field '" + key + "' for op " + *op);
    if (!field->is_string) return fail("field '" + key + "' must be a number");
  }
  for (const auto& [key, value] : parsed->numbers()) {
    if (key == "id") continue;
    const FieldSpec* field = find_field(*spec, key);
    if (!field) return fail("unknown field '" + key + "' for op " + *op);
    if (field->is_string) return fail("field '" + key + "' must be a string");
    if (!std::isfinite(value)) return fail("field '" + key + "' must be finite");
  }
  if (!parsed->arrays().empty()) {
    return fail("array fields are not part of the request schema");
  }
  request.op = *op;
  request.fields = std::move(*parsed);
  return request;
}

std::string cache_key(const Request& request) {
  std::string key;
  key.reserve(128);
  const auto num = [&key](double v) {
    key += '|';
    append_quantize_key(key, v);
  };
  const auto gains = [&key, &num](const GainTuple& t) {
    key += t.mechanism;
    for (const double v : {t.a, t.b, t.k, t.q0, t.B}) num(v);
  };
  if (request.op == "verdict") {
    key += "verdict|";
    gains(gain_tuple(request.fields));
  } else if (request.op == "stability_map") {
    const MapTuple t = map_tuple(request.fields);
    key += "map|";
    key += t.mechanism;
    key += '|';
    key += t.level;
    key += '|';
    key += t.mode;
    key += '|';
    key += std::to_string(t.grid);
    for (const double v :
         {t.a_min, t.a_max, t.b_min, t.b_max, t.k, t.q0, t.B}) {
      num(v);
    }
  } else if (request.op == "crossval") {
    const CrossvalTuple t = crossval_tuple(request.fields);
    key += "crossval|";
    gains(t.gains);
    num(t.duration);
  } else if (request.op == "svg_plot") {
    const SvgTuple t = svg_tuple(request.fields);
    key += "svg|";
    gains(t.gains);
    num(t.duration);
    key += '|';
    key += std::to_string(t.width);
    key += '|';
    key += std::to_string(t.height);
  } else {
    return {};  // ping / stats / shutdown: answered inline, never cached
  }
  return key;
}

ExecResult execute(const Request& request, const ServiceOptions& options,
                   const obs::MetricsRegistry* metrics) {
  if (request.op == "ping") {
    JsonWriter json;
    json.add("op", "ping");
    json.add("ok", true);
    return {json.to_line(), /*cacheable=*/false, /*error=*/false};
  }
  if (request.op == "shutdown") {
    // The server recognizes the op and initiates teardown after replying.
    JsonWriter json;
    json.add("op", "shutdown");
    json.add("ok", true);
    return {json.to_line(), /*cacheable=*/false, /*error=*/false};
  }
  if (request.op == "stats") return exec_stats(metrics);
  if (request.op == "verdict") return exec_verdict(request, options);
  if (request.op == "stability_map") {
    return exec_stability_map(request, options);
  }
  if (request.op == "crossval") return exec_crossval(request, options);
  if (request.op == "svg_plot") return exec_svg_plot(request, options);
  return error_result("bad_request", "unknown op '" + request.op + "'");
}

std::string attach_id(const std::optional<std::int64_t>& id,
                      const std::string& body) {
  std::string out;
  out.reserve(body.size() + 32);
  append_with_id(out, id, body);
  return out;
}

std::string response_line(const std::optional<std::int64_t>& id,
                          const std::string& body) {
  std::string out;
  out.reserve(body.size() + 32);
  append_with_id(out, id, body);
  out += '\n';
  return out;
}

std::string error_response(const char* code, const std::string& message) {
  JsonWriter json;
  json.add("error", code);
  json.add("message", message);
  return json.to_line();
}

}  // namespace bcn::service
