// E12: performance microbenchmarks (google-benchmark) for the numeric
// substrates, including the event-detection ablation cost and each
// compiled batch-lane vector pass, plus the tracked perf artifacts: the
// serial-vs-parallel stability-map
// comparison (BENCH_parallel_sweep.json), the span-tracing overhead
// measurement (BENCH_tracing_overhead.json), the per-subsystem
// self-time breakdown (BENCH_subsystem_profile.json), and the
// discrete-event-core dispatch rate (BENCH_sim_throughput.json).  Diff
// any of them against a committed baseline with tools/bcn_bench_diff.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stability_map.h"
#include "analysis/sweep.h"
#include "bench_util.h"
#include "common/json.h"
#include "core/analytic_tracer.h"
#include "core/batch_verdict.h"
#include "core/poincare.h"
#include "core/simulate.h"
#include "exec/parallel_for.h"
#include "obs/tracing.h"
#include "ode/batch_kernel.h"
#include "ode/hybrid.h"
#include "ode/integrate.h"
#include "ode/steppers.h"
#include "sim/multihop.h"
#include "sim/network.h"
#include "sim/parking_lot.h"

namespace {

using namespace bcn;

const ode::Rhs kOscillator = [](double, Vec2 z) -> Vec2 {
  return {z.y, -z.x};
};

void BM_Rk4Step(benchmark::State& state) {
  Vec2 z{1.0, 0.0};
  double t = 0.0;
  for (auto _ : state) {
    z = ode::rk4_step(kOscillator, t, z, 1e-3);
    t += 1e-3;
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_Rk4Step);

void BM_Dopri5TrialStep(benchmark::State& state) {
  const ode::Dopri5 stepper(kOscillator);
  Vec2 z{1.0, 0.0};
  Vec2 k1 = stepper.compute_k1(0.0, z);
  for (auto _ : state) {
    const auto step = stepper.trial_step(0.0, z, k1, 1e-3);
    benchmark::DoNotOptimize(step.z_new);
  }
}
BENCHMARK(BM_Dopri5TrialStep);

void BM_AdaptiveIntegrateOscillator(benchmark::State& state) {
  for (auto _ : state) {
    const auto res =
        ode::integrate_adaptive(kOscillator, 0.0, {1.0, 0.0}, 10.0);
    benchmark::DoNotOptimize(res.trajectory.size());
  }
}
BENCHMARK(BM_AdaptiveIntegrateOscillator);

void BM_HybridBcnMillisecond(benchmark::State& state) {
  const core::FluidModel model(core::BcnParams::standard_draft(),
                               core::ModelLevel::Nonlinear);
  core::FluidRunOptions opts;
  opts.duration = 1e-3;
  for (auto _ : state) {
    const auto run = core::simulate_fluid(model, opts);
    benchmark::DoNotOptimize(run.max_x);
  }
  state.SetLabel("1 ms of model time, event-localized switching");
}
BENCHMARK(BM_HybridBcnMillisecond);

void BM_NaiveFixedStepBcnMillisecond(benchmark::State& state) {
  // Ablation partner for BM_HybridBcnMillisecond at a comparable step
  // count (the hybrid driver takes ~1e3 steps for this horizon).
  const core::BcnParams p = core::BcnParams::standard_draft();
  const core::FluidModel model(p, core::ModelLevel::Nonlinear);
  const auto inc = model.increase_rhs();
  const auto dec = model.decrease_rhs();
  const double k = p.k();
  const ode::Rhs switched = [&](double t, Vec2 z) {
    return -(z.x + k * z.y) > 0.0 ? inc(t, z) : dec(t, z);
  };
  ode::FixedStepOptions opts;
  opts.step = 1e-6;
  for (auto _ : state) {
    const auto traj =
        ode::integrate_fixed(switched, 0.0, {-p.q0, 0.0}, 1e-3, opts);
    benchmark::DoNotOptimize(traj.size());
  }
}
BENCHMARK(BM_NaiveFixedStepBcnMillisecond);

void BM_AnalyticTracer(benchmark::State& state) {
  const core::AnalyticTracer tracer(core::BcnParams::standard_draft());
  core::AnalyticTraceOptions opts;
  opts.max_rounds = 64;
  for (auto _ : state) {
    const auto trace = tracer.trace(opts);
    benchmark::DoNotOptimize(trace.max_x);
  }
  state.SetLabel("64 closed-form rounds");
}
BENCHMARK(BM_AnalyticTracer);

void BM_ClosedFormReport(benchmark::State& state) {
  core::BcnParams p = core::BcnParams::standard_draft();
  p.buffer = 12e6;
  p.qsc = 11e6;
  for (auto _ : state) {
    const auto report = core::analyze_stability(p);
    benchmark::DoNotOptimize(report.predicted_max_x);
  }
  state.SetLabel("closed-form half of one (Gi, Gd) map cell");
}
BENCHMARK(BM_ClosedFormReport);

void BM_PacketSimulatorMillisecond(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::NetworkConfig cfg;
    cfg.params = core::BcnParams::standard_draft();
    cfg.params.num_sources = state.range(0);
    cfg.initial_rate = cfg.params.capacity / cfg.params.num_sources;
    sim::Network net(cfg);
    state.ResumeTiming();
    net.run(sim::kMillisecond);
    benchmark::DoNotOptimize(net.queue_bits());
  }
  state.SetLabel("1 ms of 10 Gbps traffic");
}
BENCHMARK(BM_PacketSimulatorMillisecond)->Arg(5)->Arg(50);

void BM_StabilityMapCell(benchmark::State& state) {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  core::NumericVerdictOptions nopts;
  nopts.level = core::ModelLevel::Linearized;
  for (auto _ : state) {
    const auto verdict = core::numeric_strong_stability(base, nopts);
    benchmark::DoNotOptimize(verdict.max_x);
  }
  state.SetLabel("one (Gi, Gd) map cell, linearized ground truth");
}
BENCHMARK(BM_StabilityMapCell);

// The lanes E22's plant integrates in the Adaptive 97x97 map (the repo
// benchmark's map workload), built at run time.
const std::vector<ode::BatchLane>& e22_integrated_lanes() {
  static const std::vector<ode::BatchLane> lanes = [] {
    core::BcnParams base = core::BcnParams::standard_draft();
    base.buffer = 12e6;
    base.qsc = 11e6;
    analysis::StabilityMapOptions opts;
    opts.numeric_level = core::ModelLevel::Linearized;
    opts.mode = analysis::MapMode::Adaptive;
    const auto map = analysis::compute_stability_map(
        base, analysis::logspace(0.125, 32.0, 97),
        analysis::logspace(1.0 / 1024.0, 0.5, 97), opts);
    std::vector<ode::BatchLane> out;
    for (const auto& cell : map.cells) {
      if (!cell.integrated) continue;
      core::BcnParams p = base;
      p.gi = cell.gi;
      p.gd = cell.gd;
      out.push_back(core::make_batch_lane(
          core::make_bcn_verdict_lane(p, opts.numeric_level)));
    }
    return out;
  }();
  return lanes;
}

// One vector pass of the batch integrator, registered per kernel this
// CPU can run (BM_BatchLaneStep/baseline, BM_BatchLaneStep/avx2): on an
// AVX2 host this is the only place the baseline pass is timed.
void BM_BatchLaneStep(benchmark::State& state,
                      const ode::internal::BatchKernel* kernel) {
  const auto& lanes = e22_integrated_lanes();
  ode::BatchIntegrator batch;
  kernel->install(batch);
  for (auto _ : state) {
    batch.reset(lanes);
    batch.run_to_completion();
    benchmark::DoNotOptimize(batch.results().data());
    benchmark::ClobberMemory();
  }
  double steps = 0.0;
  for (const auto& r : batch.results()) steps += r.steps;
  // Seconds per lane-step, printed with an SI prefix (n for ns).
  state.counters["lane_step"] = benchmark::Counter(
      steps, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
  state.SetLabel(std::to_string(lanes.size()) + " lanes of E22's map");
}

// Serial vs parallel wall-clock on a fixed stability-map grid, written as
// a machine-readable artifact so the perf trajectory of the exec layer is
// tracked from PR to PR.
void emit_parallel_sweep_json() {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  constexpr int kGrid = 16;
  const auto gi = analysis::logspace(0.125, 32.0, kGrid);
  const auto gd = analysis::logspace(1.0 / 1024.0, 0.5, kGrid);

  auto time_map = [&](int threads) {
    const auto start = std::chrono::steady_clock::now();
    const auto map = analysis::compute_stability_map(
        base, gi, gd,
        {.numeric_level = core::ModelLevel::Linearized, .threads = threads});
    benchmark::DoNotOptimize(map.numeric_stable);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const double serial = time_map(1);
  const double parallel = time_map(0);
  const int hw = exec::resolve_threads(0);

  JsonWriter json;
  json.add("benchmark", "parallel_sweep");
  json.add("grid", kGrid);
  json.add("cells", kGrid * kGrid);
  json.add("hardware_threads", hw);
  json.add("serial_seconds", serial);
  json.add("parallel_seconds", parallel);
  json.add("speedup", parallel > 0.0 ? serial / parallel : 0.0);
  const auto path = bench::output_dir() / "BENCH_parallel_sweep.json";
  if (json.write_file(path)) {
    std::printf("parallel sweep: %dx%d grid, serial %.3f s, parallel %.3f s "
                "on %d hardware threads (%.2fx)\n  [artifact] %s\n",
                kGrid, kGrid, serial, parallel, hw,
                parallel > 0.0 ? serial / parallel : 0.0,
                path.string().c_str());
  }
}

// The acceptance budget for span tracing: the same stability-map grid
// timed with tracing disabled and enabled.  Each map cell emits an
// analysis.map_cell span (plus exec.* spans underneath), so this is the
// realistic per-span cost at the instrumentation granularity the
// subsystems actually use — not a tight loop around an empty span.
void emit_tracing_overhead_json() {
  core::BcnParams base = core::BcnParams::standard_draft();
  base.buffer = 12e6;
  base.qsc = 11e6;
  constexpr int kGrid = 12;
  constexpr int kReps = 5;
  const auto gi = analysis::logspace(0.25, 16.0, kGrid);
  const auto gd = analysis::logspace(1.0 / 512.0, 0.25, kGrid);

  auto time_map = [&] {
    const auto start = std::chrono::steady_clock::now();
    const auto map = analysis::compute_stability_map(
        base, gi, gd,
        {.numeric_level = core::ModelLevel::Linearized, .threads = 0});
    benchmark::DoNotOptimize(map.numeric_stable);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  // Alternate disabled/enabled reps and take best-of-N per side: running
  // one side to completion first lets clock/cache drift across the run
  // masquerade as tracing cost (or hide it), while interleaving exposes
  // both sides to the same drift.  Warm up once untimed.
  obs::tracing_disable();
  time_map();
  double disabled = std::numeric_limits<double>::infinity();
  double enabled = std::numeric_limits<double>::infinity();
  std::size_t spans = 0;
  for (int i = 0; i < kReps; ++i) {
    obs::tracing_disable();
    disabled = std::min(disabled, time_map());
    obs::tracing_enable();
    enabled = std::min(enabled, time_map());
    obs::tracing_disable();
    spans = obs::tracing_drain();
    obs::tracing_clear();
  }

  const double overhead =
      disabled > 0.0 ? (enabled - disabled) / disabled * 100.0 : 0.0;

  JsonWriter json;
  json.add("benchmark", "tracing_overhead");
  json.add("grid", kGrid);
  json.add("cells", kGrid * kGrid);
  json.add("reps", kReps);
  json.add("disabled_seconds", disabled);
  json.add("enabled_seconds", enabled);
  json.add("overhead_percent", overhead);
  json.add("spans_recorded", static_cast<std::int64_t>(spans));
  const auto path = bench::output_dir() / "BENCH_tracing_overhead.json";
  if (json.write_file(path)) {
    std::printf("tracing overhead: %dx%d map, disabled %.3f s, enabled "
                "%.3f s (%+.2f%%, %zu spans)\n  [artifact] %s\n",
                kGrid, kGrid, disabled, enabled, overhead, spans,
                path.string().c_str());
  }
}

// Where does the wall-clock go?  One traced mixed workload touching every
// instrumented subsystem, self-time grouped by span-name prefix.
void emit_subsystem_profile_json() {
  obs::tracing_clear();
  obs::tracing_enable();
  {
    // ode + core: hybrid fluid run and a handful of return-map iterations.
    const core::BcnParams p = core::BcnParams::standard_draft();
    const core::FluidModel model(p, core::ModelLevel::Nonlinear);
    core::FluidRunOptions fopts;
    fopts.duration = 1.5e-3;
    const auto run = core::simulate_fluid(model, fopts);
    benchmark::DoNotOptimize(run.max_x);
    core::PoincareOptions popts;
    popts.max_time = 0.01;
    const core::PoincareMap pmap(model, popts);
    for (const double s : {1e10, 3e10, 1e11}) {
      benchmark::DoNotOptimize(pmap.map(s));
    }

    // analysis + exec: a parallel stability-map grid.
    core::BcnParams base = p;
    base.buffer = 12e6;
    base.qsc = 11e6;
    const auto map = analysis::compute_stability_map(
        base, analysis::logspace(0.25, 16.0, 6),
        analysis::logspace(1.0 / 512.0, 0.25, 6),
        {.numeric_level = core::ModelLevel::Linearized, .threads = 0});
    benchmark::DoNotOptimize(map.numeric_stable);

    // sim: one millisecond of packet traffic.
    sim::NetworkConfig cfg;
    cfg.params = p;
    cfg.initial_rate = cfg.params.capacity / cfg.params.num_sources;
    sim::Network net(cfg);
    net.run(sim::kMillisecond);
    benchmark::DoNotOptimize(net.queue_bits());
  }
  obs::tracing_disable();
  obs::tracing_drain();
  const auto profile = obs::build_self_profile(obs::tracing_spans());
  obs::tracing_clear();

  // Fold span self-time into subsystem buckets by name prefix
  // ("exec.chunk" -> "exec").  std::map keeps the artifact key-sorted.
  std::map<std::string, double> self_seconds;
  std::map<std::string, std::uint64_t> calls;
  double total = 0.0;
  for (const auto& e : profile) {
    const auto dot = e.name.find('.');
    const std::string prefix =
        dot == std::string::npos ? e.name : e.name.substr(0, dot);
    self_seconds[prefix] += e.self_seconds;
    calls[prefix] += e.calls;
    total += e.self_seconds;
  }

  JsonWriter json;
  json.add("benchmark", "subsystem_profile");
  json.add("total_self_seconds", total);
  json.add("span_names", static_cast<std::int64_t>(profile.size()));
  for (const auto& [prefix, secs] : self_seconds) {
    json.add(prefix + "_self_seconds", secs);
    json.add(prefix + "_calls", static_cast<std::int64_t>(calls[prefix]));
  }
  const auto path = bench::output_dir() / "BENCH_subsystem_profile.json";
  if (json.write_file(path)) {
    std::printf("subsystem profile: %.3f s of self-time across %zu span "
                "names\n",
                total, profile.size());
    for (const auto& [prefix, secs] : self_seconds) {
      std::printf("  %-10s %8.3f s (%5.1f%%, %llu calls)\n", prefix.c_str(),
                  secs, total > 0.0 ? secs / total * 100.0 : 0.0,
                  static_cast<unsigned long long>(calls[prefix]));
    }
    std::printf("  [artifact] %s\n", path.string().c_str());
  }
}

// Acceptance budget for the runtime invariant monitors
// (BENCH_monitor_overhead.json): the reference single-bottleneck packet
// run timed with monitors off and with every monitor armed but quiet
// (all invariants hold, so no violation path executes).  Disabled cost
// is one null test per frame at the switch hooks; armed-quiet cost adds
// a comparison pair per frame plus the per-sample predicates and the
// flight-recorder ring writes.  Budget: armed-but-quiet <= 2%.
void emit_monitor_overhead_json() {
  // A long horizon and generous best-of-N: the per-frame hook costs ~1 ns,
  // so short runs drown the measurement in scheduler/clock jitter.
  constexpr int kReps = 9;
  constexpr sim::SimTime kDuration = 100 * sim::kMillisecond;

  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;

  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  auto time_run = [&](bool armed) {
    sim::NetworkConfig cfg;
    cfg.params = p;
    cfg.initial_rate = p.capacity / p.num_sources;
    cfg.record_timelines = false;
    cfg.record_interval = 20 * sim::kMicrosecond;
    if (armed) {
      cfg.monitors.spec = obs::MonitorSpec::all();
      cfg.monitors.action = obs::ViolationAction::Record;
    }
    const auto start = std::chrono::steady_clock::now();
    sim::Network net(cfg);
    net.run(kDuration);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    benchmark::DoNotOptimize(net.stats().counters.frames_delivered);
    if (armed) {
      checks = net.monitor().checks();
      violations = net.monitor().violation_count();
    }
    return seconds;
  };

  // Interleave the two sides (same rationale as the tracing-overhead
  // artifact: shared exposure to clock/cache drift) and keep best-of-N.
  // The armed side can come out *faster* than the default run: arming
  // switches the event trace into the bounded flight-recorder ring, so
  // it overwrites 4096 slots where the default run grows an unbounded
  // vector — a memory-traffic win that outweighs the ~1 ns/frame hook.
  // The gate is one-sided: armed-quiet must not exceed disabled by more
  // than a few percent.
  time_run(false);  // warm-up, untimed
  double disabled = std::numeric_limits<double>::infinity();
  double armed = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kReps; ++i) {
    disabled = std::min(disabled, time_run(false));
    armed = std::min(armed, time_run(true));
  }
  const double overhead =
      disabled > 0.0 ? (armed - disabled) / disabled * 100.0 : 0.0;

  JsonWriter json;
  json.add("benchmark", "monitor_overhead");
  json.add("reps", kReps);
  json.add("duration_seconds", sim::to_seconds(kDuration));
  json.add("disabled_seconds", disabled);
  json.add("armed_quiet_seconds", armed);
  json.add("overhead_percent", overhead);
  json.add("checks", static_cast<std::int64_t>(checks));
  json.add("violations", static_cast<std::int64_t>(violations));
  const auto path = bench::output_dir() / "BENCH_monitor_overhead.json";
  if (json.write_file(path)) {
    std::printf("monitor overhead: disabled %.4f s, armed-quiet %.4f s "
                "(%+.2f%%, %llu checks, %llu violations)\n  [artifact] %s\n",
                disabled, armed, overhead,
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(violations),
                path.string().c_str());
  }
}

// Event-dispatch throughput of the discrete-event core
// (BENCH_sim_throughput.json): events/sec over the three packet
// topologies at several flow counts, plus a cancel/reschedule-heavy
// timer-churn stress.  Maximum-throughput configuration -- timeline and
// event-trace recording off, sparse sampling -- so the number tracks the
// scheduler, not the observability layer.  Best-of-N wall clock.
void emit_sim_throughput_json() {
  constexpr int kReps = 3;
  auto best_of = [&](auto&& fn) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t events = 0;
    for (int i = 0; i < kReps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      events = fn();
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }
    return std::pair<std::size_t, double>{events, best};
  };

  JsonWriter json;
  json.add("benchmark", "sim_throughput");
  json.add("reps", kReps);
  std::printf("sim throughput (best of %d):\n", kReps);
  auto report = [&](const std::string& key, std::size_t events,
                    double seconds) {
    const double eps = seconds > 0.0 ? events / seconds : 0.0;
    json.add(key + "_events", static_cast<std::int64_t>(events));
    json.add(key + "_seconds", seconds);
    json.add(key + "_events_per_sec", eps);
    std::printf("  %-16s %9zu events in %.4f s -> %8.3f M events/s\n",
                key.c_str(), events, seconds, eps / 1e6);
  };

  // The packet_vs_fluid reference parameter set (also pinned by
  // DeterminismTest): aggregate initial rate equals capacity, so the
  // event count stays ~constant across flow counts and the sweep
  // isolates scheduler scaling, not scenario dynamics.
  core::BcnParams p;
  p.num_sources = 5;
  p.capacity = 10e9;
  p.q0 = 2.5e6;
  p.buffer = 30e6;
  p.qsc = 28e6;
  p.w = 2.0;
  p.pm = 0.2;
  p.gi = 0.5;
  p.gd = 1.0 / 128.0;
  p.ru = 8e6;
  for (const int n : {5, 50, 200, 500}) {
    const auto [events, seconds] = best_of([&] {
      sim::NetworkConfig cfg;
      cfg.params = p;
      cfg.params.num_sources = n;
      cfg.initial_rate = cfg.params.capacity / n;
      cfg.record_timelines = false;
      cfg.record_events = false;
      cfg.record_interval = sim::kMillisecond;
      sim::Network net(cfg);
      net.run(50 * sim::kMillisecond);
      return net.simulator().executed();
    });
    report("single_hop_n" + std::to_string(n), events, seconds);
  }

  {
    const auto [events, seconds] = best_of([&] {
      const sim::MultihopConfig cfg;
      return sim::run_victim_scenario(cfg).events_executed;
    });
    report("multihop", events, seconds);
  }

  {
    const auto [events, seconds] = best_of([&] {
      sim::ParkingLotConfig cfg;
      cfg.record_events = false;
      return sim::run_parking_lot(cfg).events_executed;
    });
    report("parking_lot", events, seconds);
  }

  {
    // Raw scheduler stress: 500k schedule ops across 1024 timer lanes,
    // cancelling any pending timer in the lane first, draining a slice of
    // the horizon every 256 ops.  This is the workload the indexed heap's
    // in-place cancel exists for.
    const auto [events, seconds] = best_of([&] {
      sim::Simulator s;
      struct Sink : sim::EventTarget {
        void on_event(const sim::SimEvent&) override {}
      } sink;
      std::uint64_t rng = 0x9e3779b97f4a7c15ull;
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      std::vector<sim::EventId> lanes(1024, sim::kInvalidEvent);
      for (int op = 0; op < 500'000; ++op) {
        const std::size_t lane = next() & 1023;
        if (lanes[lane] != sim::kInvalidEvent) s.cancel(lanes[lane]);
        lanes[lane] =
            s.schedule_event(s.now() + 1 + (next() & 4095), &sink,
                             sim::EventKind::Tick, 0);
        if ((op & 255) == 0) s.run_until(s.now() + 512);
      }
      s.run_until(s.now() + 8192);
      // Ops, not dispatches: most lanes are cancelled before they fire.
      return static_cast<std::size_t>(500'000);
    });
    report("timer_churn", events, seconds);
  }

  const auto path = bench::output_dir() / "BENCH_sim_throughput.json";
  if (json.write_file(path)) {
    std::printf("  [artifact] %s\n", path.string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto* kernel : ode::internal::host_batch_kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_BatchLaneStep/") + kernel->name).c_str(),
        BM_BatchLaneStep, kernel);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_parallel_sweep_json();
  emit_tracing_overhead_json();
  emit_monitor_overhead_json();
  emit_subsystem_profile_json();
  emit_sim_throughput_json();
  return 0;
}
