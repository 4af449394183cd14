#!/usr/bin/env bash
# Eleven gates:
#  1. Thread safety: builds the tree under ThreadSanitizer
#     (-DBCN_SANITIZE=thread) and runs the exec + analysis + obs + sim
#     + service test suites, which exercise parallel_for / ThreadPool /
#     the parallel stability map / the span recorder and atomic metrics /
#     the event-queue pool and heap / the verdict-service TCP server and
#     sharded LRU cache under real concurrency.  Any data race fails the
#     run.
#  2. Bench artifacts: builds one bench in a regular (non-sanitized)
#     build, runs it, and validates that RUN_<name>.json carries the
#     observability metrics snapshot (including the sim.* scheduler
#     gauges) and that the timeline CSV exists; malformed --seed and
#     --threads values and BCN_THREADS are rejected with exit 2.
#  3. Trace artifacts: reruns the same bench with --trace, validates the
#     Chrome trace (parses, complete events, spans from >= 3 subsystems),
#     checks the profile.* gauges landed in the RUN json, and runs
#     bcn_bench_diff self-vs-self (a zero-delta diff must exit 0); a
#     malformed --threshold is rejected with exit 2.
#  4. Sim throughput: runs the perf_microbench artifact emitters and
#     validates BENCH_sim_throughput.json (all scenario keys present,
#     self-diff at threshold 0 exits 0).
#  5. Fault smoke: runs the feedback-loss bench with a nonzero drop rate
#     (the docs/FAULTS.md recipe), asserts fault.* counters land in the
#     RUN json, requires two invocations of the same plan to produce
#     byte-identical BENCH_feedback_loss.json artifacts, and checks
#     malformed --faults specs (bad probability, non-finite duration,
#     negative seed) and a non-finite --initial-rate are rejected with
#     exit 2.
#     (The FaultsTest cases already ran under TSan in gate 1 as part of
#     bcn_sim_tests.)
#  6. Mechanism matrix smoke: runs the E21 mechanism-matrix bench (a 3x3
#     stability map per registered fluid mechanism plus the heterogeneous
#     competition pairs), validates BENCH_mechanism_matrix.json (map and
#     competition keys, fluid boundedness, fairness in [0, 1]), requires
#     two invocations to self-diff clean at threshold 0 with identical
#     key sets, and checks --mechanism bogus is rejected with exit 2
#     while --mechanism list prints the registry.
#  7. Map throughput smoke: runs the E22 scalar/batch/adaptive
#     stability-map comparison, validates BENCH_map_throughput.json
#     (artifact present, zero verdict mismatches for both batched modes,
#     scalar and batch stable-cell counts equal, adaptive refinement
#     integrating under half the grid, every cell's closed-form extrema
#     final within 4 rounds, the batch lane kernel named as avx2 or
#     baseline), requires a threshold-0 self-diff to pass, and checks
#     --map-mode bogus is rejected with exit 2.
#  8. Monitor smoke: arms every runtime invariant monitor on a clean run
#     (must exit 0 with monitor.* metrics and zero violations in the RUN
#     json), provokes the fluid-verdict crosscheck with the EXPERIMENTS.md
#     contradiction recipe (line-rate launch + certain BCN loss on a
#     fluid-certified-stable plant; must exit 3 and dump a validated
#     POSTMORTEM_crosscheck.json), requires the bundle to be byte-identical
#     across reruns, and checks a bogus --monitors spec and a negative
#     ring= are rejected with exit 2 and the grammar.
#  9. Sharded-engine smoke: runs a small fat-tree through bcn_fabric at
#     --shards 1 and --shards 4 and requires the shard-invariant JSON
#     artifacts to be byte-identical (the cross-shard determinism
#     contract, end-to-end), runs the E23 sharded_throughput bench on a
#     small configuration (the bench itself exits 1 if the digest varies
#     with the shard count), validates BENCH_sharded_throughput.json and
#     self-diffs it with --require-same-keys at threshold 0, and checks
#     --shards bogus, --duration-us -1 and --flows-per-host abc are
#     rejected with exit 2.  (The MPSC-queue torture and the shard
#     determinism tests already ran under TSan in gate 1 as part of
#     bcn_sim_tests.)  Speedups are reported, deliberately
#     not gated: they depend on the host's hardware threads.
# 10. Service smoke: starts bcn_serve on an ephemeral port, drives a
#     scripted bcn_load session, replays every verdict answer through
#     bcn_analyze with the echoed parameters and requires the `text`
#     field to match the CLI stdout byte for byte (the docs/SERVICE.md
#     determinism contract, end-to-end), requires repeated request
#     lines to produce byte-identical responses with the cache-hit
#     counters accounting for them exactly, runs the load generator and
#     the E24 service_qps bench (both exit nonzero on any cold/cached
#     divergence), validates and self-diffs BENCH_service_qps.json at
#     threshold 0, checks bad flags exit 2 on bcn_serve, bcn_load and
#     bcn_analyze (--gi abc|inf|nan), checks the shutdown op
#     terminates the server with exit 0, and
#     finishes with a relative-link check over README.md and docs/*.md
#     (every non-URL link target must exist).  (The cache/protocol/
#     server unit tests already ran under TSan in gate 1 as part of
#     bcn_service_tests.)
# 11. Memory and undefined-behaviour safety: builds the whole tier-1
#     suite -- all eleven test binaries -- under AddressSanitizer plus
#     UndefinedBehaviorSanitizer (-DBCN_SANITIZE=address,undefined with
#     -fno-sanitize-recover=undefined, so any UB report aborts) and runs
#     them with the default ASAN_OPTIONS (alloc-dealloc-mismatch
#     included).  Any out-of-bounds access, use-after-free, leak,
#     mismatched allocator or UB fails the run.
#
# Every usage-error probe goes through expect_usage_error: exit 2, a
# message naming the flag or variable, and no file written.
set -euo pipefail
cd "$(dirname "$0")/.."

# One scratch root for every gate's artifacts, and one trap that also
# stops the gate-10 server if a check fails while it is running.
SCRATCH=$(mktemp -d)
SERVE_PID=
trap '[[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$SCRATCH"' EXIT
scratch_dir() { mkdir -p "$SCRATCH/$1" && echo "$SCRATCH/$1"; }
PROBES=0

# expect_usage_error PATTERN CMD...: CMD must be a usage error -- exit 2
# with output matching PATTERN -- and must leave no file behind.  It
# runs in an empty directory, so a bench's default ./bench_out or a
# tool's default output file would be caught.
expect_usage_error() {
  local pattern=$1 out status=0
  shift
  PROBES=$((PROBES + 1))
  local probe
  probe=$(scratch_dir "probe$PROBES")
  out=$(cd "$probe" && "$@" 2>&1) || status=$?
  [[ $status -eq 2 ]] || {
    echo "[check.sh] '$*' exited $status, want 2"; exit 1;
  }
  grep -qe "$pattern" <<< "$out" || {
    echo "[check.sh] '$*' printed no '$pattern': $out"; exit 1;
  }
  [[ -z $(find "$probe" -type f) ]] || {
    echo "[check.sh] '$*' wrote $(find "$probe" -type f)"; exit 1;
  }
}

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DBCN_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j \
  --target bcn_exec_tests bcn_analysis_tests bcn_obs_tests bcn_sim_tests \
           bcn_service_tests

# halt_on_error turns any race into a hard test failure instead of a
# buried log line; second_deadlock_stack improves mutex reports.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

# Run the suites directly (not via ctest) so unbuilt sibling suites'
# NOT_BUILT placeholder tests cannot pollute the result.
"$BUILD_DIR"/tests/exec/bcn_exec_tests
"$BUILD_DIR"/tests/analysis/bcn_analysis_tests
"$BUILD_DIR"/tests/obs/bcn_obs_tests
"$BUILD_DIR"/tests/sim/bcn_sim_tests
"$BUILD_DIR"/tests/service/bcn_service_tests

echo "[check.sh] ThreadSanitizer run clean"

# --- bench-artifact smoke -------------------------------------------------
# One real experiment end-to-end: the RUN json must embed the metrics
# snapshot (simulator counters + integrator step stats) and the run must
# produce at least one per-flow timeline CSV.
SMOKE_BUILD_DIR=${SMOKE_BUILD_DIR:-build}
SMOKE_BENCH=fig7_limit_cycle
cmake -B "$SMOKE_BUILD_DIR" -S .
cmake --build "$SMOKE_BUILD_DIR" -j --target "$SMOKE_BENCH"
# Absolute, so the usage-error probes can run from their own directory.
SMOKE_BUILD_DIR=$(cd "$SMOKE_BUILD_DIR" && pwd)

SMOKE_OUT=$(scratch_dir smoke)
"$SMOKE_BUILD_DIR"/bench/"$SMOKE_BENCH" --run "$SMOKE_BENCH" \
  --out "$SMOKE_OUT" > /dev/null

RUN_JSON="$SMOKE_OUT/RUN_$SMOKE_BENCH.json"
[[ -f "$RUN_JSON" ]] || { echo "[check.sh] missing $RUN_JSON"; exit 1; }
for key in '"metrics.sim.frames_delivered"' '"metrics.sim.bcn_negative"' \
           '"metrics.fluid.steps_accepted"' '"metrics.fluid.min_dt_seconds"' \
           '"metrics.sim.sigma_bits.count"' \
           '"metrics.sim.heap_high_water"' '"metrics.sim.events_executed"'; do
  grep -q "$key" "$RUN_JSON" || {
    echo "[check.sh] $RUN_JSON lacks $key"; exit 1;
  }
done
TIMELINES="$SMOKE_OUT/${SMOKE_BENCH}_timelines.csv"
[[ -f "$TIMELINES" ]] || { echo "[check.sh] missing $TIMELINES"; exit 1; }
grep -q '^flow\.' "$TIMELINES" || {
  echo "[check.sh] $TIMELINES has no per-flow series"; exit 1;
}

# The shared runner's numeric flags and their env fallback are strict:
# a malformed or out-of-range value is a usage error naming its source.
SMOKE_BIN="$SMOKE_BUILD_DIR/bench/$SMOKE_BENCH"
expect_usage_error "^--seed: '-1' is not a count" "$SMOKE_BIN" --seed -1
expect_usage_error "^--seed: '5000000000' exceeds" \
  "$SMOKE_BIN" --seed 5000000000
expect_usage_error "^--threads: 'abc' is not a count" \
  "$SMOKE_BIN" --threads abc
expect_usage_error "^BCN_THREADS: 'abc' is not a count" \
  env BCN_THREADS=abc "$SMOKE_BIN"

echo "[check.sh] bench artifact smoke clean ($RUN_JSON)"

# --- trace-artifact smoke -------------------------------------------------
# The same experiment traced: the Chrome trace must be valid JSON made of
# complete ("X") events covering at least three instrumented subsystems,
# and the RUN json must carry the folded profile.* gauges.
cmake --build "$SMOKE_BUILD_DIR" -j --target bcn_bench_diff

TRACE_OUT=$(scratch_dir trace)
TRACE_JSON="$TRACE_OUT/trace.json"
"$SMOKE_BUILD_DIR"/bench/"$SMOKE_BENCH" --run "$SMOKE_BENCH" \
  --out "$TRACE_OUT" --trace "$TRACE_JSON" > /dev/null

[[ -f "$TRACE_JSON" ]] || { echo "[check.sh] missing $TRACE_JSON"; exit 1; }
python3 - "$TRACE_JSON" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
xs = [e for e in events if e.get("ph") == "X"]
assert xs, "no complete events in trace"
for e in xs:
    assert e["ts"] >= 0 and e["dur"] >= 0 and e["name"], e
subsystems = {e["name"].split(".")[0] for e in xs}
assert len(subsystems) >= 3, f"spans from only {sorted(subsystems)}"
print(f"[check.sh] trace valid: {len(xs)} spans from {sorted(subsystems)}")
PY
TRACED_RUN_JSON="$TRACE_OUT/RUN_$SMOKE_BENCH.json"
grep -q '"metrics\.profile\.' "$TRACED_RUN_JSON" || {
  echo "[check.sh] $TRACED_RUN_JSON lacks profile.* gauges"; exit 1;
}

# Self-vs-self must be a zero-delta pass even at threshold 0.
"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$TRACED_RUN_JSON" --b "$TRACED_RUN_JSON" --threshold 0 > /dev/null || {
  echo "[check.sh] bcn_bench_diff self-diff failed"; exit 1;
}

# A malformed threshold must not silently become the 0.10 default.
expect_usage_error "^--threshold: '0.01x' is not a finite decimal number" \
  "$SMOKE_BUILD_DIR"/tools/bcn_bench_diff --a "$TRACED_RUN_JSON" \
  --b "$TRACED_RUN_JSON" --threshold 0.01x

echo "[check.sh] trace artifact smoke clean ($TRACE_JSON)"

# --- sim-throughput smoke -------------------------------------------------
# The event-core dispatch-rate artifact: every scenario key must be
# emitted with a positive events/sec, and the artifact must survive a
# zero-threshold self-diff (i.e. bcn_bench_diff can parse and compare it).
cmake --build "$SMOKE_BUILD_DIR" -j --target perf_microbench

TPUT_OUT=$(scratch_dir tput)
BCN_BENCH_OUT="$TPUT_OUT" "$SMOKE_BUILD_DIR"/bench/perf_microbench \
  --benchmark_filter=NONE > /dev/null

TPUT_JSON="$TPUT_OUT/BENCH_sim_throughput.json"
[[ -f "$TPUT_JSON" ]] || { echo "[check.sh] missing $TPUT_JSON"; exit 1; }
python3 - "$TPUT_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
keys = ["single_hop_n5", "single_hop_n50", "single_hop_n200",
        "single_hop_n500", "multihop", "parking_lot", "timer_churn"]
for key in keys:
    eps = data.get(f"{key}_events_per_sec")
    assert isinstance(eps, (int, float)) and eps > 0, f"{key}: bad {eps!r}"
    assert data.get(f"{key}_events", 0) > 0, f"{key}: no events"
rates = ", ".join(f"{k}={data[f'{k}_events_per_sec']/1e6:.1f}M/s" for k in keys)
print(f"[check.sh] sim throughput: {rates}")
PY

"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$TPUT_JSON" --b "$TPUT_JSON" --threshold 0 > /dev/null || {
  echo "[check.sh] sim-throughput self-diff failed"; exit 1;
}

echo "[check.sh] sim throughput smoke clean ($TPUT_JSON)"

# --- fault smoke ----------------------------------------------------------
# The docs/FAULTS.md BCN-loss recipe, end-to-end: nonzero drop rate,
# fault.* counters in the RUN json, and a reproducible fault schedule
# (same plan twice => byte-identical BENCH_feedback_loss.json).
cmake --build "$SMOKE_BUILD_DIR" -j --target feedback_loss_robustness

FAULT_BENCH="$SMOKE_BUILD_DIR"/bench/feedback_loss_robustness
FAULT_PLAN='bcn_drop=0.2,bcn_delay=0.1:100us,seed=7'
FAULT_OUT_A=$(scratch_dir fault_a)
FAULT_OUT_B=$(scratch_dir fault_b)
"$FAULT_BENCH" --faults "$FAULT_PLAN" --out "$FAULT_OUT_A" > /dev/null
"$FAULT_BENCH" --faults "$FAULT_PLAN" --out "$FAULT_OUT_B" > /dev/null

FAULT_RUN_JSON="$FAULT_OUT_A/RUN_feedback_loss_robustness.json"
[[ -f "$FAULT_RUN_JSON" ]] || { echo "[check.sh] missing $FAULT_RUN_JSON"; exit 1; }
python3 - "$FAULT_RUN_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
for key in ("bcn_dropped", "bcn_delayed", "bcn_duplicated", "data_dropped",
            "pause_dropped", "link_flaps", "flap_dropped"):
    full = f"metrics.fault.{key}"
    assert full in data, f"missing {full}"
assert data["metrics.fault.bcn_dropped"] > 0, "drop rate 0.2 injected nothing"
assert data["metrics.fault.bcn_delayed"] > 0, "delay rate 0.1 injected nothing"
print(f"[check.sh] fault counters present: "
      f"{data['metrics.fault.bcn_dropped']:.0f} BCN dropped, "
      f"{data['metrics.fault.bcn_delayed']:.0f} delayed")
PY

cmp "$FAULT_OUT_A/BENCH_feedback_loss.json" \
    "$FAULT_OUT_B/BENCH_feedback_loss.json" || {
  echo "[check.sh] fault schedule not reproducible across invocations"; exit 1;
}

# env fallback path: BCN_FAULTS must behave like --faults.
BCN_FAULTS="$FAULT_PLAN" "$FAULT_BENCH" --out "$FAULT_OUT_B" > /dev/null
cmp "$FAULT_OUT_A/BENCH_feedback_loss.json" \
    "$FAULT_OUT_B/BENCH_feedback_loss.json" || {
  echo "[check.sh] BCN_FAULTS env fallback diverges from --faults"; exit 1;
}

# A malformed spec must be a usage error (exit 2), printing the grammar;
# so must a non-finite duration, a negative seed, and a non-finite
# experiment flag -- the last one before the sweep writes anything.
expect_usage_error 'fault spec grammar' "$FAULT_BENCH" --faults 'bcn_drop=1.5'
expect_usage_error "^--faults: 'nanms' is not a duration" \
  "$FAULT_BENCH" --faults 'flap=nanms+2ms'
expect_usage_error "^--faults: seed: '-1' is not a count" \
  "$FAULT_BENCH" --faults 'bcn_drop=0.1,seed=-1'
expect_usage_error "^--initial-rate: 'nan' is not a finite decimal number" \
  "$FAULT_BENCH" --initial-rate nan

echo "[check.sh] fault smoke clean ($FAULT_RUN_JSON)"

# --- mechanism-matrix smoke -------------------------------------------------
# The pluggable-mechanism layer end-to-end: per-mechanism gain maps and
# heterogeneous competition must emit a complete, deterministic artifact,
# and the --mechanism flag must accept the registry and reject impostors.
cmake --build "$SMOKE_BUILD_DIR" -j --target mechanism_matrix

MECH_BENCH="$SMOKE_BUILD_DIR"/bench/mechanism_matrix
MECH_OUT_A=$(scratch_dir mech_a)
MECH_OUT_B=$(scratch_dir mech_b)
"$MECH_BENCH" --out "$MECH_OUT_A" > /dev/null
"$MECH_BENCH" --out "$MECH_OUT_B" > /dev/null

MATRIX_JSON="$MECH_OUT_A/BENCH_mechanism_matrix.json"
[[ -f "$MATRIX_JSON" ]] || { echo "[check.sh] missing $MATRIX_JSON"; exit 1; }
python3 - "$MATRIX_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("benchmark") == "mechanism_matrix", data.get("benchmark")
for mech in ("bcn", "bcn-draft", "qcn", "rcp"):
    cells = data.get(f"map.{mech}.cells")
    assert cells == 9, f"map.{mech}.cells = {cells!r}, want 9"
    stable = data.get(f"map.{mech}.stable_cells")
    assert isinstance(stable, (int, float)) and 0 <= stable <= 9, \
        f"map.{mech}.stable_cells = {stable!r}"
    for i in range(9):
        for axis in ("g1", "g2", "stable"):
            key = f"map.{mech}.cell{i}.{axis}"
            assert key in data, f"missing {key}"
    assert f"map.{mech}.solo_stable" in data
for pair in ("bcn_vs_bcn", "bcn_vs_qcn", "bcn_vs_rcp", "qcn_vs_rcp"):
    assert data.get(f"comp.{pair}.fluid.bounded") == 1, \
        f"{pair}: fluid competition left the buffer strip"
    fairness = data.get(f"comp.{pair}.packet.fairness")
    assert isinstance(fairness, (int, float)) and 0.0 < fairness <= 1.0, \
        f"{pair}: packet fairness {fairness!r}"
    assert f"comp.{pair}.fluid.fairness" in data
    assert f"comp.{pair}.packet.frames_dropped" in data
maps = ", ".join(f"{m}={data[f'map.{m}.stable_cells']:.0f}/9"
                 for m in ("bcn", "bcn-draft", "qcn", "rcp"))
print(f"[check.sh] mechanism matrix valid: stable cells {maps}")
PY

# Byte-determinism across invocations, and key-set completeness: the
# second run must carry exactly the same keys with exactly equal values.
"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$MATRIX_JSON" --b "$MECH_OUT_B/BENCH_mechanism_matrix.json" \
  --threshold 0 --require-same-keys > /dev/null || {
  echo "[check.sh] mechanism matrix not reproducible across invocations"; exit 1;
}

# An unknown mechanism name must be a usage error (exit 2) naming the
# registry; `--mechanism list` must enumerate it and exit 0.
expect_usage_error "unknown mechanism 'bogus'" \
  "$MECH_BENCH" --mechanism bogus
MECH_LIST=$("$MECH_BENCH" --mechanism list)
for name in bcn bcn-draft qcn rcp fera; do
  grep -q "^$name " <<< "$MECH_LIST" || {
    echo "[check.sh] --mechanism list omits $name"; exit 1;
  }
done

echo "[check.sh] mechanism matrix smoke clean ($MATRIX_JSON)"

# --- map-throughput smoke ---------------------------------------------------
# The batched SoA stability-map path end-to-end: batch and adaptive modes
# must reproduce the scalar verdicts exactly (the bench itself exits
# nonzero on any mismatch), adaptive refinement must skip a real share of
# the grid, the closed-form extrema of every cell must be final within 4
# rounds, and the artifact must survive a zero-threshold self-diff.
# The speedup numbers are reported but deliberately not gated: wall-clock
# ratios on shared CI hardware are too noisy for a hard threshold.
cmake --build "$SMOKE_BUILD_DIR" -j --target map_throughput

MAP_BENCH="$SMOKE_BUILD_DIR"/bench/map_throughput
MAP_OUT=$(scratch_dir map)
"$MAP_BENCH" --run map_throughput --out "$MAP_OUT" --reps 1 > /dev/null

MAP_JSON="$MAP_OUT/BENCH_map_throughput.json"
[[ -f "$MAP_JSON" ]] || { echo "[check.sh] missing $MAP_JSON"; exit 1; }
python3 - "$MAP_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("benchmark") == "map_throughput", data.get("benchmark")
cells = data.get("cells")
assert isinstance(cells, (int, float)) and cells > 0, f"cells = {cells!r}"
for mode in ("scalar", "batch", "adaptive"):
    cps = data.get(f"{mode}_cells_per_sec")
    assert isinstance(cps, (int, float)) and cps > 0, f"{mode}: bad {cps!r}"
assert data.get("batch_mismatch") == 0, \
    f"batch diverged: {data.get('batch_mismatch')!r} mismatches"
assert data.get("adaptive_mismatch") == 0, \
    f"adaptive diverged: {data.get('adaptive_mismatch')!r} mismatches"
assert data.get("scalar_stable") == data.get("batch_stable"), \
    "scalar and batch stable-cell counts differ"
frac = data.get("adaptive_integrated_fraction")
assert isinstance(frac, (int, float)) and 0.0 < frac < 0.5, \
    f"adaptive integrated {frac!r} of the grid, want < 0.5"
# An exact count, not a timing: a closed-form tracer that stops proving
# contraction falls back to 256 rounds per cell.
rounds = data.get("closed_form_rounds_max")
assert isinstance(rounds, int) and 1 <= rounds <= 4, \
    f"closed-form extrema took {rounds!r} rounds on some cell, want <= 4"
# The vector pass the CPU selected for the batch lanes.
kernel = data.get("batch_kernel")
assert kernel in ("avx2", "baseline"), f"batch_kernel = {kernel!r}"
print(f"[check.sh] map throughput: batch {data['batch_speedup']:.2f}x, "
      f"adaptive {data['adaptive_speedup']:.2f}x at "
      f"{frac:.0%} of {cells:.0f} cells integrated, verdicts identical, "
      f"closed form <= {rounds} rounds per cell, {kernel} lane kernel")
PY

"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$MAP_JSON" --b "$MAP_JSON" --threshold 0 > /dev/null || {
  echo "[check.sh] map-throughput self-diff failed"; exit 1;
}

# An unknown map mode must be a usage error (exit 2) naming the choices.
expect_usage_error "unknown mode 'bogus'" \
  "$MAP_BENCH" --run map_throughput --map-mode bogus

echo "[check.sh] map throughput smoke clean ($MAP_JSON)"

# --- monitor smoke ----------------------------------------------------------
# The runtime invariant monitors end-to-end.  Clean armed run: every
# monitor on the E11 cross-validation scenario must stay quiet (exit 0)
# while exporting monitor.* metrics.  Violation path: the EXPERIMENTS.md
# contradiction recipe (sources at line rate, BCN reverse path fully
# lossy, plant fluid-certified strongly stable) must trip the crosscheck,
# dump a deterministic POSTMORTEM_crosscheck.json and exit with the
# distinct code 3.
cmake --build "$SMOKE_BUILD_DIR" -j --target packet_vs_fluid

MON_BENCH="$SMOKE_BUILD_DIR"/bench/packet_vs_fluid
MON_OUT=$(scratch_dir mon_a)
MON_OUT_B=$(scratch_dir mon_b)
"$MON_BENCH" --monitors all --out "$MON_OUT" > /dev/null || {
  echo "[check.sh] clean armed run exited nonzero"; exit 1;
}

MON_RUN_JSON="$MON_OUT/RUN_packet_vs_fluid.json"
[[ -f "$MON_RUN_JSON" ]] || { echo "[check.sh] missing $MON_RUN_JSON"; exit 1; }
python3 - "$MON_RUN_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("metrics.monitor.armed") == 1, "monitor not armed"
checks = data.get("metrics.monitor.checks")
assert isinstance(checks, (int, float)) and checks > 0, f"checks = {checks!r}"
assert data.get("metrics.monitor.violations") == 0, \
    f"clean run violated: {data.get('metrics.monitor.violations')!r}"
assert data.get("metrics.monitor.snapshots", 0) > 0, "no state snapshots"
print(f"[check.sh] armed quiet run: {checks:.0f} checks, 0 violations")
PY

# Violation path, twice: distinct exit code 3 and byte-identical bundles.
set +e
"$FAULT_BENCH" --faults bcn_drop=1 --monitors all --initial-rate 10e9 \
  --out "$MON_OUT" > /dev/null 2>&1
MON_STATUS_A=$?
"$FAULT_BENCH" --faults bcn_drop=1 --monitors all --initial-rate 10e9 \
  --out "$MON_OUT_B" > /dev/null 2>&1
MON_STATUS_B=$?
set -e
[[ $MON_STATUS_A -eq 3 && $MON_STATUS_B -eq 3 ]] || {
  echo "[check.sh] violation runs exited $MON_STATUS_A/$MON_STATUS_B, want 3"
  exit 1
}

MON_BUNDLE="$MON_OUT/POSTMORTEM_crosscheck.json"
[[ -f "$MON_BUNDLE" ]] || { echo "[check.sh] missing $MON_BUNDLE"; exit 1; }
python3 - "$MON_BUNDLE" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("bundle") == "postmortem", data.get("bundle")
assert data.get("invariant") == "crosscheck", data.get("invariant")
assert data.get("fluid_strongly_stable") is True, \
    "crosscheck tripped without a certified fluid verdict"
assert data.get("t_seconds", -1) > 0, "no violation time"
repro = data.get("repro", "")
for token in ("--seed", "--mechanism", "--faults bcn_drop=1",
              "--monitors all", "--initial-rate=10e9"):
    assert token in repro, f"repro line lacks {token!r}: {repro}"
assert data.get("snapshot_count", 0) > 0, "no snapshots in bundle"
assert data.get("checks", 0) > 0, "no checks recorded"
print(f"[check.sh] post-mortem bundle valid: crosscheck at "
      f"t={data['t_seconds']*1e3:.3f} ms, "
      f"{data['snapshot_count']:.0f} snapshots, "
      f"{data['event_count']:.0f} recent events")
PY

cmp "$MON_BUNDLE" "$MON_OUT_B/POSTMORTEM_crosscheck.json" || {
  echo "[check.sh] post-mortem bundle not reproducible across reruns"; exit 1;
}

# A malformed monitor spec must be a usage error (exit 2) with grammar,
# and so must a negative flight-recorder capacity.
expect_usage_error 'monitor spec' "$MON_BENCH" --monitors bogus
expect_usage_error "^--monitors: ring: '-1' is not a count" \
  "$FAULT_BENCH" --monitors watchdog,ring=-1

echo "[check.sh] monitor smoke clean ($MON_BUNDLE)"

# --- sharded-engine smoke ---------------------------------------------------
# The partitioned conservative engine end-to-end.  bcn_fabric's JSON
# artifact contains only shard-count-invariant quantities, so `cmp`
# across shard counts IS the determinism check; the E23 bench then runs
# its own digest gate across {1, 2, 4, 8} shards on a small fabric.
cmake --build "$SMOKE_BUILD_DIR" -j --target bcn_fabric sharded_throughput

FABRIC_TOOL="$SMOKE_BUILD_DIR"/tools/bcn_fabric
SHARD_OUT=$(scratch_dir shard)

FABRIC_ARGS=(--topology fat-tree:4 --flows-per-host 4 --duration-us 2000
             --rate 2e9 --monitors queue_bounds,finite)
"$FABRIC_TOOL" "${FABRIC_ARGS[@]}" --shards 1 \
  --json "$SHARD_OUT/fabric_s1.json" > /dev/null
"$FABRIC_TOOL" "${FABRIC_ARGS[@]}" --shards 4 \
  --json "$SHARD_OUT/fabric_s4.json" > /dev/null
cmp "$SHARD_OUT/fabric_s1.json" "$SHARD_OUT/fabric_s4.json" || {
  echo "[check.sh] fabric artifact differs between --shards 1 and 4"; exit 1;
}
python3 - "$SHARD_OUT/fabric_s1.json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("tool") == "bcn_fabric", data.get("tool")
assert data.get("frames_delivered", 0) > 0, "no frames delivered"
assert data.get("bcn_sent", 0) > 0, "feedback loop never engaged"
assert len(data.get("digest", "")) == 16, f"bad digest {data.get('digest')!r}"
for key in ("shards", "wall", "cross_shard"):
    assert not any(key in k for k in data), \
        f"shard-dependent key {key!r} leaked into the artifact"
print(f"[check.sh] fabric artifact invariant across shards: "
      f"digest {data['digest']}, {data['frames_delivered']:.0f} delivered, "
      f"{data['bcn_sent']:.0f} BCN")
PY

"$SMOKE_BUILD_DIR"/bench/sharded_throughput --run sharded_throughput \
  --out "$SHARD_OUT" --topology fat-tree:4 --flows-per-host 2 \
  --duration-us 400 > /dev/null || {
  echo "[check.sh] sharded_throughput failed (digest gate?)"; exit 1;
}

SHARD_JSON="$SHARD_OUT/BENCH_sharded_throughput.json"
[[ -f "$SHARD_JSON" ]] || { echo "[check.sh] missing $SHARD_JSON"; exit 1; }
python3 - "$SHARD_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("benchmark") == "sharded_throughput", data.get("benchmark")
assert data.get("digest_match") == 1, "digest varied with the shard count"
digests = set()
for n in (1, 2, 4, 8):
    eps = data.get(f"shards_{n}_events_per_sec")
    assert isinstance(eps, (int, float)) and eps > 0, f"shards_{n}: {eps!r}"
    digests.add(data.get(f"shards_{n}_digest"))
assert len(digests) == 1, f"artifact digests diverge: {digests}"
parity = data.get("parity_ratio")
assert isinstance(parity, (int, float)) and parity > 0, f"parity {parity!r}"
assert data.get("hardware_threads", 0) >= 1
rates = ", ".join(f"{n}sh={data[f'shards_{n}_events_per_sec']/1e6:.2f}M/s"
                  for n in (1, 2, 4, 8))
print(f"[check.sh] sharded throughput: {rates}, "
      f"single-shard parity {parity:.2f}x on "
      f"{data['hardware_threads']:.0f} hardware threads")
PY

"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$SHARD_JSON" --b "$SHARD_JSON" \
  --threshold 0 --require-same-keys > /dev/null || {
  echo "[check.sh] sharded-throughput self-diff failed"; exit 1;
}

# A malformed shard count must be a usage error (exit 2) on the tool and
# on the shared bench runner alike; so must a non-positive horizon and a
# malformed flow count.
expect_usage_error "^--shards: 'bogus' is not a count" \
  "$FABRIC_TOOL" --topology fat-tree:4 --shards bogus
expect_usage_error "^--shards: 'bogus' is not a count" \
  "$SMOKE_BUILD_DIR"/bench/sharded_throughput --run sharded_throughput \
  --shards bogus
expect_usage_error "^--duration-us: must be > 0" \
  "$FABRIC_TOOL" --duration-us -1
expect_usage_error "^--flows-per-host: 'abc' is not a count" \
  "$FABRIC_TOOL" --flows-per-host abc

echo "[check.sh] sharded-engine smoke clean ($SHARD_JSON)"

# --- service smoke ----------------------------------------------------------
# The stability-verdict service end-to-end.  The determinism contract
# (docs/SERVICE.md): a service answer — cold, cached, or replayed — is
# byte-identical to the bcn_analyze stdout for the echoed parameters.
cmake --build "$SMOKE_BUILD_DIR" -j \
  --target bcn_serve bcn_load bcn_analyze service_qps

SVC_OUT=$(scratch_dir svc)

"$SMOKE_BUILD_DIR"/tools/bcn_serve --port 0 --threads 2 \
  > "$SVC_OUT/serve.log" 2>&1 &
SERVE_PID=$!
SVC_PORT=
for _ in $(seq 1 200); do
  SVC_PORT=$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' \
    "$SVC_OUT/serve.log")
  [[ -n "$SVC_PORT" ]] && break
  sleep 0.05
done
[[ -n "$SVC_PORT" ]] || {
  echo "[check.sh] bcn_serve never reported a port"; exit 1;
}

# Scripted exchange: a control op, four distinct verdicts (closed-form
# bcn, the qcn and rcp fluid facets, custom plant), a repeat of the
# first verdict line (must be answered from the cache, byte-identically),
# and stats.
cat > "$SVC_OUT/session.txt" <<'EOF'
{"op":"ping","id":1}
{"op":"verdict"}
{"op":"verdict","mechanism":"qcn","a":4e8}
{"op":"verdict","mechanism":"rcp"}
{"op":"verdict","a":4e8,"B":1.2e7}
{"op":"verdict"}
{"op":"stats"}
EOF
"$SMOKE_BUILD_DIR"/tools/bcn_load --port "$SVC_PORT" \
  --script "$SVC_OUT/session.txt" > "$SVC_OUT/responses.txt"

BCN_ANALYZE_BIN="$SMOKE_BUILD_DIR"/tools/bcn_analyze
BCN_ANALYZE="$BCN_ANALYZE_BIN" python3 - "$SVC_OUT/responses.txt" <<'PY'
import json, os, subprocess, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert len(lines) == 7, f"want 7 responses, got {len(lines)}"
bodies = [json.loads(l) for l in lines]
assert bodies[0] == {"id": 1, "op": "ping", "ok": True}, bodies[0]

# Every verdict answer must reproduce the CLI byte for byte when
# bcn_analyze is invoked with the echoed (derived) parameters.
analyze = os.environ["BCN_ANALYZE"]
for body in bodies[1:5]:
    assert body["op"] == "verdict", body
    argv = [analyze]
    for flag in ("gi", "gd", "pm", "q0", "B"):
        argv += [f"--{flag}", repr(body[flag])]
    if body["mechanism"] != "bcn":
        argv += ["--mechanism", body["mechanism"]]
    cli = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert cli.stdout == body["text"], \
        f"service text diverges from `{' '.join(argv)}` stdout"

# The repeated bare verdict line is answered from the cache and must be
# byte-identical to the cold response.
assert lines[5] == lines[1], "cached response != cold response"

# The stats snapshot accounts for the script exactly: 7 requests, 4
# distinct cacheable keys (misses), 1 replay (hit).
stats = bodies[6]
assert stats["service.requests"] == 7, stats
assert stats["service.cache.misses"] == 4, stats
assert stats["service.cache.hits"] == 1, stats
assert stats["service.errors"] == 0, stats
print("[check.sh] scripted requests: 4 verdicts CLI-identical, "
      "replay cached byte-identically (hits=1, misses=4)")
PY

# Load mode: a seeded pool replayed over concurrent connections; the
# tool itself exits 1 on any byte divergence between cold and cached
# answers to the same request line.
"$SMOKE_BUILD_DIR"/tools/bcn_load --port "$SVC_PORT" \
  --requests 64 --connections 4 --space 8 > /dev/null || {
  echo "[check.sh] bcn_load load mode failed (byte identity?)"; exit 1;
}

# The shutdown op must terminate the server process with exit 0.
echo '{"op":"shutdown"}' > "$SVC_OUT/shutdown.txt"
"$SMOKE_BUILD_DIR"/tools/bcn_load --port "$SVC_PORT" \
  --script "$SVC_OUT/shutdown.txt" > /dev/null
SERVE_STATUS=0
wait "$SERVE_PID" || SERVE_STATUS=$?
SERVE_PID=
[[ $SERVE_STATUS -eq 0 ]] || {
  echo "[check.sh] bcn_serve exited $SERVE_STATUS after shutdown op, want 0"
  exit 1
}

# Bad flags are usage errors (exit 2) on both tools, and a malformed or
# non-finite plant parameter stops bcn_analyze before any verdict.
SERVE_BIN="$SMOKE_BUILD_DIR"/tools/bcn_serve
LOAD_BIN="$SMOKE_BUILD_DIR"/tools/bcn_load
expect_usage_error "^--port: 'bogus' is not a count" "$SERVE_BIN" --port bogus
expect_usage_error "^--port: '70000' exceeds the maximum 65535" \
  "$SERVE_BIN" --port 70000
expect_usage_error "^--threads: 'bogus' is not a count" \
  "$SERVE_BIN" --threads bogus
expect_usage_error "unknown flag --bogus" "$SERVE_BIN" --bogus 1
expect_usage_error "^--port is required" "$LOAD_BIN" --requests 4
expect_usage_error "^--requests: 'bogus' is not a count" \
  "$LOAD_BIN" --port 1 --requests bogus
expect_usage_error "^need --script file or --requests n" "$LOAD_BIN" --port 1
for gi in abc inf nan; do
  expect_usage_error "^--gi: '$gi' is not a finite decimal number" \
    "$BCN_ANALYZE_BIN" --gi "$gi"
done

# E24: the service-throughput bench doubles as the concurrent
# byte-identity gate (exit 1 on any cached/cold divergence) and its
# artifact pins the exact cache accounting.
"$SMOKE_BUILD_DIR"/bench/service_qps --run service_qps --out "$SVC_OUT" \
  --connections 4 --space 16 --passes 4 > /dev/null || {
  echo "[check.sh] service_qps failed (byte identity or errors)"; exit 1;
}

SVC_JSON="$SVC_OUT/BENCH_service_qps.json"
[[ -f "$SVC_JSON" ]] || { echo "[check.sh] missing $SVC_JSON"; exit 1; }
python3 - "$SVC_JSON" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
assert data.get("benchmark") == "service_qps", data.get("benchmark")
assert data.get("byte_mismatches") == 0, \
    f"{data.get('byte_mismatches')!r} cached responses diverged"
assert data.get("errors") == 0, f"{data.get('errors')!r} protocol errors"
space, passes = data["space"], data["passes"]
# Cold pass: every distinct request missed once.  Cached passes: every
# lookup hit.  The counters must balance exactly.
assert data.get("cache_misses") == space, \
    f"cache_misses = {data.get('cache_misses')!r}, want {space}"
assert data.get("cache_hits") == space * passes, \
    f"cache_hits = {data.get('cache_hits')!r}, want {space * passes}"
for key in ("cold_qps", "cached_qps", "cold_p50_ms", "cold_p99_ms",
            "cached_p50_ms", "cached_p99_ms", "cached_speedup"):
    value = data.get(key)
    assert isinstance(value, (int, float)) and value > 0, f"{key}: {value!r}"
print(f"[check.sh] service qps: cold {data['cold_qps']:.0f}/s, "
      f"cached {data['cached_qps']:.0f}/s "
      f"({data['cached_speedup']:.1f}x), hit/miss accounting exact")
PY

"$SMOKE_BUILD_DIR"/tools/bcn_bench_diff \
  --a "$SVC_JSON" --b "$SVC_JSON" --threshold 0 --require-same-keys \
  > /dev/null || {
  echo "[check.sh] service-qps self-diff failed"; exit 1;
}

# Documentation link check: every relative link in README.md and
# docs/*.md must point at a file that exists.
python3 - <<'PY'
import glob, os, re, sys
files = ["README.md"] + sorted(glob.glob("docs/*.md"))
pattern = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
bad = []
checked = 0
for path in files:
    base = os.path.dirname(path)
    for target in pattern.findall(open(path).read()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        checked += 1
        resolved = os.path.normpath(os.path.join(base, target.split("#")[0]))
        if not os.path.exists(resolved):
            bad.append(f"{path}: {target}")
for link in bad:
    print(f"[check.sh] dangling doc link: {link}")
if bad:
    sys.exit(1)
print(f"[check.sh] doc links valid: {checked} relative links "
      f"across {len(files)} files")
PY

echo "[check.sh] service smoke clean ($SVC_JSON)"

# --- address + undefined-behaviour sanitizers -------------------------------
# Every tier-1 suite under ASan+UBSan.  Like gate 1, the suites run
# directly so unbuilt siblings cannot pollute the result.
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}
ASAN_SUITES=(common obs exec ode control core sim analysis plot service
             integration)
ASAN_TARGETS=()
for suite in "${ASAN_SUITES[@]}"; do ASAN_TARGETS+=("bcn_${suite}_tests"); done
cmake -B "$ASAN_BUILD_DIR" -S . -DBCN_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_BUILD_DIR" -j --target "${ASAN_TARGETS[@]}"

for suite in "${ASAN_SUITES[@]}"; do
  "$ASAN_BUILD_DIR/tests/$suite/bcn_${suite}_tests"
done

echo "[check.sh] ASan+UBSan run clean"
