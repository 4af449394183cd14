// bcn_bench_diff: perf-regression gate over two flat BENCH_*/RUN_*.json
// artifacts (the files bench/runner and perf_microbench emit).
//
//   bcn_bench_diff --a baseline.json --b candidate.json [--threshold 0.10]
//                  [--match substr] [--abs-floor 1e-12]
//                  [--require-same-keys]
//
// Every numeric key present in both files is compared with a relative
// threshold.  Exit codes: 0 = within threshold, 1 = at least one metric
// regressed (or a key mismatch with --require-same-keys), 2 = usage or
// I/O error.  Designed for CI: keep a committed baseline json, run the
// bench, diff, fail the build on breach.
#include <cstdio>

#include "common/args.h"
#include "obs/bench_diff.h"

using namespace bcn;

namespace {

void usage() {
  std::puts(
      "usage: bcn_bench_diff --a baseline.json --b candidate.json\n"
      "                      [--threshold x] [--match substr]\n"
      "                      [--abs-floor x] [--require-same-keys]\n"
      "  --threshold x        relative tolerance per metric (default\n"
      "                       0.10); 0 requires exact equality\n"
      "  --match substr       only compare keys containing substr\n"
      "  --abs-floor x        denominator floor for near-zero baselines\n"
      "                       (default 1e-12)\n"
      "  --require-same-keys  keys present in only one file count as\n"
      "                       regressions\n"
      "exit: 0 within threshold, 1 regression, 2 usage/IO error");
}

int run(const ArgParser& args) {
  if (args.get_bool("help")) {
    usage();
    return 0;
  }
  if (!reject_unknown_flags(args, {"help", "a", "b", "threshold", "match",
                                   "abs-floor", "require-same-keys"})) {
    usage();
    return 2;
  }
  const auto file_a = args.get("a");
  const auto file_b = args.get("b");
  if (!file_a || !file_b) {
    std::fprintf(stderr, "bcn_bench_diff: --a and --b are required\n");
    usage();
    return 2;
  }

  obs::BenchDiffOptions opts;
  opts.threshold = args.get_double("threshold", opts.threshold);
  opts.abs_floor = args.get_double("abs-floor", opts.abs_floor);
  opts.match = args.get("match").value_or("");
  opts.require_same_keys = args.get_bool("require-same-keys");
  if (opts.threshold < 0.0) throw UsageError("--threshold: must be >= 0");

  const auto result = obs::bench_diff(*file_a, *file_b, opts);
  if (!result.ok) {
    std::fprintf(stderr, "bcn_bench_diff: %s\n", result.error.c_str());
    return 2;
  }
  std::printf("%s", obs::format_bench_diff(result, opts).c_str());
  return result.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return run_cli(argc, argv, run); }
