#!/usr/bin/env python3
"""Repo benchmark entry point: builds bcn_perfbench from source, runs it.

    python3 perfbench/run.py --workload map|fabric|service --seed N \
        --seconds S --trace 0|1 [--corrupt-reference]

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the repository's src/ plus bcn_perfbench) into
.bench_build/perfbench; later calls only re-check the build.

--trace 0 reports the end-to-end metrics of one workload.  Set-up time
is the median over several launches: SETUP_LAUNCHES extra processes stop
after set-up, and the measured run adds its own sample.  --trace 1
reports the per-layer metrics of the traced layer census.  The last
stdout line is the result JSON; build output goes to stderr.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bcn_perfbench")
SETUP_LAUNCHES = 2
DEADLINE_S = 170.0  # every run must end within 180 s


def build():
    generated = ("Makefile", "build.ninja")  # written only by a good configure
    if not any(os.path.exists(os.path.join(BUILD, g)) for g in generated):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bcn_perfbench", "-j", "3"],
        check=True, stdout=sys.stderr)


def launch(args, deadline):
    """Runs bcn_perfbench; returns its stdout lines and parsed last line."""
    proc = subprocess.run(
        [BINARY, *args], stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["map", "fabric", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip every correctness reference (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S  # the first build may be slow

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.corrupt_reference:
        common.append("--corrupt-reference")
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES):
                _, probe = launch(common + ["--setup-only"], deadline)
                setup.append(probe["metrics"]["setup_s"]["value"])
        lines, result = launch(
            common + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)], deadline)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"perfbench: bcn_perfbench failed: {e}", file=sys.stderr)
        return 1

    if setup:
        metric = result["metrics"]["setup_s"]
        setup.append(metric["value"])
        print(f"setup_s samples: {setup}")
        metric["value"] = statistics.median(setup)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
