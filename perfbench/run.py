#!/usr/bin/env python3
"""End-to-end service benchmark: build, run one workload, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload charge_heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call builds the GUPT libraries and perfbench_service from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Workload parameters come from
perfbench/workloads.json. The last line of stdout is perfbench_service's JSON
result; build output goes to stderr. Without the repository's sources
next to this directory the build fails and no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once and builds; returns the program's path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench_service")
    return binary if os.path.exists(binary) else None


def service_args(workload, seed, seconds, trace):
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if workload not in spec["workloads"]:
        names = ", ".join(sorted(spec["workloads"]))
        raise SystemExit(f"unknown workload {workload!r} (have {names})")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(build_dir(), "run")]
    for key, value in spec["workloads"][workload]["params"].items():
        args += [f"--{key}", str(value)]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if opts.selftest:
        return subprocess.run([binary, "--selftest"], check=False).returncode

    cmd = [binary] + service_args(opts.workload, opts.seed, opts.seconds,
                                 opts.trace)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        print(f"perfbench_service failed (exit {done.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
