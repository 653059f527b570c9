#!/usr/bin/env python3
"""Builds and runs the OdeView session benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles
the benchmark package (perfbench/CMakeLists.txt, which builds the
libraries from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only re-check the
build. Build output goes to standard error. The benchmark binary's
standard output is passed through, so its last line, one JSON object
with "correct", "attempted", "failed" and "metrics", is this script's
last line too. The script exits non-zero, printing no result, when the
build or the run fails or when the result does not name exactly the
metrics BENCHMARK.json lists for the mode.

`--tiny` runs the smoke-test scale (see smoke.py).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs(),
                  "--target", "odeview_perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"perfbench: build step failed: {err}")
        if proc.returncode != 0:
            if cmd[1] == "-S":
                # A failed configure leaves a cache behind; drop it so
                # the next run configures afresh.
                shutil.rmtree(out, ignore_errors=True)
            sys.exit(f"perfbench: build step {' '.join(cmd)} exited "
                     f"{proc.returncode}")
    return os.path.join(out, "odeview_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(set(want) - set(got))}, extra "
                         f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name}: {got[name]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    binary = build()
    work = os.path.join(build_dir(), "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: benchmark binary exited {proc.returncode}")
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError, TypeError) as err:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: malformed result: {err}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
