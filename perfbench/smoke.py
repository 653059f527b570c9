#!/usr/bin/env python3
"""Tiny-scale smoke check of the OdeView session benchmark.

    python3 perfbench/smoke.py [--seconds 1]

Runs every workload rationale.json describes (those of BENCHMARK.json
and edit_mix, which is run by hand) at the smoke-test scale (run.py
--tiny) untraced and traced. run.py itself exits non-zero unless the
result names exactly BENCHMARK.json's metrics with their units; this
check adds that each run is correct, that every end-to-end value is
positive, and that rationale.json explains every workload and metric.
Exits 1 when any of these fails, listing every failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)

    problems = []
    for w in spec["workloads"]:
        if w["name"] not in rationale["workloads"]:
            problems.append(f"rationale.json lacks workload {w['name']}")
    for m in spec["end_to_end"]:
        if m["name"] not in rationale["end_to_end"]:
            problems.append(f"rationale.json lacks end-to-end {m['name']}")
    for m in spec["per_layer"]:
        entry = rationale["per_layer"].get(m["name"])
        if not entry or not {"layer", "measures", "moves", "on"} <= set(entry):
            problems.append(f"rationale.json lacks per-layer {m['name']}")

    for workload in rationale["workloads"]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", str(args.seconds),
                   "--trace", trace, "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                + proc.stderr.strip()[-300:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if trace == "0":
                for name, got in result["metrics"].items():
                    if not got["value"] > 0:
                        problems.append(f"{label}: {name} is {got['value']}")
            print(f"{label}: {len(result['metrics'])} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}",
                  flush=True)
    if problems:
        print("smoke check failed:\n  " + "\n  ".join(problems))
        return 1
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
