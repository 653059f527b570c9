#!/usr/bin/env python3
"""Steadiness runner for the OdeView session benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace 0]
                                [--first-seed 1] [--seconds S]

Runs every chosen workload --runs times through run.py, each run with its
own seed (first-seed, first-seed+1, ...), visiting the workloads round
robin so machine drift spreads over all of them; with --runs 1 it is the
one command that prints every metric of every workload with its unit.
For every metric it
reports the median, the quartiles (statistics.quantiles(values, n=4))
and the spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json:

    steady   spread below a third of the bound
    within   spread within the bound
    WIDE     spread beyond the bound (setup_s is exempt: it is compared
             by median only)

Exits 1 when a run fails, a result is not correct or a spread is
WIDE; otherwise 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    workloads = args.workloads.split(",")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    results = {w: [] for w in workloads}
    problems = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            try:
                result = run_once(w, seed, args.seconds, args.trace)
            except RuntimeError as err:
                problems.append(str(err))
                print(f"run failed: {err}", flush=True)
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} seed {seed}: correct={result['correct']}"
                                f" failed={result['failed']}")
            results[w].append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)

    for w in workloads:
        if not results[w]:
            problems.append(f"{w}: no successful run")
            continue
        print(f"\n{w} ({len(results[w])} runs)")
        print(f"  {'metric':34} {'unit':>6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            s = summarize([r["metrics"][name]["value"] for r in results[w]])
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "median only"
                elif s["spread"] < bound / 3:
                    verdict = "steady"
                elif s["spread"] <= bound:
                    verdict = "within"
                else:
                    verdict = "WIDE"
                    problems.append(f"{w} {name}: spread {s['spread']:.3f} > "
                                    f"bound {bound}")
            print(f"  {name:34} {m['unit']:>6} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {s['spread']:8.3f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    if problems:
        print("\nproblems:\n  " + "\n  ".join(problems))
        return 1
    print("\nall runs correct; every spread within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
