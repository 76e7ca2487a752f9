#!/usr/bin/env python3
"""Steadiness check: runs one workload several times and reports, for
each metric, its median, quartiles and range against the bound that
BENCHMARK.json sets for it.

Usage, from the root of the repository:

    python3 clsmbench/steady.py --workload read --runs 5
    python3 clsmbench/steady.py --workload ingest --seeds 1,2,3 --holdout 9001

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4). A metric is "steady" when
its spread is under a third of its bound and "ok" when under the bound.
The holdout seed is one not used while tuning the benchmark; its run is
reported separately as its distance from the median, as a share of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    return spec, bounds


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("  seed %d: %.1f s wall" % (seed, time.monotonic() - start), flush=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("run failed: seed %d exited %d" % (seed, proc.returncode))
    for line in lines[:-1]:
        if line.startswith("host:"):
            print("  " + line)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("run with seed %d reported failures: %s" % (seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    ap.add_argument("--holdout", type=int, default=9001,
                    help="a seed not used while tuning; 0 skips it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, bounds = load_bounds()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    runs = []
    for seed in seeds:
        print("seed %d ..." % seed, flush=True)
        runs.append(run_once(spec, args.workload, seed, spec["run_seconds"], args.trace))
    holdout = None
    if args.holdout:
        print("holdout seed %d ..." % args.holdout, flush=True)
        holdout = run_once(spec, args.workload, args.holdout, spec["run_seconds"], args.trace)

    print("\n%-34s %12s %12s %12s %8s %8s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "range", "bound", "verdict"))
    worst = "steady"
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        rng = (max(values) - min(values)) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = "-"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "ok"
        else:
            verdict = "TOO NOISY"
        if verdict == "TOO NOISY" or (verdict == "ok" and worst == "steady"):
            worst = verdict.lower()
        if holdout is not None and med:
            off = (holdout[name] - med) / med
            verdict += "; holdout %+.1f%%" % (100 * off)
            if bound is not None and abs(off) > bound:
                verdict += " OUTSIDE BOUND"
        print("%-34s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %8s  %s" % (
            name, med, q1, q3, 100 * spread, 100 * rng,
            "-" if bound is None else "%.0f%%" % (100 * bound), verdict))
    print("\nper run, in seed order (drift between runs shows as a trend):")
    for name in runs[0]:
        print("%-34s %s" % (name, " ".join("%.4g" % r[name] for r in runs)))
    print("\n%s: %d runs, worst verdict: %s" % (args.workload, len(runs), worst))


if __name__ == "__main__":
    main()
