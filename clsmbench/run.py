#!/usr/bin/env python3
"""Builds the cLSM benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 clsmbench/run.py --workload <ingest|read|mixed|serve> --seed <n> \
        --seconds <n> --trace <0|1>
    python3 clsmbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/clsmbench (default .bench_build) and,
with --trace 1, the spans to .bench_out/; the store itself lives in memfd
files and is gone when the run ends. The last line of standard output is
the result object; everything the build prints goes to standard error. The exit code is 0 only for a run whose
every operation and check succeeded.
"""

import argparse
import os
import subprocess
import sys
import time

PKG_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build included
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "clsmbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", PKG_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("clsmbench: build failed: " + " ".join(cmd))
    return build_dir


def run_child(cmd, timeout_s):
    """Runs cmd, passing its output through; kills it at the timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("clsmbench: run exceeded %d s and was stopped" % timeout_s)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    start = time.monotonic()
    root = os.getcwd()
    build_dir = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        cmd = [os.path.join(build_dir, "clsmbench_selftest"), out_dir]
    else:
        cmd = [os.path.join(build_dir, "clsmbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                out_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    rc, out = run_child(cmd, max(10, RUN_TIMEOUT_S - int(time.monotonic() - start)))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
