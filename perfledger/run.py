#!/usr/bin/env python3
"""Build and run the perfledger benchmark.

    python3 perfledger/run.py \
        --workload solo_hot|solo_cold|fleet_cold|paper_sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfledger/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfledger, or
.bench_build/perfledger when the variable is unset; runs the
arithmetic self-tests; then runs one workload. Build output goes to
stderr; stdout carries the metric table and, as its last line, the
JSON result. A traced run also writes its spans as JSON lines under
<build dir>/spans/. Exits non-zero, printing no result, when the build
or a self-test fails, and non-zero with the result when a reply or
record differs from its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solo_hot", "solo_cold", "fleet_cold", "paper_sweep")


def fail(message):
    print("perfledger: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(workload, traced):
    """Metric names BENCHMARK.json promises for this kind of run, and
    whether it gates the workload (an ungated one may print more)."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None, False
    with open(path) as f:
        spec = json.load(f)
    gated = workload in {w["name"] for w in spec["workloads"]}
    names = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    return names, gated


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.relpath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfledger"))
    build(build_dir)

    selftest = subprocess.run(
        [os.path.join(build_dir, "perfledger_selftest")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        fail("self-tests failed")

    # Relative paths keep Unix socket names short.
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfledger"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("%s exited with %d" % (args.workload, run.returncode))

    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("no JSON result line")
    expected, gated = expected_metrics(args.workload, bool(args.trace))
    measured = set(result["metrics"])
    if expected is not None and (measured != expected if gated
                                 else not expected <= measured):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: %s" % sorted(
            measured ^ expected))
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
