#!/usr/bin/env python3
"""Builds the perfbench package and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The package is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The program's output is passed
through; its last line, one JSON object with the keys correct, attempted,
failed and metrics, is checked against BENCHMARK.json (every metric the run
must report, with its unit) before this script exits 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark's own limit is 180 s per run; leave room for the build check.
RUN_TIMEOUT_S = 170


def capture(cmd):
    """First line of a command's output, or 'unknown' when it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs the run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check(result, trace):
    """Problems with the shape of the final JSON line, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    got = result["metrics"]
    want = expected_metrics(trace)
    for name, unit in want:
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} is {m}, expected unit {unit}")
    extra = set(got) - {n for n, _ in want}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        print(f"perfbench: last line is not JSON: {e}", file=sys.stderr)
        return 1
    if result.get("correct") is not True:
        print(f"perfbench: {result.get('failed')} of {result.get('attempted')} operations failed",
              file=sys.stderr)
    problems = check(result, args.trace == 1)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
