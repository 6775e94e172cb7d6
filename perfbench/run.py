#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. The last line of stdout is the JSON result
        {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
        with --trace 0, the per-layer ledger with --trace 1.
    python3 perfbench/run.py [--seed N] [--seconds S]
        Every workload, untraced then traced, as a table.
    python3 perfbench/run.py --smoke
        Every workload for one second each, both modes; exit 1 on a failure.

Run from the root of a checkout. The program is built from source with cargo
into $CARGO_TARGET_DIR (default .bench_build); the traced run writes its
Chrome trace to <target>/perfbench/trace-<workload>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["matrix", "certify", "serve", "sharded"]
# one run must end well inside the 180 s a run is allowed
RUN_TIMEOUT_S = 170


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Build the slc binary and the benchmark; return the benchmark path."""
    for need in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found under {ROOT}: not a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "slc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """One run; returns (stdout lines before the result, result dict)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--slc", os.path.join(target_dir(), "release", "slc"),
        "--trace-out", os.path.join(target_dir(), "perfbench", f"trace-{workload}.json"),
        *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: exit {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def table(seed, seconds):
    binary = build()
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            notes, res = run_workload(binary, w, seed, seconds, trace)
            mode = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {w}: {mode}, seed {seed}, {seconds} s")
            print("\n".join(notes))
            ok &= res["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if a.smoke:
        sys.exit(0 if table(a.seed, 1) else 1)
    if a.workload is None:
        sys.exit(0 if table(a.seed, a.seconds) else 1)
    binary = build()
    try:
        notes, res = run_workload(binary, a.workload, a.seed, a.seconds, a.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {e}")
    print("\n".join(notes))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
