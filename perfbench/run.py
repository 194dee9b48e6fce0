#!/usr/bin/env python3
"""Build and run the netshuffle end-to-end pipeline benchmark.

From the root of a netshuffle checkout:

    python3 perfbench/run.py --workload cold-certify --seed 1 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, one process each

The benchmark is built from the checkout's sources into .bench_build/ (a
Release build of the library plus perfbench/src), then run once per
workload.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a span-traced replay.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; records and Chrome traces go
to .bench_build/records/.  The exit status is non-zero when the build fails,
a run times out, or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(CHECKOUT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
RECORDS_DIR = os.path.join(BUILD_DIR, "records")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
WORKLOADS = ("cold-certify", "serve-steady", "serve-churn")
# One workload run must finish well inside three minutes.
RUN_TIMEOUT_S = 170
# Everything the benchmark's behaviour depends on, for the source digest.
SOURCE_DIRS = ("baselines", "core", "data", "dp", "estimation", "graph",
               "shuffle", "util", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (cheap when cached) and build; False on failure."""
    os.makedirs(RECORDS_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = (
        ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", jobs],
    )
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=CHECKOUT).returncode != 0:
                break
        else:
            return True
    with open(log_path) as f:
        tail = f.read().splitlines()[-30:]
    log("build failed (" + log_path + "):\n" + "\n".join(tail))
    return False


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(CHECKOUT))
    try:
        r = subprocess.run(["git", "-C", CHECKOUT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
    except OSError:
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the library, build and benchmark sources."""
    h = hashlib.sha256()
    paths = [os.path.join(CHECKOUT, "CMakeLists.txt")]
    for d in SOURCE_DIRS:
        for root, dirs, files in os.walk(os.path.join(CHECKOUT, d)):
            dirs.sort()
            paths.extend(os.path.join(root, f) for f in sorted(files))
    for p in paths:
        if not os.path.isfile(p) or "__pycache__" in p:
            continue
        h.update(os.path.relpath(p, CHECKOUT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(workload, args, commit, digest):
    """Runs one workload process; returns (stdout lines, result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RECORDS_DIR, "--commit", commit,
           "--source-digest", digest]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=CHECKOUT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return [], None
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload}: exited {proc.returncode} without a result line")
        return lines, None
    if proc.returncode != 0 and result["correct"]:
        log(f"{workload}: exited {proc.returncode}")
        return lines, None
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds.is_integer():
        args.seconds = int(args.seconds)

    if not build():
        return 2
    commit, digest = git_commit(), source_digest()

    if args.workload != "all":
        lines, result = run_workload(args.workload, args, commit, digest)
        if result is None:
            return 3
        print("\n".join(lines), flush=True)
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_workload(workload, args, commit, digest)
        print(f"== {workload} (seed {args.seed}, trace {args.trace})")
        print("\n".join(lines[:-2]), flush=True)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
