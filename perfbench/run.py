#!/usr/bin/env python3
"""End-to-end serving benchmark for ticl_served.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Builds the library, the unmodified ticl_served and the perfbench client
from source (into .bench_build/, or $CARGO_TARGET_DIR when set), generates
the standin:dblp@40 snapshot once, then runs one workload and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--repeat N runs the workload N times (seeds seed .. seed+N-1) and prints
each metric's median and quartiles instead.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("solve-mix", "hit-storm", "churn")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def check(cmd, **kwargs):
    # Build output goes to stderr: stdout carries only the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)


def build():
    out = build_dir() / "perfbench-cmake"
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"] + generator)
    check(["cmake", "--build", str(out), "--target", "perfbench",
           "ticl_served", "-j", "4"])
    return out / "perfbench", out / "ticl" / "ticl_served"


def base_snapshot(perfbench):
    data = build_dir() / "perfbench-data"
    data.mkdir(parents=True, exist_ok=True)
    snapshot = data / "dblp40.snap"
    if not snapshot.exists():
        log("generating standin:dblp@40 (once per build directory)")
        check([str(perfbench), "prepare-base", "--out", str(snapshot)])
    return snapshot


def run_once(perfbench, served, snapshot, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed result object."""
    work = build_dir() / "perfbench-runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(perfbench), "run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--served", str(served),
           "--snapshot", str(snapshot), "--work", str(work)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} seed {seed} timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def repeat(perfbench, served, snapshot, args):
    runs = []
    for i in range(args.repeat):
        result = run_once(perfbench, served, snapshot, args.workload,
                          args.seed + i, args.seconds, args.trace)
        log(f"run {i + 1}/{args.repeat} seed {args.seed + i}: "
            f"{json.dumps(result)}")
        runs.append(result)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in runs}),
               "metrics": {}}
    print(f"{'metric':36s} {'unit':>6s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (median, median, median))
        spread = (q3 - q1) / median if median else float("nan")
        summary["metrics"][name] = {"unit": first["unit"], "median": median,
                                    "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:36s} {first['unit']:>6s} {median:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f}")
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times and print medians and quartiles")
    args = parser.parse_args()
    if not (ROOT / "CMakeLists.txt").exists():
        sys.exit("perfbench: the repository's sources are not here")
    try:
        perfbench, served = build()
        snapshot = base_snapshot(perfbench)
        if args.repeat > 0:
            repeat(perfbench, served, snapshot, args)
            return
        result = run_once(perfbench, served, snapshot, args.workload,
                          args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        sys.exit(f"perfbench: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
