"""Run the drslam benchmark: one workload, or all of them one after another.

    python3 bench/run.py --workload corridor_run --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0

--seconds defaults to run_seconds in BENCHMARK.json.

Each workload runs in two fresh processes with BLAS and OpenMP pinned to one
thread before numpy loads: bench/inputs.py simulates the input sequences
(one from the seed, one fixed) and writes them under bench/_work (untimed),
then bench/workload.py measures them. The last line printed is one JSON object
with keys correct, attempted, failed and metrics; with --workload all the
metric names carry the workload as a prefix. Exits 0 only if every process
ran to its end and printed a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from workloads import BENCH, SRC, THREAD_ENV, WORKLOADS, declared

RUN_LIMIT_S = 170.0


def run_child(cmd, env, deadline):
    """Run one child to its end; None if it failed or outlived the deadline."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{os.path.basename(cmd[1])}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{os.path.basename(cmd[1])}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout.splitlines()


def run_workload(workload, seed, seconds, trace, env):
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(BENCH, "_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        lines = run_child([sys.executable, os.path.join(BENCH, "inputs.py"),
                           "--workload", workload, "--seed", str(seed), "--out", work],
                          env, deadline)
        if lines is None:
            return None
        measured = run_child([sys.executable, os.path.join(BENCH, "workload.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace),
                              "--inputs", work], env, deadline)
        if not measured:
            return None
        return lines + measured
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=declared()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "drslam", "__init__.py")):
        print(f"no drslam source tree at {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines = run_workload(name, args.seed, args.seconds, args.trace, env)
        if lines is None:
            return 1
        result = json.loads(lines[-1])
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(lines[:-1]))
        print(f"{name}: " + lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
