"""Workload definitions and the set-up shared by the benchmark's processes.

Import this module before numpy: it pins BLAS and OpenMP to one thread.
"""

from __future__ import annotations

import json
import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")

MODE = "adaptive"
SWEEP_SEGMENT = (270, 360)
SWEEP_ALPHAS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
SWEEP_REPEATS = 3
REPEAT_SEED_STRIDE = 1000   # evaluation.alpha_sweep re-simulates repeat r at seed + 1000 r

# Each round of a run replays two sequences: the one simulated from --seed,
# and one simulated at ACCURACY_SEED whatever --seed is, so that ape_rmse_m is
# measured on the same input in every run.
ACCURACY_SEED = 0
SEQUENCES = ("seq", "acc")

WORKLOADS = {
    "corridor_run": {"scenario": "corridor_gap", "kind": "run"},
    "loop_run": {"scenario": "two_lap", "kind": "run"},
    "weight_sweep": {"scenario": "corridor_gap", "kind": "sweep"},
}


def simulator_seeds(seed: int) -> dict:
    return {"seq": seed, "acc": ACCURACY_SEED}


def declared() -> dict:
    """BENCHMARK.json at the root of the checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def config_path(scenario: str) -> str:
    return os.path.join(SRC, "drslam", "configs", f"{scenario}.cfg")


def import_drslam():
    """Import drslam from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, SRC)
    import drslam

    if os.path.dirname(os.path.abspath(drslam.__file__)) != os.path.join(SRC, "drslam"):
        raise ImportError(f"drslam imported from {drslam.__file__}, not from {SRC}")
    return drslam
