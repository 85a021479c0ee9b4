"""Measure one workload in this process and print its result.

    python3 bench/workload.py --workload corridor_run --seed 0 --seconds 10 --trace 0 --inputs DIR

Reads the inputs bench/inputs.py wrote to DIR and runs whole rounds over
them until the measured time reaches --seconds. A round is one pass over the
sequence simulated from --seed and one over the sequence simulated at
ACCURACY_SEED. A pass sets up (config parse, read_sequence, Pipeline
construction), then drives the program through its public entry points
while every Pipeline.process call is timed from outside, then checks the
outputs. Between frames a reference kernel samples the machine's speed
(bench/speed.py), and the timings are reported at nominal speed. The last
line of standard output is the JSON result. With --trace 1 passes over the
--seed sequence alternate between untraced and traced, nothing is
rescaled, and the result holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from workloads import (BENCH, MODE, SEQUENCES, SWEEP_ALPHAS, SWEEP_REPEATS, SWEEP_SEGMENT,
                       THREAD_ENV, WORKLOADS, config_path, declared, import_drslam)

import numpy as np  # noqa: E402  (after workloads pins the BLAS threads)

import checks  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

import_drslam()
from drslam import evaluation, pipeline, simulator  # noqa: E402
from drslam.config import parse_config  # noqa: E402

MIN_SETUPS = 3
CHECKS = {"corridor_run": checks.corridor, "loop_run": checks.loop}


class FrameTimer:
    """Wraps Pipeline.process: one (start, end) and one pass/fail per frame.

    With a Speed, the reference kernel runs between frames when it is due.
    """

    def __init__(self, speed):
        self.frames: list = []   # (start, end) per frame
        self.failed = 0
        self.pipelines: list = []   # in the order of their first frame
        self.speed = speed

    def install(self) -> None:
        original = pipeline.Pipeline.process
        timer = self

        def process(pipe, record):
            if timer.speed is not None:
                timer.speed.due()
            if not pipe.frames:
                timer.pipelines.append(pipe)
            start = perf_counter()
            try:
                frame = original(pipe, record)
            except BaseException:
                timer.frames.append((start, perf_counter()))
                timer.failed += 1
                raise
            timer.frames.append((start, perf_counter()))
            timer.failed += not frame.tracked_ok
            return frame

        pipeline.Pipeline.process = process


def pose_arrays(poses):
    return np.array([p.q for p in poses]), np.array([p.t for p in poses])


def run_pass(workload, seq_dir, ref, timer):
    """One whole pass.

    Returns (start, end of set-up, end, sweep cells, NaN cells, APE m, check failures).
    """
    spec = WORKLOADS[workload]
    t0 = perf_counter()
    config = parse_config(config_path(spec["scenario"]))
    params = config.pipeline_params()
    seq = simulator.read_sequence(seq_dir)
    timer.pipelines.clear()
    if spec["kind"] == "sweep":
        t1 = perf_counter()
        rows = evaluation.alpha_sweep(seq, SWEEP_ALPHAS, repeats=SWEEP_REPEATS, params=params,
                                      frame_range=SWEEP_SEGMENT)
        t2 = perf_counter()
        return (t0, t1, t2) + sweep_outputs(rows, ref, timer.pipelines)
    pipe = pipeline.Pipeline(params, seq.camera, seq.world, MODE)
    t1 = perf_counter()
    for record in seq.records:
        try:
            pipe.process(record)
        except Exception:   # the FrameTimer counts it as a failed frame
            traceback.print_exc()
    result = pipe.result()
    ape = evaluation.ape_rmse(evaluation.Trajectory.from_rows(result.frame_trajectory()),
                              evaluation.gt_trajectory(seq))
    t2 = perf_counter()

    q, t = pose_arrays([f.pose for f in result.frames])
    out = {"q": q, "t": t, "ape": ape, "tracked": np.array([f.tracked_ok for f in result.frames]),
           "gba": None}
    if result.gba_events:
        event = result.gba_events[0]
        out["gba"] = (np.array([s for s, _ in event.post_keyframes]),
                      np.array([p.t for _, p in event.pre_keyframes]),
                      *pose_arrays([p for _, p in event.post_keyframes]))
    return t0, t1, t2, 0, 0, ape, CHECKS[workload](out, ref)


def sweep_outputs(rows, ref, pipelines):
    """Cells, NaN cells, median cell RMSE and check failures of one sweep."""
    n_alpha = len(SWEEP_ALPHAS)
    n_nan = sum(math.isnan(r.rmse) for r in rows)
    if len(rows) != n_alpha * SWEEP_REPEATS or len(pipelines) != len(rows):
        return (len(rows), n_nan, math.nan,
                [f"weight_sweep: {len(rows)} rows and {len(pipelines)} pipeline runs, "
                 f"expected {n_alpha * SWEEP_REPEATS} of each"])
    rmse = {(r.log_alpha, r.repeat): r.rmse for r in rows}
    cells = []
    for i, pipe in enumerate(pipelines):   # alpha_sweep runs repeat-major, alphas in order
        log_alpha, repeat = SWEEP_ALPHAS[i % n_alpha], i // n_alpha
        q, t = pose_arrays([f.pose for f in pipe.frames])
        cells.append((log_alpha, repeat, rmse[(log_alpha, repeat)], q, t))
    return len(cells), n_nan, float(np.median([c[2] for c in cells])), checks.sweep(cells, ref)


def machine() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV}, "machine": platform.machine()}


def layer_expectations(workload: str, layers: dict) -> list:
    """Structural facts of each workload that the traced run must show."""
    out = []
    for key in ("simulator.read_sequence.calls", "fileio.read_csv.rows", "fileio.read_tum.calls",
                "pipeline.process.calls", "pipeline.associate_features.calls",
                "optimizer.solve_motion_only.calls", "optimizer.solve_local_ba.calls",
                "optimizer.solve.calls", "optimizer.schur_solve.calls",
                "evaluation.ape_rmse.calls"):
        if not layers[key] > 0:
            out.append(f"traced {workload}: {key} is {layers[key]}, expected > 0")
    gba = layers["optimizer.solve_global_ba.calls"]
    if (gba >= 1) != (workload == "loop_run"):
        out.append(f"traced {workload}: optimizer.solve_global_ba.calls is {gba}")
    sim = layers["simulator.simulate_sequence.calls"]
    if (sim >= 1) != (workload == "weight_sweep"):
        out.append(f"traced {workload}: simulator.simulate_sequence.calls is {sim}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    refs = {}
    for name in SEQUENCES:
        with np.load(os.path.join(args.inputs, f"{name}.npz")) as f:
            refs[name] = dict(f)
    # An untraced and a traced pass over the --seed sequence per round.
    order = ["seq", "seq"] if args.trace else list(SEQUENCES)
    speed = None if args.trace else Speed()
    timer = FrameTimer(speed)
    timer.install()
    tracer = Tracer()

    passes = []   # per pass: a dict of what was measured
    attempted = failed = 0
    failures = []
    while True:   # whole rounds
        for i, name in enumerate(order):
            traced = bool(args.trace) and i == 1
            if speed is not None:
                speed.sample()
            first_frame, failed_before = len(timer.frames), timer.failed
            with tracer.installed() if traced else nullcontext():
                t0, t1, t2, cells, nan_cells, ape, fails = run_pass(
                    args.workload, os.path.join(args.inputs, name), refs[name], timer)
            passes.append({"sequence": name, "traced": traced, "t": (t0, t1, t2), "ape": ape,
                           "frames": timer.frames[first_frame:]})
            attempted += len(timer.frames) - first_frame + cells
            failed += timer.failed - failed_before + nan_cells
            failures += fails
        # At nominal speed, so that a fast or slow spell does not change the number of rounds.
        measure = speed.nominal if speed is not None else (lambda a, b: b - a)
        if sum(measure(*p["t"][1:]) for p in passes) >= args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    setups = [p["t"][:2] for p in untraced]
    while speed is not None and len(setups) < MIN_SETUPS:   # set-up alone, for a median
        speed.sample()
        start = perf_counter()
        config = parse_config(config_path(spec["scenario"]))
        params = config.pipeline_params()
        seq = simulator.read_sequence(os.path.join(args.inputs, "seq"))
        if spec["kind"] == "run":
            pipeline.Pipeline(params, seq.camera, seq.world, MODE)
        setups.append((start, perf_counter()))
        del seq
    if speed is not None:
        speed.sample()

    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = tracer.layer_metrics(len(traced_passes))
        failures += layer_expectations(args.workload, metrics)
        metrics["evaluation.ape_rmse.m"] = statistics.median(p["ape"] for p in passes)
        metrics["bench.untraced.frames_per_s"] = raw_fps(untraced)
        metrics["bench.traced.frames_per_s"] = raw_fps(traced_passes)
        metrics["bench.trace.slowdown"] = raw_fps(untraced) / raw_fps(traced_passes)
        os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
        tracer.write(os.path.join(BENCH, "results", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {**timings(untraced, setups, speed.nominal),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "ape_rmse_m": statistics.median(p["ape"] for p in passes
                                                   if p["sequence"] == "acc")}
        raw = timings(untraced, setups, speed.busy)
        print("raw: " + json.dumps({**raw, **speed.summary()}))
    units = {m["name"]: m["unit"] for m in declared()["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           f"measured and declared in BENCHMARK.json")

    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print("machine: " + json.dumps(machine()))
    print("passes: " + json.dumps([{"sequence": p["sequence"], "traced": p["traced"],
                                    "setup_s": p["t"][1] - p["t"][0],
                                    "measured_s": p["t"][2] - p["t"][1],
                                    "nominal_s": speed.nominal(*p["t"][1:]) if speed else None,
                                    "frames": len(p["frames"]), "ape_m": p["ape"]}
                                   for p in passes]))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def raw_fps(passes) -> float:
    return (sum(len(p["frames"]) for p in passes)
            / sum(p["t"][2] - p["t"][1] for p in passes))


def timings(passes, setups, duration) -> dict:
    """Timing metrics, each interval [a, b] taken as duration(a, b)."""
    latencies_ms = np.array([duration(a, b) for p in passes for a, b in p["frames"]]) * 1e3
    return {"frames_per_s": (sum(len(p["frames"]) for p in passes)
                             / sum(duration(*p["t"][1:]) for p in passes)),
            "frame_ms_p50": float(np.percentile(latencies_ms, 50)),
            "frame_ms_p98": float(np.percentile(latencies_ms, 98)),
            "setup_s": statistics.median(duration(a, b) for a, b in setups)}


if __name__ == "__main__":
    raise SystemExit(main())
