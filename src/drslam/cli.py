"""Command-line entry point: simulate, run, sweep, repeat, eval.

Every command writes into an output directory that also receives the
resolved configuration echo; re-running from that echo with the same seed
reproduces the outputs byte-identically. Exit codes: 0 success, 1 failed
run verdict, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import multiprocessing
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

from . import evaluation
from .config import RunConfig, parse_config
from .errors import ConfigError, DrSlamError, NonMonotoneTimestamps
from .fileio import fmt, read_tum, write_csv, write_tum
from .pipeline import run_pipeline, save_map
from .simulator import read_sequence, simulate_sequence, write_sequence

EXIT_OK = 0
EXIT_FAILED_VERDICT = 1
EXIT_USAGE = 2

OUTPUT_ROOT_ENV = "DRSLAM_OUT"
# Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
# Several sweep workers each running a multithreaded BLAS on the same cores
# slow one another down; each worker gets one thread instead.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def resolve_config_path(name: str | None):
    if name is None:
        return None
    if os.path.exists(name):
        return name
    bundled = resources.files("drslam").joinpath(f"configs/{name}.cfg")
    if bundled.is_file():
        return str(bundled)
    raise ConfigError(f"config {name!r} is neither a file nor a bundled config")


def _load_config(args) -> RunConfig:
    config = parse_config(resolve_config_path(args.config), overrides=args.set or ())
    if getattr(args, "mode", None):
        config.set("run.mode", args.mode)
    if getattr(args, "seed", None) is not None:
        config.set("run.seed", str(args.seed))
    return config


def _out_dir(args, default_name: str) -> str:
    out = args.out
    if out is None:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root is None:
            raise ConfigError("no --out given and DRSLAM_OUT is not set")
        out = os.path.join(root, default_name)
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(config: RunConfig, out: str) -> None:
    with open(os.path.join(out, "config.cfg"), "w") as f:
        f.write(config.echo())


def cmd_simulate(args) -> int:
    config = _load_config(args)
    world = config.world_config()
    out = _out_dir(args, f"seq_{config.seed}")
    sequence = simulate_sequence(world)
    write_sequence(sequence, out)
    _echo_config(config, out)
    print(f"simulated {len(sequence.records)} frames, "
          f"{len(sequence.world)} landmarks -> {out}")
    return EXIT_OK


def _write_run_outputs(result, sequence, out: str) -> None:
    write_tum(os.path.join(out, "est_frames.tum"), result.frame_trajectory())
    write_tum(os.path.join(out, "est_keyframes.tum"), result.keyframe_trajectory())
    write_csv(os.path.join(out, "run_log.csv"),
              ["frame_id", "timestamp", "n_det", "n_trk", "n_cand", "q", "alpha",
               "iterations", "tracked_ok"],
              [(f.id, float(f.timestamp), f.stats.n_det, f.stats.n_trk, f.n_cand,
                float(f.quality), float(f.alpha), f.solver_iterations,
                int(f.tracked_ok)) for f in result.frames])
    save_map(result.slam_map, os.path.join(out, "map.gwmap"))


def _run_verdict(result, sequence):
    ref = evaluation.gt_trajectory(sequence)
    if len(ref) < evaluation.MIN_PAIRS:
        return None
    est = evaluation.Trajectory.from_rows(result.frame_trajectory())
    return evaluation.verdict(est, ref, [f.tracked_ok for f in result.frames])


def cmd_run(args) -> int:
    config = _load_config(args)
    params = config.pipeline_params()
    sequence = read_sequence(args.seq)
    out = _out_dir(args, f"run_{config.mode}_{config.seed}")
    result = run_pipeline(sequence, params, config.mode)
    _write_run_outputs(result, sequence, out)
    _echo_config(config, out)
    rows = [("mode", config.mode),
            ("frames", str(len(result.frames))),
            ("keyframes", str(len(result.slam_map.keyframes))),
            ("tracking_ratio", fmt(result.tracking_ratio())),
            ("track_lost_frame",
             "" if result.track_lost_frame is None else str(result.track_lost_frame)),
            ("loop_closures", str(len(result.gba_events))),
            *((name, str(count)) for name, count in result.counts.items())]
    v = _run_verdict(result, sequence)
    if v is not None:
        rows += [("ape_rmse_m", fmt(v.rmse)), ("completed", str(v.completed).lower())]
    write_csv(os.path.join(out, "metrics.csv"), ["metric", "value"], rows)
    print(f"run {config.mode}: {len(result.frames)} frames, "
          f"{len(result.slam_map.keyframes)} keyframes -> {out}")
    if v is not None and not v.completed:
        print(f"run verdict failed: rmse={v.rmse:.3f} m, "
              f"tracking ratio={v.tracking_ratio:.2f}", file=sys.stderr)
        return EXIT_FAILED_VERDICT
    return EXIT_OK


@contextlib.contextmanager
def _sweep_pool(jobs: int):
    """Process pool whose workers run with one BLAS thread each.

    Workers are spawned, so each imports numpy afresh; the thread variables
    are set in this process's environment while the pool starts and runs its
    workers, and restored when it shuts down.
    """
    saved = {key: os.environ.get(key) for key in BLAS_THREAD_ENV}
    os.environ.update({key: "1" for key in BLAS_THREAD_ENV})
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _sweep_arguments(args):
    """--alphas as floats and --segment as a (start, stop) pair or None."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
    except ValueError:
        raise ConfigError(f"--alphas must be log10 weights, got {args.alphas!r}") from None
    for a in alphas:
        try:
            finite = 0.0 < 10.0 ** a < math.inf     # the weight the sweep runs at
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"--alphas must give finite positive weights 10**a, got a = {a}")
    if not args.segment:
        return alphas, None
    start, _, stop = args.segment.partition(":")
    try:
        return alphas, (int(start), int(stop))
    except ValueError:
        raise ConfigError(f"--segment must be start:stop, got {args.segment!r}") from None


def cmd_sweep(args) -> int:
    alphas, frame_range = _sweep_arguments(args)
    config = _load_config(args)
    params = config.pipeline_params()
    sequence = read_sequence(args.seq)
    n_frames = len(sequence.records)
    if frame_range is not None:
        start, stop = frame_range
        if not 0 <= start < stop <= n_frames:
            raise ConfigError(f"--segment {args.segment} is not a frame range within 0:{n_frames}")
        if stop - start < evaluation.MIN_PAIRS:
            # every cell's APE would have too few pairs
            raise ConfigError(f"--segment {args.segment} has {stop - start} frames; APE needs "
                              f"at least {evaluation.MIN_PAIRS}")
    out = _out_dir(args, f"sweep_{config.seed}")
    with _sweep_pool(args.jobs) as pool:
        rows = evaluation.alpha_sweep(sequence, alphas, args.repeats, params, frame_range,
                                      map=pool.map)
    write_csv(os.path.join(out, "sweep.csv"),
              ["log_alpha", "repeat", "rmse", "median"],
              [(fmt(r.log_alpha), r.repeat, float(r.rmse), float(r.median)) for r in rows])
    _echo_config(config, out)
    nan_cells = Counter(r.error or "no error" for r in rows if math.isnan(r.rmse))
    by_error = "".join(f", {n} {error}" for error, n in sorted(nan_cells.items()))
    print(f"sweep over {len(alphas)} weights x {args.repeats} repeats, "
          f"{sum(nan_cells.values())} NaN cells{by_error} -> {out}")
    return EXIT_OK


def cmd_repeat(args) -> int:
    if args.loops < 2:
        raise ConfigError(f"--loops must be at least 2, got {args.loops}")
    config = _load_config(args)
    params = config.pipeline_params()
    sequence = read_sequence(args.seq)
    out = _out_dir(args, f"repeat_{config.mode}_{config.seed}")
    reports, result = evaluation.repeat_run(sequence, args.loops, params, config.mode)
    write_csv(os.path.join(out, "repeat.csv"), ["loop", "frame_rmse", "r_f_kf"],
              [(r.loop, float(r.frame_rmse), float(r.ratio)) for r in reports])
    _write_run_outputs(result, sequence, out)
    _echo_config(config, out)
    for r in reports:
        print(f"loop {r.loop}: frame RMSE {r.frame_rmse:.4f} m, R(F/KF) {r.ratio:.3f}")
    return EXIT_OK


def _read_trajectory(flag: str, path) -> evaluation.Trajectory:
    try:
        return evaluation.Trajectory.from_rows(read_tum(path))
    except NonMonotoneTimestamps as e:
        raise NonMonotoneTimestamps(f"{flag} {path}: {e}") from None


def cmd_eval(args) -> int:
    est = _read_trajectory("--est", args.est)
    ref = _read_trajectory("--ref", args.ref)
    out = _out_dir(args, "eval")
    rmse = evaluation.ape_rmse(est, ref)
    _, errors = evaluation.per_frame_errors(est, ref)
    write_csv(os.path.join(out, "errors.csv"), ["frame_id", "err_m"], enumerate(errors.tolist()))
    rows = [("ape_rmse_m", fmt(rmse)),
            ("pairs", str(len(errors))),
            ("max_err_m", fmt(errors.max()))]
    write_csv(os.path.join(out, "metrics.csv"), ["metric", "value"], rows)
    print(f"APE RMSE {rmse:.6f} m over {len(errors)} pairs -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drslam",
        description="Adaptive dead-reckoning weighting for visual SLAM: "
                    "simulation, pipeline runs, sweeps, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="bundled config name or path")
            p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                           help="override a configuration entry")
            p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help=f"output directory (default under ${OUTPUT_ROOT_ENV})")

    p = sub.add_parser("simulate", help="generate a synthetic sequence directory")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run the pipeline on a sequence")
    common(p)
    p.add_argument("--seq", required=True, help="sequence directory")
    p.add_argument("--mode", help="vision-only | da-only | fixed-dr | adaptive | dr-only")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="fixed-weight sweep over log10 alpha values")
    common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--alphas", default="-2,-1,0,1,2,3", help="comma-separated log10 weights")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--segment", help="frame range start:stop to evaluate")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("repeat", help="repeat-run protocol over continuous loops")
    common(p)
    p.add_argument("--seq", required=True)
    p.add_argument("--loops", type=int, default=3)
    p.add_argument("--mode", help="pipeline mode for the repeated run")
    p.set_defaults(func=cmd_repeat)

    p = sub.add_parser("eval", help="APE between two TUM trajectories")
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DrSlamError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
