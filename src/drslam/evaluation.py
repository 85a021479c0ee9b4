"""Trajectory evaluation and experiment harnesses.

Closed-form rigid alignment (no scale), absolute position error RMSE,
completeness verdicts, the frame/keyframe error ratio, and the alpha-sweep
and repeat-run protocols over simulated sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DrSlamError, NonMonotoneTimestamps, TooFewPairs
from .geometry import Pose, compose, inverse
from .pipeline import PipelineParams, run_pipeline
from .simulator import Sequence, config_from_meta, simulate_sequence

RMSE_LIMIT_M = 10.0
TRACKING_RATIO_LIMIT = 0.5


@dataclass(frozen=True)
class Trajectory:
    """Timestamps (N,), strictly increasing, and camera positions (N, 3)."""

    timestamps: np.ndarray
    positions: np.ndarray

    def __len__(self):
        return len(self.timestamps)

    @staticmethod
    def from_rows(rows) -> "Trajectory":
        """The trajectory of (timestamp, Pose) rows."""
        ts = np.array([t for t, _ in rows], dtype=float)
        back = np.flatnonzero(~(np.diff(ts) > 0))
        if len(back):
            k = int(back[0]) + 1
            raise NonMonotoneTimestamps("trajectory timestamps must be strictly increasing: "
                                        f"sample {k} at {ts[k]:.17g} follows {ts[k - 1]:.17g}")
        return Trajectory(ts, np.array([p.t for _, p in rows], dtype=float).reshape(-1, 3))


def median(values) -> float:
    """np.median of a nonempty 1-D float array, taken as np.median takes it
    (a partition, then the mean of the middle value or two, NaN when a value
    is NaN) but without its masked-array check, which imports numpy.ma."""
    values = np.asarray(values, dtype=float)
    half = len(values) // 2
    middle = [half - 1, half] if len(values) % 2 == 0 else [half]
    part = np.partition(values, [*middle, -1])
    return float(part[-1] if np.isnan(part[-1]) else part[middle].mean())


@dataclass(frozen=True)
class RunVerdict:
    rmse: float
    tracking_ratio: float
    completed: bool


def associate(est: Trajectory, ref: Trajectory):
    """Nearest-timestamp pairs as index arrays (est_index, ref_index).

    Each estimate takes the nearer of its two reference neighbours when it
    lies within half the median reference period (any distance when the
    reference has one sample); a tie goes to the later neighbour.
    """
    t, r = est.timestamps, ref.timestamps
    tol = 0.5 * median(np.diff(r)) if len(r) > 1 else math.inf
    k = np.searchsorted(r, t)     # r[k - 1] < t <= r[k]
    padded = np.concatenate([[-math.inf], r, [math.inf]])
    before, after = t - padded[k], padded[k + 1] - t
    later = after <= before
    near = np.where(later, after, before)
    keep = np.flatnonzero(np.isfinite(near) & (near <= tol))
    return keep, (k - 1 + later)[keep]


# Associated pairs the alignment needs; fewer make ape_rmse raise TooFewPairs.
MIN_PAIRS = 3


def align(est: Trajectory, ref: Trajectory) -> Pose:
    """Least-squares rigid transform T minimizing sum ||T(est) - ref||^2."""
    return _aligned_pairs(est, ref)[0]


def _aligned_pairs(est: Trajectory, ref: Trajectory):
    """align's transform, the estimate index (M,) of each associated pair,
    and the estimate and reference positions (M, 3) it is fitted on."""
    i, j = associate(est, ref)
    if len(i) < MIN_PAIRS:
        raise TooFewPairs(f"{len(i)} associated pairs; need at least {MIN_PAIRS}")
    a, b = est.positions[i], ref.positions[j]
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = cb - rot @ ca
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = t
    return Pose.from_matrix(m), i, a, b


def _aligned_errors(est: Trajectory, ref: Trajectory):
    """The estimate index (M,) of each associated pair and its position
    error (M, 3) after alignment."""
    transform, i, a, b = _aligned_pairs(est, ref)
    # R @ a_k for each pair as one stacked product; a @ R.T rounds differently
    return i, (transform.rotation_matrix @ a[:, :, None])[:, :, 0] + transform.t - b


def ape_rmse(est: Trajectory, ref: Trajectory) -> float:
    """Root-mean-square position error over associated pairs after alignment."""
    _, errs = _aligned_errors(est, ref)
    return float(np.sqrt(np.mean(np.sum(np.square(errs), axis=1))))


def per_frame_errors(est: Trajectory, ref: Trajectory):
    """Timestamps (M,) and position error norms (M,) of the associated pairs
    after alignment."""
    i, errs = _aligned_errors(est, ref)
    return est.timestamps[i], np.linalg.norm(errs, axis=1)


def verdict(est: Trajectory, ref: Trajectory, tracked_flags) -> RunVerdict:
    rmse = ape_rmse(est, ref)
    ratio = (sum(1 for f in tracked_flags if f) / len(tracked_flags)) if tracked_flags else 0.0
    return RunVerdict(rmse=rmse, tracking_ratio=ratio,
                      completed=(rmse <= RMSE_LIMIT_M and ratio >= TRACKING_RATIO_LIMIT))


def frame_kf_ratio(frame_traj: Trajectory, kf_traj: Trajectory, ref: Trajectory) -> float:
    """Frame APE RMSE over keyframe APE RMSE; inf when the keyframe RMSE is below 1e-12."""
    kf_rmse = ape_rmse(kf_traj, ref)
    return ape_rmse(frame_traj, ref) / kf_rmse if kf_rmse >= 1e-12 else float("inf")


def gt_trajectory(sequence: Sequence) -> Trajectory:
    return Trajectory.from_rows([(r.timestamp, r.gt_pose) for r in sequence.records])


def _check_frame_range(start: int, stop: int, n_frames: int) -> None:
    """ValueError unless [start, stop) is a nonempty range of frames 0..n_frames-1."""
    if not 0 <= start < stop <= n_frames:
        raise ValueError(f"frame range {start}:{stop} is not within the sequence's "
                         f"{n_frames} frames")


def slice_sequence(sequence: Sequence, start: int, stop: int) -> Sequence:
    """Frame range [start, stop) as a standalone sequence, ids re-anchored,
    sharing the sequence's world table. Raises ValueError unless
    0 <= start < stop <= the record count."""
    _check_frame_range(start, stop, len(sequence.records))
    records = []
    for i, r in enumerate(sequence.records[start:stop]):
        records.append(replace(r, frame_id=i, dr_delta=None if i == 0 else r.dr_delta))
    return Sequence(records=records, world=sequence.world,
                    camera=sequence.camera, meta=dict(sequence.meta))


@dataclass
class SweepRow:
    log_alpha: float
    repeat: int
    rmse: float
    median: float = float("nan")
    error: str = ""             # the class name of the package error that made the cell NaN


def _repeat_sequence(sequence: Sequence, repeat: int, frame_range):
    """The sequence of a repeat, sliced to frame_range: repeat 0 is the
    sequence itself; later ones re-simulate it from its config echo with the
    seed advanced, up to the range's end. Raises ValueError, before any
    simulation, when the range is not within the sequence's records."""
    stop = None
    if frame_range is not None:
        _check_frame_range(*frame_range, len(sequence.records))
        stop = frame_range[1]
    if repeat > 0:
        cfg = config_from_meta(sequence.meta)
        cfg.seed = cfg.seed + 1000 * repeat
        sequence = simulate_sequence(cfg, sequence.camera, stop)
    if frame_range is not None:
        sequence = slice_sequence(sequence, *frame_range)
    return sequence


def _run_and_score(sequence: Sequence, params: PipelineParams, mode: str) -> float:
    """Frame APE RMSE of one pipeline run against the sequence's ground truth."""
    result = run_pipeline(sequence, params, mode)
    return ape_rmse(Trajectory.from_rows(result.frame_trajectory()), gt_trajectory(sequence))


def sweep_repeat(sequence: Sequence, alphas, repeat: int,
                 params: PipelineParams, frame_range=None) -> list:
    """One repeat of the fixed-weight sweep; a run that raises a package
    error is a NaN cell, which keeps the error's class name. Medians are
    filled by the caller."""
    seq_r = _repeat_sequence(sequence, repeat, frame_range)
    rows = []
    for log_alpha in alphas:
        run_params = replace(params, fixed_alpha=10.0 ** log_alpha)
        error = ""
        try:
            rmse = _run_and_score(seq_r, run_params, "fixed-dr")
        except DrSlamError as e:
            rmse, error = float("nan"), type(e).__name__
        rows.append(SweepRow(log_alpha=float(log_alpha), repeat=repeat, rmse=rmse, error=error))
    return rows


def fill_medians(rows) -> list:
    rows.sort(key=lambda r: (r.log_alpha, r.repeat))
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row.log_alpha, []).append(row.rmse)
    for row in rows:
        vals = [v for v in by_alpha[row.log_alpha] if not math.isnan(v)]
        row.median = median(vals) if vals else float("nan")
    return rows


def alpha_sweep(sequence: Sequence, alphas, repeats: int,
                params: PipelineParams, frame_range=None, map=map) -> list:
    """Fixed-weight sweep: one pipeline run per (alpha, repeat).

    Repeats re-simulate the sequence from its config echo with the seed
    advanced, so each repeat sees fresh noise, up to the end of frame_range,
    the frames every cell scores; rows are ordered by alpha then repeat and
    carry the per-alpha median RMSE. ``map`` runs the repeats, in order; a
    process pool's map runs them in parallel. Raises ValueError, as
    slice_sequence does, when frame_range is not within the sequence.
    """
    run_repeat = partial(sweep_repeat, sequence, alphas, params=params, frame_range=frame_range)
    return fill_medians([row for part in map(run_repeat, range(repeats)) for row in part])


def baseline_rmse(sequence: Sequence, mode: str, repeats: int,
                  params: PipelineParams, frame_range=None) -> list:
    """Per-repeat RMSE of a plain pipeline mode, on the sweep's repeat sequences."""
    return [_run_and_score(_repeat_sequence(sequence, repeat, frame_range), params, mode)
            for repeat in range(repeats)]


def concatenate_loops(sequence: Sequence, loops: int) -> Sequence:
    """Replay the sequence ``loops`` times without resetting.

    Ground truth and detections repeat; the seam delta between consecutive
    laps is the exact ground-truth increment (closed trajectories make it
    small). Timestamps continue at the recorded frame period. The laps
    share the sequence's world table.
    """
    if loops < 2:
        raise ValueError("repeat protocol needs at least two loops")
    base = sequence.records
    period = base[1].timestamp - base[0].timestamp if len(base) > 1 else 1.0
    records = []
    fid = 0
    t = 0.0
    for lap in range(loops):
        for i, r in enumerate(base):
            delta = r.dr_delta
            if i == 0:
                if lap == 0:
                    delta = None
                else:
                    delta = compose(inverse(base[-1].gt_pose), base[0].gt_pose)
            records.append(replace(r, frame_id=fid, timestamp=t, dr_delta=delta))
            fid += 1
            t += period
    return Sequence(records=records, world=sequence.world,
                    camera=sequence.camera, meta=dict(sequence.meta))


@dataclass
class LoopReport:
    loop: int
    frame_rmse: float
    ratio: float    # frame RMSE over final keyframe RMSE


def repeat_run(sequence: Sequence, loops: int, params: PipelineParams,
               mode: str = "adaptive"):
    """Table-style repeat protocol: per-loop frame RMSE and R(F/KF).

    The map is retained across loops; keyframe RMSE uses the final map.
    Returns (reports, RunResult).
    """
    concat = concatenate_loops(sequence, loops)
    result = run_pipeline(concat, params, mode)
    n = len(sequence.records)
    ref = gt_trajectory(concat)
    kf_est = Trajectory.from_rows(result.keyframe_trajectory())
    reports = []
    for lap in range(loops):
        frames = result.frames[lap * n:(lap + 1) * n]
        est = Trajectory.from_rows([(f.timestamp, f.pose) for f in frames])
        reports.append(LoopReport(loop=lap + 1, frame_rmse=ape_rmse(est, ref),
                                  ratio=frame_kf_ratio(est, kf_est, ref)))
    return reports, result
