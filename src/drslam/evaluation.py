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
    """Ordered (timestamp, Pose) samples with strictly increasing timestamps."""

    timestamps: np.ndarray
    poses: list

    def __len__(self):
        return len(self.poses)

    @staticmethod
    def from_rows(rows) -> "Trajectory":
        ts = np.array([t for t, _ in rows], dtype=float)
        back = np.flatnonzero(~(np.diff(ts) > 0))
        if len(back):
            k = int(back[0]) + 1
            raise NonMonotoneTimestamps("trajectory timestamps must be strictly increasing: "
                                        f"sample {k} at {ts[k]:.17g} follows {ts[k - 1]:.17g}")
        return Trajectory(ts, [p for _, p in rows])

    def positions(self) -> np.ndarray:
        return np.array([p.t for p in self.poses]) if self.poses else np.zeros((0, 3))


@dataclass(frozen=True)
class RunVerdict:
    rmse: float
    tracking_ratio: float
    completed: bool


def associate(est: Trajectory, ref: Trajectory):
    """Nearest-timestamp pairing within half the reference frame period."""
    if len(ref) < 2:
        tol = math.inf
    else:
        tol = 0.5 * float(np.median(np.diff(ref.timestamps)))
    pairs = []
    for i, t in enumerate(est.timestamps):
        k = int(np.searchsorted(ref.timestamps, t))
        best, best_dt = None, tol
        for c in (k - 1, k):
            if 0 <= c < len(ref):
                dt = abs(float(ref.timestamps[c] - t))
                if dt <= best_dt:
                    best, best_dt = c, dt
        if best is not None:
            pairs.append((i, best))
    return pairs


# Associated pairs the alignment needs; fewer make ape_rmse raise TooFewPairs.
MIN_PAIRS = 3


def align(est: Trajectory, ref: Trajectory) -> Pose:
    """Least-squares rigid transform T minimizing sum ||T(est) - ref||^2."""
    return _aligned_pairs(est, ref)[0]


def _aligned_pairs(est: Trajectory, ref: Trajectory):
    """align's transform and the associated pairs it is fitted on."""
    pairs = associate(est, ref)
    if len(pairs) < MIN_PAIRS:
        raise TooFewPairs(f"{len(pairs)} associated pairs; need at least {MIN_PAIRS}")
    a = np.array([est.poses[i].t for i, _ in pairs])
    b = np.array([ref.poses[j].t for _, j in pairs])
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = cb - rot @ ca
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = t
    return Pose.from_matrix(m), pairs


def _aligned_errors(est: Trajectory, ref: Trajectory):
    """The associated pairs and the position error (3,) of each after alignment."""
    transform, pairs = _aligned_pairs(est, ref)
    rot, t = transform.rotation_matrix, transform.t
    return pairs, [rot @ est.poses[i].t + t - ref.poses[j].t for i, j in pairs]


def ape_rmse(est: Trajectory, ref: Trajectory) -> float:
    """Root-mean-square position error over associated pairs after alignment."""
    _, errs = _aligned_errors(est, ref)
    return float(np.sqrt(np.mean(np.sum(np.square(errs), axis=1))))


def per_frame_errors(est: Trajectory, ref: Trajectory):
    """(timestamp, position error norm) of each associated pair after alignment."""
    pairs, errs = _aligned_errors(est, ref)
    return [(float(est.timestamps[i]), float(np.linalg.norm(e))) for (i, _), e in zip(pairs, errs)]


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
    return Trajectory.from_rows([(r.timestamp, r.gt_pose) for r in sequence.records
                                 if r.gt_pose is not None])


def slice_sequence(sequence: Sequence, start: int, stop: int) -> Sequence:
    """Frame range [start, stop) as a standalone sequence, ids re-anchored."""
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


def _repeat_sequence(sequence: Sequence, repeat: int, frame_range, reseed: bool):
    if reseed and repeat > 0:
        cfg = config_from_meta(sequence.meta)
        cfg.seed = cfg.seed + 1000 * repeat
        sequence = simulate_sequence(cfg, sequence.camera)
    if frame_range is not None:
        sequence = slice_sequence(sequence, frame_range[0], frame_range[1])
    return sequence


def sweep_repeat(sequence: Sequence, alphas, repeat: int,
                 params: PipelineParams, frame_range=None,
                 reseed: bool = True) -> list:
    """One repeat of the fixed-weight sweep; medians are filled by the caller."""
    seq_r = _repeat_sequence(sequence, repeat, frame_range, reseed)
    ref = gt_trajectory(seq_r)
    rows = []
    for log_alpha in alphas:
        run_params = replace(params, fixed_alpha=10.0 ** log_alpha)
        try:
            result = run_pipeline(seq_r, run_params, "fixed-dr")
            rmse = ape_rmse(Trajectory.from_rows(result.frame_trajectory()), ref)
        except DrSlamError:
            rmse = float("nan")
        rows.append(SweepRow(log_alpha=float(log_alpha), repeat=repeat, rmse=rmse))
    return rows


def fill_medians(rows) -> list:
    rows.sort(key=lambda r: (r.log_alpha, r.repeat))
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row.log_alpha, []).append(row.rmse)
    for row in rows:
        vals = [v for v in by_alpha[row.log_alpha] if not math.isnan(v)]
        row.median = float(np.median(vals)) if vals else float("nan")
    return rows


def alpha_sweep(sequence: Sequence, alphas, repeats: int,
                params: PipelineParams, frame_range=None,
                reseed: bool = True, map=map) -> list:
    """Fixed-weight sweep: one pipeline run per (alpha, repeat).

    Repeats re-simulate the sequence from its config echo with the seed
    advanced, so each repeat sees fresh noise; rows are ordered by alpha
    then repeat and carry the per-alpha median RMSE. ``map`` runs the
    repeats, in order; a process pool's map runs them in parallel.
    """
    run_repeat = partial(sweep_repeat, sequence, alphas, params=params,
                         frame_range=frame_range, reseed=reseed)
    return fill_medians([row for part in map(run_repeat, range(repeats)) for row in part])


def baseline_rmse(sequence: Sequence, mode: str, repeats: int,
                  params: PipelineParams, frame_range=None,
                  reseed: bool = True) -> list:
    """Per-repeat RMSE of a plain pipeline mode, same reseeding as the sweep."""
    out = []
    for repeat in range(repeats):
        seq_r = _repeat_sequence(sequence, repeat, frame_range, reseed)
        ref = gt_trajectory(seq_r)
        result = run_pipeline(seq_r, params, mode)
        out.append(ape_rmse(Trajectory.from_rows(result.frame_trajectory()), ref))
    return out


def concatenate_loops(sequence: Sequence, loops: int) -> Sequence:
    """Replay the sequence ``loops`` times without resetting.

    Ground truth and detections repeat; the seam delta between consecutive
    laps is the exact ground-truth increment (closed trajectories make it
    small). Timestamps continue at the recorded frame period.
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
