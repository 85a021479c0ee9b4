"""Checks of the program's outputs, computed apart from the program.

Nothing here calls into ``drslam``. Rotations come from the quaternions by
their own formula, alignment is a separate Kabsch solve, and the DR-only
reference is integrated here from the odometry poses the input generator
saved. Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

APE_MATCH_TOL = 1e-9
UNIT_QUAT_TOL = 1e-9
# Global BA on two_lap moved its keyframes by 17-160 mm and changed their APE
# by a factor of 0.51-1.30 on seeds 0-19.
GBA_MIN_MOVE_M = 1e-3
GBA_MAX_APE_GROWTH = 1.5


def rotation(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion given as (w, x, y, z)."""
    w, x, y, z = (float(v) for v in q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix(q, t) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation(q)
    m[:3, 3] = t
    return m


def kabsch_rmse(est: np.ndarray, ref: np.ndarray) -> float:
    """Position RMSE after the least-squares rigid alignment of est onto ref."""
    ce, cr = est.mean(axis=0), ref.mean(axis=0)
    u, _, vt = np.linalg.svd((est - ce).T @ (ref - cr))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    err = (est - ce) @ rot.T + cr - ref
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def poses_valid(label: str, quats: np.ndarray, positions: np.ndarray) -> list:
    out = []
    if not (np.all(np.isfinite(quats)) and np.all(np.isfinite(positions))):
        out.append(f"{label}: a pose is not finite")
    elif np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0)) > UNIT_QUAT_TOL:
        out.append(f"{label}: a quaternion is not unit length")
    return out


def ape_matches(label: str, own: float, program_ape: float) -> list:
    if not abs(own - program_ape) <= APE_MATCH_TOL:
        return [f"{label}: evaluation.ape_rmse {program_ape!r} != own Kabsch APE {own!r}"]
    return []


def blackout_drift(est_q, est_t, gt_q, gt_t, before: int, after: int) -> float:
    """Translation error of the relative pose across a blackout, as in criterion 06."""
    def relative(q, t):
        return np.linalg.inv(matrix(q[before], t[before])) @ matrix(q[after], t[after])

    return float(np.linalg.norm(relative(est_q, est_t)[:3, 3] - relative(gt_q, gt_t)[:3, 3]))


def dr_only_rmse(odom_q, odom_t, gt_q, gt_t) -> float:
    """APE of odometry integrated from the first ground-truth pose of a segment.

    pose_k = gt_0 * odom_0^-1 * odom_k, which is what composing the recorded
    per-frame increments from the segment's first pose gives.
    """
    anchor = matrix(gt_q[0], gt_t[0]) @ np.linalg.inv(matrix(odom_q[0], odom_t[0]))
    est = np.array([(anchor @ matrix(q, t))[:3, 3] for q, t in zip(odom_q, odom_t)])
    return kabsch_rmse(est, gt_t)


def corridor(result: dict, ref: dict) -> list:
    """Every frame tracked, APE <= 0.15 m, blackout drift <= 3 sqrt(g) sigma_t."""
    own = kabsch_rmse(result["t"], ref["gt_t"])
    out = poses_valid("corridor_run frames", result["q"], result["t"])
    out += ape_matches("corridor_run", own, result["ape"])
    if not all(result["tracked"]):
        out.append(f"corridor_run: {int(np.sum(~result['tracked']))} frames not tracked")
    if not own <= 0.15:
        out.append(f"corridor_run: frame APE {own:.4f} m > 0.15 m")
    start, end = int(ref["blackout"][0]), int(ref["blackout"][1])
    bound = 3.0 * math.sqrt(end - start + 1) * float(ref["dr_sigma_t"])
    drift = blackout_drift(result["q"], result["t"], ref["gt_q"], ref["gt_t"], start - 1, end)
    if not drift <= bound:
        out.append(f"corridor_run: blackout drift {drift:.4f} m > {bound:.4f} m")
    return out


def loop(result: dict, ref: dict) -> list:
    """A loop closure fires, global BA moves the keyframes without making
    their APE more than 1.5 times worse, frame APE <= 0.15 m."""
    own = kabsch_rmse(result["t"], ref["gt_t"])
    out = poses_valid("loop_run frames", result["q"], result["t"])
    out += ape_matches("loop_run", own, result["ape"])
    if not own <= 0.15:
        out.append(f"loop_run: frame APE {own:.4f} m > 0.15 m")
    if result["gba"] is None:
        return out + ["loop_run: no loop closure fired"]
    stamps, pre_t, post_q, post_t = result["gba"]
    out += poses_valid("loop_run keyframes after global BA", post_q, post_t)
    nearest = np.abs(ref["stamps"][:, None] - stamps[None, :]).argmin(axis=0)
    gt_t = ref["gt_t"][nearest]
    moved = float(np.max(np.linalg.norm(post_t - pre_t, axis=1)))
    if not moved >= GBA_MIN_MOVE_M:
        out.append(f"loop_run: global BA moved no keyframe by {GBA_MIN_MOVE_M} m or more")
    pre, post = kabsch_rmse(pre_t, gt_t), kabsch_rmse(post_t, gt_t)
    if not post <= GBA_MAX_APE_GROWTH * pre:
        out.append(f"loop_run: keyframe APE {pre:.4f} m before global BA, {post:.4f} m after")
    return out


def sweep(cells: list, ref: dict) -> list:
    """No NaN cell, APE matches, and every log alpha = 3 cell is near DR-only.

    cells: (log_alpha, repeat, rmse, frame quats, frame positions) per run.
    """
    out = []
    for log_alpha, repeat, rmse, q, t in cells:
        label = f"weight_sweep cell log_alpha={log_alpha:g} repeat={repeat}"
        if math.isnan(rmse):
            out.append(f"{label}: RMSE is NaN")
            continue
        gt_t = ref[f"gt_t{repeat}"]
        out += poses_valid(label, q, t)
        out += ape_matches(label, kabsch_rmse(t, gt_t), rmse)
        if log_alpha == 3.0:
            dr = dr_only_rmse(ref[f"odom_q{repeat}"], ref[f"odom_t{repeat}"],
                              ref[f"gt_q{repeat}"], gt_t)
            if not abs(rmse - dr) <= 0.10 * dr:
                out.append(f"{label}: RMSE {rmse:.5f} m not within 10% of DR-only {dr:.5f} m")
    return out
