"""Residuals, analytic Jacobians and the Huber kernel.

Two factor types: pixel reprojection of a landmark into a camera, evaluated
for every row of a problem at once, each row with its own pose or all rows
with one, and a relative-pose prior from dead reckoning between two poses,
evaluated for every edge of a problem at once on geometry's batched SE(3)
kernels. A DR edge's residual is log(left to), with its fixed part
left = delta^-1 from^-1 folded by dr_fold: once per solve where the from
pose is fixed, once per evaluation where it is free. The residual
evaluation returns the log's angle terms with the residuals, and the
Jacobians reuse them. Pose variables are camera-in-world; Jacobians are
taken with respect to a right-multiplicative tangent perturbation, twist
ordering (rho, phi). These are the functions the solver linearizes with; it
whitens their outputs itself, reprojection rows by one pixel std and DR
edges by the square root of a diagonal precision.
"""

from __future__ import annotations

import numpy as np

from .geometry import (CameraIntrinsics, angle_coefficients, hat, project_points, se3_compose,
                       se3_inverse, se3_log)

# 95% chi-square quantile with 2 DoF, as a multiple of the pixel std.
HUBER_PIXEL_SCALE = 2.447


def reprojection_residuals(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                           points: np.ndarray, observed: np.ndarray):
    """Camera-frame points (N, 3) and pixel residuals observed - pi(y) (N, 2)
    of N landmarks, seen by one camera-in-world rotation (3, 3) and
    translation (3,), or by one each, (N, 3, 3) and (N, 3).

    The residual is a total function: the projection kernel projects points
    at or behind the near plane at the clamped depth Z_MIN (a huge, honest
    residual), so steps that flip geometry raise the cost. Their Jacobians
    are not defined; the caller treats rows with y[:, 2] <= Z_MIN as inactive.
    """
    y, u = project_points(k, rotation, translation, points)
    return y, observed - u


def reprojection_jacobians(k: CameraIntrinsics, y: np.ndarray, rotation: np.ndarray | None = None):
    """Residual Jacobians w.r.t. the pose (N, 2, 6) and the landmark (N, 2, 3)
    at camera-frame points y in front of the near plane. Without the camera
    rotation (points held fixed) the landmark Jacobian is not formed: None."""
    n = len(y)
    z = y[:, 2]
    jpi = np.zeros((n, 2, 3))
    jpi[:, 0, 0] = k.fx / z
    jpi[:, 0, 2] = -k.fx * y[:, 0] / z ** 2
    jpi[:, 1, 1] = k.fy / z
    jpi[:, 1, 2] = -k.fy * y[:, 1] / z ** 2
    # d(camera point)/d(xi) = [-I | hat(y)] under P <- P exp(xi).
    j_pose = np.concatenate([jpi, -(jpi @ hat(y))], axis=2)
    if rotation is None:
        return j_pose, None
    return j_pose, -(jpi @ np.swapaxes(rotation, -1, -2))


def _coupling_closed_form(t: np.ndarray):
    t2 = t * t
    sin_t = np.sin(t)
    c2 = (1.0 - 0.5 * t2 - np.cos(t)) / (t2 * t2)
    return ((t - sin_t) / (t2 * t), c2,
            0.5 * (c2 - 3.0 * (t - sin_t - t * t2 / 6.0) / (t2 * t2 * t)))


def _coupling_series(theta: np.ndarray):
    s2 = theta * theta
    c2 = 1.0 / 24.0 - s2 / 720.0
    return 1.0 / 6.0 - s2 / 120.0, c2, 0.5 * (c2 - 3.0 * (1.0 / 120.0 - s2 / 2520.0))


def _translation_rotation_block(rho: np.ndarray, p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian (N, 3, 3),
    with p = hat(phi) and theta = |phi|."""
    c1, c2, c3 = (c[:, None, None] for c in
                  angle_coefficients(theta, _coupling_closed_form, _coupling_series))
    rh = hat(rho)
    pr, rp = p @ rh, rh @ p
    prp = pr @ p
    return (0.5 * rh + c1 * (pr + rp + p @ rp)
            - c2 * (p @ pr + rp @ p - 3.0 * prp)
            - c3 * (prp @ p + p @ prp))


def _left_jacobian_inverse(xi: np.ndarray, theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian of SE(3) (N, 6, 6) at twists (N, 6) = (rho, phi),
    given the rotation angles theta = |phi| and the V^-1 coefficients c
    (N,) that the log computed for them."""
    rho, phi = xi[:, :3], xi[:, 3:]
    k = hat(phi)
    jinv = np.eye(3) - 0.5 * k + c[:, None, None] * (k @ k)
    out = np.zeros((len(xi), 6, 6))
    out[:, :3, :3] = jinv
    out[:, 3:, 3:] = jinv
    out[:, :3, 3:] = -jinv @ _translation_rotation_block(rho, k, theta) @ jinv
    return out


def dr_fold(from_q: np.ndarray, from_t: np.ndarray, delta_inv_q: np.ndarray,
            delta_inv_t: np.ndarray, delta_inv_rotation: np.ndarray | None = None):
    """The fixed part left = delta^-1 from^-1 of E relative-pose edges, as
    (q, t), from the from poses and the inverted measured increments;
    delta_inv_rotation, when the caller holds it, is their rotation matrices
    (E, 3, 3) and is not formed again."""
    return se3_compose(delta_inv_q, delta_inv_t, *se3_inverse(from_q, from_t), delta_inv_rotation)


def dr_residuals(left_q: np.ndarray, left_t: np.ndarray, to_q: np.ndarray, to_t: np.ndarray,
                 left_rotation: np.ndarray | None = None):
    """Residuals log(left to) = log(delta^-1 from^-1 to) (E, 6) of E
    relative-pose edges, their near-pi mask (E,) and the log's angle terms,
    the clamped angle and the V^-1 coefficient (E,) each, which dr_jacobians
    takes.

    left is dr_fold of the edges, as unit quaternions (E, 4), (w, x, y, z),
    and translations (E, 3); left_rotation, when the caller holds it, is its
    rotation matrices (E, 3, 3). Zero exactly when the estimated relative
    motion equals the increment. The residual is a total function: where
    the error rotation is within 1e-6 of pi the rotation is clamped just
    below pi, so the cost stays large and honest; the log's Jacobian is not
    defined there, and the caller treats those rows as inactive.
    """
    return se3_log(*se3_compose(left_q, left_t, to_q, to_t, left_rotation))


def dr_jacobians(r: np.ndarray, theta: np.ndarray, c: np.ndarray, delta_inv_adjoint: np.ndarray,
                 from_rows=slice(None), to_rows=slice(None)):
    """Jacobians of the residuals r (E, 6) w.r.t. the from pose, for the edges
    from_rows, and w.r.t. the to pose, for the edges to_rows; (n, 6, 6) each.

    theta and c (E,) are the angle terms dr_residuals returned with r. Rows
    are selected by index array or boolean mask. delta_inv_adjoint (E, 6, 6)
    holds Ad(delta^-1) per edge. A caller that holds one side of an edge
    fixed leaves that edge out of the side's rows, so that Jacobian is never
    formed. Rows must not be flagged near pi.
    """
    r_from, r_to = r[from_rows], r[to_rows]
    jl_inv = _left_jacobian_inverse(np.concatenate([r_from, -r_to]),
                                    np.concatenate([theta[from_rows], theta[to_rows]]),
                                    np.concatenate([c[from_rows], c[to_rows]]))
    n = len(r_from)
    # d/d(from) = -Jl^-1(r) Ad(delta^-1); d/d(to) = Jr^-1(r) = Jl^-1(-r).
    return -jl_inv[:n] @ delta_inv_adjoint[from_rows], jl_inv[n:]


def dr_to_jacobians(r: np.ndarray, theta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The to side of dr_jacobians for every edge (E, 6, 6), for edges whose
    from pose is fixed: no Ad(delta^-1) is needed. Rows must not be flagged
    near pi."""
    return _left_jacobian_inverse(-r, theta, c)


def huber(norms: np.ndarray, threshold: np.ndarray | float):
    """Huber cost and IRLS weight per whitened residual norm: quadratic with
    weight 1 up to the threshold, linear with weight threshold/norm beyond."""
    inside = norms <= threshold
    cost = np.where(inside, 0.5 * norms ** 2, threshold * (norms - 0.5 * threshold))
    weight = np.where(inside, 1.0, threshold / np.maximum(norms, 1e-300))
    return cost, weight
