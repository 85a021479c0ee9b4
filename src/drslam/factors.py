"""Residuals, analytic Jacobians and the Huber kernel.

Two factor types: pixel reprojection of a landmark into a camera, evaluated
for every row of a problem at once, each row with its own pose or all rows
with one, and a relative-pose prior from dead reckoning between two poses,
evaluated for every edge of a problem at once. Pose variables are
camera-in-world; Jacobians are taken with respect to a right-multiplicative
tangent perturbation, twist ordering (rho, phi). These are the functions the
solver linearizes with; it whitens their outputs itself, reprojection rows
by one pixel std and DR edges by the square root of a diagonal precision.
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraIntrinsics, Z_MIN

# 95% chi-square quantile with 2 DoF, as a multiple of the pixel std.
HUBER_PIXEL_SCALE = 2.447


def reprojection_residuals(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                           points: np.ndarray, observed: np.ndarray):
    """Camera-frame points (N, 3) and pixel residuals observed - pi(y) (N, 2)
    of N landmarks, seen by one camera-in-world rotation (3, 3) and
    translation (3,), or by one each, (N, 3, 3) and (N, 3).

    The residual is a total function: points at or behind the near plane are
    projected at the clamped depth Z_MIN (a huge, honest residual), so steps
    that flip geometry raise the cost. Their Jacobians are not defined; the
    caller treats rows with y[:, 2] <= Z_MIN as inactive.
    """
    y = np.einsum("...i,...ij->...j", points - translation, rotation)
    z = np.maximum(y[:, 2], Z_MIN)
    u = np.stack([k.fx * y[:, 0] / z + k.cx, k.fy * y[:, 1] / z + k.cy], axis=1)
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
    haty = np.zeros((n, 3, 3))
    haty[:, 0, 1] = -y[:, 2]
    haty[:, 0, 2] = y[:, 1]
    haty[:, 1, 0] = y[:, 2]
    haty[:, 1, 2] = -y[:, 0]
    haty[:, 2, 0] = -y[:, 1]
    haty[:, 2, 1] = y[:, 0]
    # d(camera point)/d(xi) = [-I | hat(y)] under P <- P exp(xi).
    j_pose = np.concatenate([jpi, -np.einsum("nij,njk->nik", jpi, haty)], axis=2)
    if rotation is None:
        return j_pose, None
    return j_pose, -np.einsum("...ij,...kj->...ik", jpi, rotation)


# Rotation angle at which the SE(3) log saturates; as in geometry.so3_log_quat.
NEAR_PI = np.pi - 1e-6
# Below this angle the inverse-Jacobian coefficients use their Taylor series.
JACOBIAN_SMALL_ANGLE = 1e-3


def _structure_tensors():
    """Levi-Civita symbol eps (3, 3, 3), the Hamilton product as a bilinear
    form (a*b)_k = qmul[k, i, j] a_i b_j, and the rotation of a vector by a
    unit quaternion as (R(q) v)_i = rot[i, a, b, j] q_a q_b v_j."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    qmul = np.zeros((4, 4, 4))
    qmul[0, 0, 0] = 1.0
    for m in range(1, 4):
        qmul[0, m, m] = -1.0                 # w = aw bw - a.b
        qmul[m, 0, m] = qmul[m, m, 0] = 1.0  # v = aw bv + bw av + a x b
    qmul[1:, 1:, 1:] += eps
    # R(q) v = (w^2 - |u|^2) v + 2 (u.v) u + 2 w (u x v)
    rot = np.zeros((3, 4, 4, 3))
    for i in range(3):
        rot[i, 0, 0, i] = 1.0
        for m in range(1, 4):
            rot[i, m, m, i] -= 1.0
        for j in range(3):
            rot[i, i + 1, j + 1, j] += 2.0
            rot[i, 0, 1:, j] += 2.0 * eps[i, :, j]
    return eps, qmul, rot


_EPS, _QMUL, _ROT = _structure_tensors()
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,nj,nk->ni", _EPS, a, b)


def _hat(v: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,nj->nik", _EPS, v)


def _closed_form_angle(theta: np.ndarray):
    """Angles to evaluate the closed-form coefficients at, and the mask of the
    angles below JACOBIAN_SMALL_ANGLE, which take the Taylor series instead;
    the mask is None when no angle is small, so no series is evaluated. Small
    angles enter the closed forms as 1.0, and those values are discarded."""
    small = theta < JACOBIAN_SMALL_ANGLE
    if not small.any():
        return theta, None
    return np.where(small, 1.0, theta), small


def _v_inverse_coefficient(theta: np.ndarray) -> np.ndarray:
    """c(theta) in V^-1(phi) = I - hat(phi)/2 + c hat(phi)^2, the inverse of the
    SO(3) left Jacobian; as in geometry._v_inverse."""
    t, small = _closed_form_angle(theta)
    c = (1.0 - 0.5 * t * np.sin(t) / (1.0 - np.cos(t))) / (t * t)
    if small is None:
        return c
    return np.where(small, 1.0 / 12.0 + theta * theta / 720.0 + theta ** 4 / 30240.0, c)


def _translation_rotation_block(rho: np.ndarray, p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian (N, 3, 3),
    with p = hat(phi) and theta = |phi|."""
    t, small = _closed_form_angle(theta)
    t2 = t * t
    sin_t = np.sin(t)
    c1 = (t - sin_t) / (t2 * t)
    c2 = (1.0 - 0.5 * t2 - np.cos(t)) / (t2 * t2)
    if small is not None:
        s2 = theta * theta
        c1 = np.where(small, 1.0 / 6.0 - s2 / 120.0, c1)
        c2 = np.where(small, 1.0 / 24.0 - s2 / 720.0, c2)
    c3 = 0.5 * (c2 - 3.0 * (t - sin_t - t * t2 / 6.0) / (t2 * t2 * t))
    if small is not None:
        c3 = np.where(small, 0.5 * (c2 - 3.0 * (1.0 / 120.0 - s2 / 2520.0)), c3)
    c1, c2, c3 = c1[:, None, None], c2[:, None, None], c3[:, None, None]
    rh = _hat(rho)
    pr, rp = p @ rh, rh @ p
    prp = pr @ p
    return (0.5 * rh + c1 * (pr + rp + p @ rp)
            - c2 * (p @ pr + rp @ p - 3.0 * prp)
            - c3 * (prp @ p + p @ prp))


def _left_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    """Inverse left Jacobian of SE(3) (N, 6, 6) at twists (N, 6) = (rho, phi)."""
    rho, phi = xi[:, :3], xi[:, 3:]
    theta = np.sqrt(np.einsum("ni,ni->n", phi, phi))
    k = _hat(phi)
    jinv = np.eye(3) - 0.5 * k + _v_inverse_coefficient(theta)[:, None, None] * (k @ k)
    out = np.zeros((len(xi), 6, 6))
    out[:, :3, :3] = jinv
    out[:, 3:, 3:] = jinv
    out[:, :3, 3:] = -jinv @ _translation_rotation_block(rho, k, theta) @ jinv
    return out


def dr_residuals(from_q: np.ndarray, from_t: np.ndarray, to_q: np.ndarray, to_t: np.ndarray,
                 delta_inv_q: np.ndarray, delta_inv_t: np.ndarray):
    """Residuals log(delta^-1 from^-1 to) (E, 6) of E relative-pose edges and
    their near-pi mask (E,).

    Poses come as unit quaternions (E, 4), (w, x, y, z), and translations
    (E, 3); delta_inv is the inverted measured increment. Zero exactly when
    the estimated relative motion equals the increment. The residual is a
    total function: where the error rotation is within 1e-6 of pi the
    rotation is clamped just below pi, so the cost stays large and honest;
    the log's Jacobian is not defined there, and the caller treats those
    rows as inactive.
    """
    inv_from_q = from_q * _CONJ
    err_q = np.einsum("kij,ni,nj->nk", _QMUL, delta_inv_q,
                      np.einsum("kij,ni,nj->nk", _QMUL, inv_from_q, to_q))
    rel_t = np.einsum("iabj,na,nb,nj->ni", _ROT, inv_from_q, inv_from_q, to_t - from_t)
    err_t = np.einsum("iabj,na,nb,nj->ni", _ROT, delta_inv_q, delta_inv_q, rel_t) + delta_inv_t

    # SO(3) log of the canonical (w >= 0) error quaternion
    w = np.abs(err_q[:, 0])
    v = np.where(err_q[:, :1] < 0, -err_q[:, 1:], err_q[:, 1:])
    s = np.sqrt(np.einsum("ni,ni->n", v, v))
    theta = 2.0 * np.arctan2(s, w)
    near_pi = theta >= NEAR_PI
    tiny = s < 1e-9
    scale = np.where(tiny, 2.0, np.minimum(theta, NEAR_PI) / np.where(tiny, 1.0, s))
    phi = scale[:, None] * v
    # rho = V^-1(phi) t, with the angle of the (possibly clamped) phi
    c = _v_inverse_coefficient(np.minimum(theta, NEAR_PI))
    phi_t = _cross(phi, err_t)
    rho = err_t - 0.5 * phi_t + c[:, None] * _cross(phi, phi_t)
    return np.concatenate([rho, phi], axis=1), near_pi


def dr_jacobians(r: np.ndarray, delta_inv_adjoint: np.ndarray,
                 from_rows=slice(None), to_rows=slice(None)):
    """Jacobians of the residuals r (E, 6) w.r.t. the from pose, for the edges
    from_rows, and w.r.t. the to pose, for the edges to_rows; (n, 6, 6) each.

    Rows are selected by index array or boolean mask. delta_inv_adjoint
    (E, 6, 6) holds Ad(delta^-1) per edge. A caller that holds one side of an
    edge fixed leaves that edge out of the side's rows, so that Jacobian is
    never formed. Rows must not be flagged near pi.
    """
    r_from, r_to = r[from_rows], r[to_rows]
    jl_inv = _left_jacobian_inverse(np.concatenate([r_from, -r_to]))
    n = len(r_from)
    # d/d(from) = -Jl^-1(r) Ad(delta^-1); d/d(to) = Jr^-1(r) = Jl^-1(-r).
    return -jl_inv[:n] @ delta_inv_adjoint[from_rows], jl_inv[n:]


def huber(norms: np.ndarray, threshold: np.ndarray | float):
    """Huber cost and IRLS weight per whitened residual norm: quadratic with
    weight 1 up to the threshold, linear with weight threshold/norm beyond."""
    inside = norms <= threshold
    cost = np.where(inside, 0.5 * norms ** 2, threshold * (norms - 0.5 * threshold))
    weight = np.where(inside, 1.0, threshold / np.maximum(norms, 1e-300))
    return cost, weight
