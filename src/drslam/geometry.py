"""SE(3)/SO(3) group arithmetic on quaternion poses, plus the pinhole camera.

Conventions used everywhere in the package:
  * twists are ordered (rho, phi): translation block first, rotation second;
  * pose perturbations are right-multiplicative, P <- P * exp(xi);
  * quaternions are stored (w, x, y, z) with w >= 0 canonicalization.

The group arithmetic is implemented once, as batched kernels on quaternions
(N, 4), translations (N, 3) and twists (N, 6), called on stacked rows by the
DR kernel and the solver and on one row by the scalar Pose API, whose twists
are (6,) arrays. They work row by row (elementwise operations, one matrix
product per row), so a row of a batch has the bits of that row evaluated
alone. Pose canonicalizes the quaternions the kernels return. The pinhole
camera is two batched kernels, projection and back-projection, the only
estimator code that reads the intrinsics besides the reprojection Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AngleNearPi, BehindCamera

# Below this angle the trigonometric ratios take their Taylor series [rad].
SMALL_ANGLE = 1e-3
# Rotation angle from which the SE(3) log saturates [rad].
NEAR_PI = math.pi - 1e-6
# Projection near-plane [m]; the guard for BehindCamera.
Z_MIN = 0.05


def _canonical(q: np.ndarray) -> np.ndarray:
    # Renormalize only on measurable drift so unit quaternions keep their
    # exact bytes through I/O round trips; sign flips are exact in floats.
    norm2 = float(q @ q)
    if abs(norm2 - 1.0) > 1e-12:
        q = q / math.sqrt(norm2)
    if q[0] < 0 or (q[0] == 0 and (q[1] < 0 or (q[1] == 0 and (q[2] < 0 or (q[2] == 0 and q[3] < 0))))):
        q = -q
    return q


def _matrix_to_quat(R: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest pivot for numerical stability.
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return _canonical(q)


# Index tables of the batched kernels: the slots of hat(v) that hold +-v;
# a x b as a_A b_B, first three minus last three; the right-multiplication
# matrix of a quaternion, a * b = M(b) a; and entry (i, j) of R(q), row-major,
# as 2 (q_a q_b + sign q_c q_d), 1 minus that on the diagonal (R00 =
# 1 - 2 (y y + z z), R01 = 2 (x y - w z), ...), a then c in the first table.
_HAT_SLOT = np.array([1, 2, 3, 5, 6, 7])
_HAT_SOURCE = np.array([2, 1, 2, 0, 1, 0])
_HAT_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])
_QMUL_SOURCE = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QMUL_SIGN = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)
_ROT_FIRST = np.array([2, 1, 1, 1, 1, 2, 1, 2, 1, 3, 0, 0, 0, 3, 0, 0, 0, 2])
_ROT_SECOND = np.array([2, 2, 3, 2, 1, 3, 3, 3, 1, 3, 3, 2, 3, 3, 1, 2, 1, 2])
_ROT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew matrices (..., 3, 3) of vectors (..., 3): hat(a) b = a x b."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out.reshape(-1, 9)[:, _HAT_SLOT] = v.reshape(-1, 3).take(_HAT_SOURCE, 1) * _HAT_SIGN
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products (..., 3) of broadcast vectors, a_1 b_2 - a_2 b_1, ..."""
    p = a.take(_CROSS_A, -1) * b.take(_CROSS_B, -1)
    return p[..., :3] - p[..., 3:]


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products m v (N, k) of matrices (N, k, j) and vectors (N, j), one
    matrix-vector product per row."""
    return (m @ v[:, :, None])[:, :, 0]


def _squared_norm(v: np.ndarray) -> np.ndarray:
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products a * b (N, 4)."""
    return _apply(b.take(_QMUL_SOURCE, 1) * _QMUL_SIGN, a)


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of unit quaternions (N, 4)."""
    p = q.take(_ROT_FIRST, 1) * q.take(_ROT_SECOND, 1)
    r = 2.0 * (p[:, :9] + p[:, 9:] * _ROT_SIGN)
    r[:, ::4] = 1.0 - r[:, ::4]
    return r.reshape(-1, 3, 3)


def se3_compose(qa: np.ndarray, ta: np.ndarray, qb: np.ndarray, tb: np.ndarray,
                rotation_a: np.ndarray | None = None):
    """Products a * b of pose rows, as (q, t). rotation_a, when the caller
    holds it, is quat_to_rotation(qa) (N, 3, 3) and is not formed again."""
    if rotation_a is None:
        rotation_a = quat_to_rotation(qa)
    return _quat_multiply(qa, qb), _apply(rotation_a, tb) + ta


def se3_inverse(q: np.ndarray, t: np.ndarray):
    """Inverses of pose rows, as (q, t)."""
    qi = q * _CONJ
    return qi, -_apply(quat_to_rotation(qi), t)


def se3_adjoint(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Adjoints (N, 6, 6) for (rho, phi) ordering: exp(Ad_P xi) = P exp(xi) P^-1."""
    r = quat_to_rotation(q)
    out = np.zeros((len(q), 6, 6))
    out[:, :3, :3] = out[:, 3:, 3:] = r
    out[:, :3, 3:] = hat(t) @ r
    return out


def angle_coefficients(theta: np.ndarray, closed_form, series):
    """k coefficients (N,) each at angles theta (N,): series(theta) below
    SMALL_ANGLE, closed_form(theta) from there on. Each form is evaluated
    only when some angle takes it, small angles entering the closed form as
    1.0 and those values discarded, so a row's coefficients do not depend on
    the other rows."""
    small = theta < SMALL_ANGLE
    n_small = np.count_nonzero(small)
    if n_small == 0:
        return closed_form(theta)
    if n_small == len(theta):
        return series(theta)
    return [np.where(small, s, c)
            for s, c in zip(series(theta), closed_form(np.where(small, 1.0, theta)))]


def _taylor(theta: np.ndarray, c0, d2, d4) -> np.ndarray:
    """Series c0 + theta^2/d2 + theta^4/d4 (k, N) of k coefficients, given
    as k-vectors or scalars."""
    theta = theta[:, None]
    return (c0 + theta * theta / d2 + theta ** 4 / d4).T


def _exp_closed_form(t: np.ndarray):
    half, t2 = 0.5 * t, t * t
    return np.cos(half), np.sin(half) / t, (1.0 - np.cos(t)) / t2, (t - np.sin(t)) / (t2 * t)


# Series of cos(t/2), sin(t/2)/t, (1 - cos t)/t^2 and (t - sin t)/t^3.
_EXP_SERIES = (np.array([1.0, 0.5, 0.5, 1.0 / 6.0]), np.array([-8.0, -48.0, -24.0, -120.0]),
               np.array([384.0, 3840.0, 720.0, 5040.0]))


def se3_exp(xi: np.ndarray):
    """Closed-form SE(3) exponentials of twists (N, 6), as (q, t); the ratios
    take their series below SMALL_ANGLE."""
    rho, phi = xi[:, :3], xi[:, 3:]
    cos_half, k, a, b = angle_coefficients(np.sqrt(_squared_norm(phi)), _exp_closed_form,
                                           lambda theta: _taylor(theta, *_EXP_SERIES))
    q = np.concatenate([cos_half[:, None], k[:, None] * phi], axis=1)
    # V(phi) rho = rho + a phi x rho + b phi x (phi x rho)
    phi_rho = _cross(phi, rho)
    return q, rho + a[:, None] * phi_rho + b[:, None] * _cross(phi, phi_rho)


def _v_inverse_closed_form(t: np.ndarray):
    return ((1.0 - 0.5 * t * np.sin(t) / (1.0 - np.cos(t))) / (t * t),)


def v_inverse_coefficient(theta: np.ndarray) -> np.ndarray:
    """c(theta) (N,) in V^-1(phi) = I - hat(phi)/2 + c hat(phi)^2, the inverse
    of the SO(3) left Jacobian."""
    return angle_coefficients(theta, _v_inverse_closed_form,
                              lambda t: _taylor(t, 1.0 / 12.0, 720.0, 30240.0))[0]


def se3_log(q: np.ndarray, t: np.ndarray):
    """The twists (N, 6) of pose rows, their near-pi mask (N,) and the log's
    angle terms: the rotation angle of each twist and its V^-1 coefficient
    (v_inverse_coefficient), (N,) each.

    A total function: where the rotation angle is NEAR_PI or more the angle
    is clamped to NEAR_PI about the same axis, so a residual stays large and
    honest; the log's Jacobian is not defined there.
    """
    # the canonical (w >= 0) quaternion
    w = np.abs(q[:, 0])
    v = np.where(q[:, :1] < 0, -q[:, 1:], q[:, 1:])
    s = np.sqrt(_squared_norm(v))
    theta = 2.0 * np.arctan2(s, w)
    near_pi = theta >= NEAR_PI
    angle = np.minimum(theta, NEAR_PI)
    tiny = s < 1e-9
    phi = np.where(tiny, 2.0, angle / np.where(tiny, 1.0, s))[:, None] * v
    # rho = V^-1(phi) t, with the angle of the (possibly clamped) phi
    c = v_inverse_coefficient(angle)
    phi_t = _cross(phi, t)
    xi = np.concatenate([t - 0.5 * phi_t + c[:, None] * _cross(phi, phi_t), phi], axis=1)
    return xi, near_pi, angle, c


@dataclass(frozen=True)
class Pose:
    """Rigid transform: unit quaternion (w, x, y, z) and translation [m]."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _canonical(np.array(self.q, dtype=float)))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).copy())

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_matrix(T: np.ndarray) -> "Pose":
        return Pose(_matrix_to_quat(np.asarray(T)[:3, :3]), np.asarray(T)[:3, 3])

    @cached_property
    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotation(self.q[None])[0]

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation_matrix
        T[:3, 3] = self.t
        return T

    def rotation_angle(self) -> float:
        return 2.0 * math.atan2(np.linalg.norm(self.q[1:]), self.q[0])


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def exp_se3(xi: np.ndarray) -> Pose:
    """Closed-form SE(3) exponential of a (6,) twist (rho, phi); series below
    the small-angle cutoff."""
    q, t = se3_exp(np.asarray(xi, dtype=float)[None])
    return Pose(q[0], t[0])


def log_se3(p: Pose) -> np.ndarray:
    """Inverse of exp_se3, as a (6,) twist; raises AngleNearPi at the domain edge."""
    xi, near_pi, _, _ = se3_log(p.q[None], p.t[None])
    if near_pi[0]:
        raise AngleNearPi(f"rotation angle {p.rotation_angle():.9f} too close to pi")
    return xi[0]


def compose(a: Pose, b: Pose) -> Pose:
    q, t = se3_compose(a.q[None], a.t[None], b.q[None], b.t[None])
    return Pose(q[0], t[0])


def inverse(p: Pose) -> Pose:
    q, t = se3_inverse(p.q[None], p.t[None])
    return Pose(q[0], t[0])


def project_points(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                   points: np.ndarray):
    """The projection kernel: camera-frame points y (N, 3) and pixels (N, 2)
    of world points (N, 3), seen by one camera-in-world rotation (3, 3) and
    translation (3,), or by one each, (N, 3, 3) and (N, 3). Points at or
    behind the near plane are projected at the clamped depth Z_MIN."""
    y = np.einsum("...i,...ij->...j", points - translation, rotation)
    z = np.maximum(y[:, 2], Z_MIN)
    return y, np.stack([k.fx * y[:, 0] / z + k.cx, k.fy * y[:, 1] / z + k.cy], axis=1)


def camera_to_world(rotation: np.ndarray, translation: np.ndarray, y: np.ndarray) -> np.ndarray:
    """World points (N, 3) of camera-frame points y (N, 3), under rotations
    and translations shaped as in project_points."""
    return np.einsum("...ij,...j->...i", rotation, y) + translation


def back_project(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                 uv: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """The back-projection kernel: world points (N, 3) of pixels (N, 2) at
    camera-frame depths (N,), under rotations and translations shaped as in
    project_points."""
    y = np.stack([(uv[:, 0] - k.cx) * depth / k.fx, (uv[:, 1] - k.cy) * depth / k.fy, depth],
                 axis=1)
    return camera_to_world(rotation, translation, y)


def transform_point(p: Pose, x: np.ndarray) -> np.ndarray:
    return camera_to_world(p.rotation_matrix, p.t, np.asarray(x, dtype=float)[None])[0]


def project(k: CameraIntrinsics, x_cam: np.ndarray) -> np.ndarray:
    if x_cam[2] <= Z_MIN:
        raise BehindCamera(f"z = {x_cam[2]:.4f} m is at or behind the near plane")
    return project_points(k, np.eye(3), np.zeros(3), np.asarray(x_cam, dtype=float)[None])[1][0]
