"""SE(3)/SO(3) group arithmetic on quaternion poses, plus pinhole projection.

Conventions used everywhere in the package:
  * twists are ordered (rho, phi): translation block first, rotation second;
  * pose perturbations are right-multiplicative, P <- P * exp(xi);
  * quaternions are stored (w, x, y, z) with w >= 0 canonicalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AngleNearPi, BehindCamera

# Taylor-series cutoff for the trigonometric ratios [rad].
SMALL_ANGLE = 1e-6
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


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


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


def hat(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass(frozen=True)
class Twist:
    """Tangent-space element; rho is translational [m], phi rotational [rad]."""

    rho: np.ndarray
    phi: np.ndarray

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_vector(v: np.ndarray) -> "Twist":
        v = np.asarray(v, dtype=float)
        return Twist(v[:3].copy(), v[3:].copy())

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rho, self.phi])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: unit quaternion (w, x, y, z) and translation [m]."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _canonical(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).copy())

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @staticmethod
    def from_matrix(T: np.ndarray) -> "Pose":
        return Pose(_matrix_to_quat(np.asarray(T)[:3, :3]), np.asarray(T)[:3, 3])

    @cached_property
    def rotation_matrix(self) -> np.ndarray:
        return _quat_to_matrix(self.q)

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


def so3_exp_quat(phi: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(phi)
    half = 0.5 * theta
    if theta < SMALL_ANGLE:
        # sin(t/2)/t = 1/2 - t^2/48 + ...
        k = 0.5 - theta * theta / 48.0
    else:
        k = math.sin(half) / theta
    return _canonical(np.array([math.cos(half), k * phi[0], k * phi[1], k * phi[2]]))


def so3_log_quat(q: np.ndarray) -> np.ndarray:
    # w >= 0 by canonicalization, so the angle lies in [0, pi].
    s = np.linalg.norm(q[1:])
    theta = 2.0 * math.atan2(s, q[0])
    if theta >= math.pi - 1e-6:
        raise AngleNearPi(f"rotation angle {theta:.9f} too close to pi")
    if s < 1e-9:
        return 2.0 * q[1:]
    return (theta / s) * q[1:]


def _v_matrix(phi: np.ndarray) -> np.ndarray:
    """Translation mixer of the SE(3) exponential (SO(3) left Jacobian)."""
    theta = np.linalg.norm(phi)
    K = hat(phi)
    if theta < SMALL_ANGLE:
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - math.cos(theta)) / (theta * theta)
        b = (theta - math.sin(theta)) / (theta ** 3)
    return np.eye(3) + a * K + b * (K @ K)


def _v_inverse(phi: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(phi)
    K = hat(phi)
    if theta < 1e-3:
        c = 1.0 / 12.0 + theta * theta / 720.0 + theta ** 4 / 30240.0
    else:
        c = (1.0 - 0.5 * theta * math.sin(theta) / (1.0 - math.cos(theta))) / (theta * theta)
    return np.eye(3) - 0.5 * K + c * (K @ K)


def exp_se3(xi: Twist) -> Pose:
    """Closed-form SE(3) exponential; series below the small-angle cutoff."""
    q = so3_exp_quat(xi.phi)
    t = _v_matrix(xi.phi) @ xi.rho
    return Pose(q, t)


def exp_se3_vec(v: np.ndarray) -> Pose:
    return exp_se3(Twist.from_vector(v))


def log_se3(p: Pose) -> Twist:
    """Inverse of exp_se3; raises AngleNearPi at the domain edge."""
    phi = so3_log_quat(p.q)
    rho = _v_inverse(phi) @ p.t
    return Twist(rho, phi)


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(_quat_mul(a.q, b.q), a.rotation_matrix @ b.t + a.t)


def inverse(p: Pose) -> Pose:
    qc = np.array([p.q[0], -p.q[1], -p.q[2], -p.q[3]])
    return Pose(qc, -(p.rotation_matrix.T @ p.t))


def transform_point(p: Pose, x: np.ndarray) -> np.ndarray:
    return p.rotation_matrix @ np.asarray(x, dtype=float) + p.t


def project(k: CameraIntrinsics, x_cam: np.ndarray) -> np.ndarray:
    x, y, z = x_cam
    if z <= Z_MIN:
        raise BehindCamera(f"z = {z:.4f} m is at or behind the near plane")
    return np.array([k.fx * x / z + k.cx, k.fy * y / z + k.cy])


def adjoint(p: Pose) -> np.ndarray:
    """Adjoint for (rho, phi) ordering: exp(Ad_P xi) = P exp(xi) P^-1."""
    R = p.rotation_matrix
    A = np.zeros((6, 6))
    A[:3, :3] = R
    A[:3, 3:] = hat(p.t) @ R
    A[3:, 3:] = R
    return A
