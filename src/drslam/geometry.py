"""SE(3)/SO(3) group arithmetic on quaternion poses, plus the pinhole camera.

Conventions used everywhere in the package:
  * twists are ordered (rho, phi): translation block first, rotation second;
  * pose perturbations are right-multiplicative, P <- P * exp(xi);
  * quaternions are stored (w, x, y, z) with w >= 0 canonicalization.

The group arithmetic is implemented once, as scalar kernels on Python floats
for one pose, twist or rotation: a quaternion is 4 floats, a translation or
vector 3, a twist 6 and a 3x3 matrix 9, row-major; they take any sequence
of floats and return tuples. A pose-sized kernel is a few hundred flops,
while a NumPy call on a one-row array costs about a microsecond, so floats
are several times faster. Callers that hold many poses (the solver, the
sequence reader) loop over them and stack the results: each row keeps the
bits of that row evaluated alone, and since no BLAS call is made the bits
do not depend on the thread setting. Non-finite input propagates as NaN,
never as an exception. The Pose API wraps the kernels for callers holding
arrays, and canonicalizes the quaternions they return.

What stays batched works on many points at once: hat, and the pinhole
camera's two kernels, projection and back-projection, the only estimator
code that reads the intrinsics besides the reprojection Jacobian.
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


# hat(v)'s slots that hold +-v, row-major, the entry of v each holds and its sign.
_HAT_SLOT = np.array([1, 2, 3, 5, 6, 7])
_HAT_SOURCE = np.array([2, 1, 2, 0, 1, 0])
_HAT_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def hat(v: np.ndarray) -> np.ndarray:
    """Skew matrices (..., 3, 3) of vectors (..., 3): hat(a) b = a x b."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out.reshape(-1, 9)[:, _HAT_SLOT] = v.reshape(-1, 3).take(_HAT_SOURCE, 1) * _HAT_SIGN
    return out


def quat_multiply(a, b) -> tuple:
    """The Hamilton product a * b of quaternions (4 floats each)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_to_rotation(q) -> tuple:
    """The rotation matrix (9 floats, row-major) of a unit quaternion. Sign
    flips are exact, so the conjugate's matrix is this one's transpose, bit
    for bit."""
    w, x, y, z = q
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
            2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
            2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy))


def rotate(r, v) -> tuple:
    """The product r v of a 3x3 matrix (9 floats, row-major) and a vector."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    x, y, z = v
    return r0 * x + r1 * y + r2 * z, r3 * x + r4 * y + r5 * z, r6 * x + r7 * y + r8 * z


def matrix_product(a, b) -> tuple:
    """The product a b of 3x3 matrices (9 floats each, row-major)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8)


def se3_compose(qa, ta, qb, tb, rotation_a=None):
    """The product a * b of two poses, as (q, t). rotation_a, when the caller
    holds it, is quat_to_rotation(qa) and is not formed again."""
    if rotation_a is None:
        rotation_a = quat_to_rotation(qa)
    x, y, z = rotate(rotation_a, tb)
    return quat_multiply(qa, qb), (x + ta[0], y + ta[1], z + ta[2])


def se3_inverse(q, t):
    """The inverse of a pose, as (q, t), and its rotation matrix, which the
    inversion forms."""
    w, x, y, z = q
    q_inv = (w, -x, -y, -z)
    rotation = quat_to_rotation(q_inv)
    a, b, c = rotate(rotation, t)
    return q_inv, (-a, -b, -c), rotation


def se3_adjoint(q, t):
    """The adjoint [[R, hat(t) R], [0, R]] of a pose for (rho, phi)
    ordering, exp(Ad_P xi) = P exp(xi) P^-1, as its blocks R and hat(t) R
    (9 floats each, row-major)."""
    r = quat_to_rotation(q)
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r
    x, y, z = t
    # column j of hat(t) R is t x (column j of R)
    return r, (y * r6 - z * r3, y * r7 - z * r4, y * r8 - z * r5,
               z * r0 - x * r6, z * r1 - x * r7, z * r2 - x * r8,
               x * r3 - y * r0, x * r4 - y * r1, x * r5 - y * r2)


def angle_coefficients(theta: float, closed_form, series, cut: float = SMALL_ANGLE):
    """The coefficients of an angle theta: series(theta) below cut,
    closed_form(theta) from there on. A non-finite angle takes the closed
    form at NaN, so that its coefficients are NaN (math.cos raises on inf)."""
    if theta < cut:
        return series(theta)
    return closed_form(theta if theta < math.inf else math.nan)


def _exp_closed_form(t: float):
    half, t2 = 0.5 * t, t * t
    return (math.cos(half), math.sin(half) / t, (1.0 - math.cos(t)) / t2,
            (t - math.sin(t)) / (t2 * t))


def _exp_series(t: float):
    # cos(t/2), sin(t/2)/t, (1 - cos t)/t^2 and (t - sin t)/t^3
    t2 = t * t
    t4 = t2 * t2
    return (1.0 - t2 / 8.0 + t4 / 384.0, 0.5 - t2 / 48.0 + t4 / 3840.0,
            0.5 - t2 / 24.0 + t4 / 720.0, 1.0 / 6.0 - t2 / 120.0 + t4 / 5040.0)


def se3_exp(xi):
    """The closed-form SE(3) exponential of a twist (6 floats), as (q, t); the
    ratios take their series below SMALL_ANGLE."""
    r0, r1, r2, p0, p1, p2 = xi
    cos_half, k, a, b = angle_coefficients(math.sqrt(p0 * p0 + p1 * p1 + p2 * p2),
                                           _exp_closed_form, _exp_series)
    # V(phi) rho = rho + a phi x rho + b phi x (phi x rho)
    c0, c1, c2 = p1 * r2 - p2 * r1, p2 * r0 - p0 * r2, p0 * r1 - p1 * r0
    d0, d1, d2 = p1 * c2 - p2 * c1, p2 * c0 - p0 * c2, p0 * c1 - p1 * c0
    return ((cos_half, k * p0, k * p1, k * p2),
            (r0 + a * c0 + b * d0, r1 + a * c1 + b * d1, r2 + a * c2 + b * d2))


def _v_inverse_closed_form(t: float) -> float:
    # the half-angle form (1 - (t/2) cot(t/2))/t^2, which loses about 1e-9 of
    # its value at t = 1e-3 where (1 - (t/2) sin t/(1 - cos t))/t^2 loses 1e-3
    half = 0.5 * t
    return (1.0 - half / math.tan(half)) / (t * t)


def _v_inverse_series(t: float) -> float:
    t2 = t * t
    return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0


def v_inverse_coefficient(theta: float) -> float:
    """c(theta) in V^-1(phi) = I - hat(phi)/2 + c hat(phi)^2, the inverse of
    the SO(3) left Jacobian, at theta = |phi|."""
    return angle_coefficients(theta, _v_inverse_closed_form, _v_inverse_series)


def se3_log(q, t):
    """The twist (6 floats) of a pose, whether its angle is near pi, and the
    log's angle terms: the rotation angle of the twist and its V^-1
    coefficient (v_inverse_coefficient).

    A total function: where the rotation angle is NEAR_PI or more the angle
    is clamped to NEAR_PI about the same axis, so a residual stays large and
    honest; the log's Jacobian is not defined there.
    """
    w, x, y, z = q
    if w < 0:     # the canonical (w >= 0) quaternion
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    theta = 2.0 * math.atan2(s, w)
    angle = min(theta, NEAR_PI)
    scale = 2.0 if s < 1e-9 else angle / s
    p0, p1, p2 = scale * x, scale * y, scale * z
    # rho = V^-1(phi) t, with the angle of the (possibly clamped) phi
    c = v_inverse_coefficient(angle)
    t0, t1, t2 = t
    c0, c1, c2 = p1 * t2 - p2 * t1, p2 * t0 - p0 * t2, p0 * t1 - p1 * t0
    d0, d1, d2 = p1 * c2 - p2 * c1, p2 * c0 - p0 * c2, p0 * c1 - p1 * c0
    return ((t0 - 0.5 * c0 + c * d0, t1 - 0.5 * c1 + c * d1, t2 - 0.5 * c2 + c * d2, p0, p1, p2),
            theta >= NEAR_PI, angle, c)


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
        return np.array(quat_to_rotation(self.q.tolist())).reshape(3, 3)

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
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be finite and positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @cached_property
    def focal(self) -> np.ndarray:
        """(fx, fy) as a read-only array, formed once for the batched kernels."""
        return _read_only(np.array([self.fx, self.fy]))

    @cached_property
    def principal(self) -> np.ndarray:
        """(cx, cy) as a read-only array, formed once for the batched kernels."""
        return _read_only(np.array([self.cx, self.cy]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def exp_se3(xi: np.ndarray) -> Pose:
    """Closed-form SE(3) exponential of a (6,) twist (rho, phi); series below
    the small-angle cutoff."""
    return Pose(*se3_exp(np.asarray(xi, dtype=float).reshape(6).tolist()))


def log_se3(p: Pose) -> np.ndarray:
    """Inverse of exp_se3, as a (6,) twist; raises AngleNearPi at the domain edge."""
    xi, near_pi, _, _ = se3_log(p.q.tolist(), p.t.tolist())
    if near_pi:
        raise AngleNearPi(f"rotation angle {p.rotation_angle():.9f} too close to pi")
    return np.array(xi)


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(*se3_compose(a.q.tolist(), a.t.tolist(), b.q.tolist(), b.t.tolist()))


def inverse(p: Pose) -> Pose:
    return Pose(*se3_inverse(p.q.tolist(), p.t.tolist())[:2])


def project_points(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                   points: np.ndarray):
    """The projection kernel: camera-frame points y (N, 3) and pixels (N, 2)
    of world points (N, 3), seen by one camera-in-world rotation (3, 3) and
    translation (3,), or by one each, (N, 3, 3) and (N, 3). Points at or
    behind the near plane are projected at the clamped depth Z_MIN."""
    y = np.einsum("...i,...ij->...j", points - translation, rotation)
    z = np.maximum(y[:, 2:], Z_MIN)
    return y, y[:, :2] * k.focal / z + k.principal


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
