"""Residuals, analytic Jacobians, the Huber kernel and information whitening.

Two factor types: pixel reprojection of landmarks into a camera, evaluated
in batches per camera, and a relative-pose prior from dead reckoning between
consecutive poses. Pose variables are camera-in-world; Jacobians are taken
with respect to a right-multiplicative tangent perturbation, twist ordering
(rho, phi). These are the functions the solver linearizes with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite
from .geometry import (
    CameraIntrinsics,
    Pose,
    Twist,
    Z_MIN,
    adjoint,
    compose,
    inverse,
    log_se3,
    log_se3_saturated,
    se3_left_jacobian_inverse,
    se3_right_jacobian_inverse,
)

# 95% chi-square quantile with 2 DoF, as a multiple of the pixel std.
HUBER_PIXEL_SCALE = 2.447


@dataclass(frozen=True)
class ReprojectionFactor:
    frame_id: int
    landmark_id: int
    observed: np.ndarray            # pixel measurement (2,)
    pixel_std: float                # isotropic measurement noise [px]
    huber_threshold: float          # robust kernel threshold [px, whitened units]

    def __post_init__(self):
        if self.pixel_std <= 0:
            raise ValueError("pixel std must be positive")
        object.__setattr__(self, "observed", np.asarray(self.observed, dtype=float))


def make_reprojection_factor(frame_id, landmark_id, observed, pixel_std,
                             huber_scale: float = HUBER_PIXEL_SCALE) -> ReprojectionFactor:
    return ReprojectionFactor(frame_id, landmark_id, np.asarray(observed, float),
                              pixel_std, huber_scale)


@dataclass(frozen=True)
class DrFactor:
    from_id: int
    to_id: int
    delta: Pose                     # relative increment, camera frame
    information: np.ndarray         # 6x6 SPD, alpha-scaled

    def __post_init__(self):
        info = np.asarray(self.information, dtype=float)
        if info.shape != (6, 6) or not np.allclose(info, info.T, atol=1e-9):
            raise ValueError("information must be symmetric 6x6")
        object.__setattr__(self, "information", info)


def reprojection_residuals(k: CameraIntrinsics, pose: Pose, points: np.ndarray,
                           observed: np.ndarray):
    """Camera-frame points (N, 3) and pixel residuals observed - pi(y) (N, 2)
    of N landmarks seen by one camera.

    The residual is a total function: points at or behind the near plane are
    projected at the clamped depth Z_MIN (a huge, honest residual), so steps
    that flip geometry raise the cost. Their Jacobians are not defined; the
    caller treats rows with y[:, 2] <= Z_MIN as inactive.
    """
    y = (points - pose.t) @ pose.rotation_matrix
    z = np.maximum(y[:, 2], Z_MIN)
    u = np.stack([k.fx * y[:, 0] / z + k.cx, k.fy * y[:, 1] / z + k.cy], axis=1)
    return y, observed - u


def reprojection_jacobians(k: CameraIntrinsics, pose: Pose, y: np.ndarray):
    """Residual Jacobians w.r.t. the pose (N, 2, 6) and the landmark (N, 2, 3)
    at camera-frame points y in front of the near plane."""
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
    j_landmark = -np.einsum("nij,jk->nik", jpi, pose.rotation_matrix.T)
    return j_pose, j_landmark


def dr_residual(factor: DrFactor, pose_from: Pose, pose_to: Pose):
    """Relative-pose residual log(delta^-1 from^-1 to) with both Jacobians.

    Zero exactly when the estimated relative motion equals the measured
    increment. AngleNearPi from the log propagates to the caller.
    """
    err = compose(inverse(factor.delta), compose(inverse(pose_from), pose_to))
    r = log_se3(err).as_vector()
    j_to = se3_right_jacobian_inverse(r)
    j_from = -se3_left_jacobian_inverse(r) @ adjoint(inverse(factor.delta))
    return Twist.from_vector(r), j_from, j_to


def dr_residual_saturated(factor: DrFactor, pose_from: Pose, pose_to: Pose) -> np.ndarray:
    """Residual with the rotation clamped below pi; cost evaluation only."""
    err = compose(inverse(factor.delta), compose(inverse(pose_from), pose_to))
    return log_se3_saturated(err).as_vector()


def huber(norms: np.ndarray, threshold: np.ndarray | float):
    """Huber cost and IRLS weight per whitened residual norm: quadratic with
    weight 1 up to the threshold, linear with weight threshold/norm beyond."""
    inside = norms <= threshold
    cost = np.where(inside, 0.5 * norms ** 2, threshold * (norms - 0.5 * threshold))
    weight = np.where(inside, 1.0, threshold / np.maximum(norms, 1e-300))
    return cost, weight


def information_sqrt(information: np.ndarray) -> np.ndarray:
    """Upper-triangular square root U with U^T U = information."""
    try:
        lower = np.linalg.cholesky(np.asarray(information, float))
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite("information matrix is not positive definite") from e
    return lower.T

