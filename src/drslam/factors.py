"""Residuals, analytic Jacobians and the Huber kernel.

Pixel reprojection is batched: one call evaluates every row of a problem,
each row with its own pose or all rows with one. The relative-pose (DR)
kernel is scalar, on Python floats for one edge: dr_fold folds the edge's
fixed part left = delta^-1 from^-1, dr_residual gives log(left to) with the
log's angle terms, and one dr_jacobians call forms the Jacobian of each free
side from one J and Q. Pose variables are camera-in-world; Jacobians are
taken with respect to a right-multiplicative tangent perturbation, twist
ordering (rho, phi). The solver whitens the outputs itself.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (Z_MIN, CameraIntrinsics, angle_coefficients, hat, matrix_product,
                       project_points, se3_compose, se3_inverse, se3_log)

# 95% chi-square quantile with 2 DoF, as a multiple of the pixel std.
HUBER_PIXEL_SCALE = 2.447


def reprojection_residuals(k: CameraIntrinsics, rotation: np.ndarray, translation: np.ndarray,
                           points: np.ndarray, observed: np.ndarray):
    """Camera-frame points (N, 3) and pixel residuals observed - pi(y) (N, 2)
    of N landmarks, seen by one camera-in-world rotation (3, 3) and
    translation (3,), or by one each, (N, 3, 3) and (N, 3).

    The residual is a total function: the projection kernel projects points
    at or behind the near plane at the clamped depth Z_MIN (a huge, honest
    residual), so steps that flip geometry raise the cost.
    """
    y, u = project_points(k, rotation, translation, points)
    return y, observed - u


def reprojection_jacobians(k: CameraIntrinsics, y: np.ndarray, rotation: np.ndarray | None = None):
    """Residual Jacobians w.r.t. the pose (N, 2, 6) and the landmark (N, 2, 3)
    at camera-frame points y. Without the camera rotation (points held fixed)
    the landmark Jacobian is not formed: None.

    The depth is clamped at Z_MIN, as in project_points, so the Jacobian is
    finite for every row. At or behind the near plane it is not the
    residual's: the solver gives such a row an IRLS weight of 0, so it stays
    in the cost and adds exact zeros to the system."""
    n = len(y)
    z = np.maximum(y[:, 2], Z_MIN)
    jpi = np.zeros((n, 2, 3))
    jpi[:, 0, 0] = k.fx / z
    jpi[:, 0, 2] = -k.fx * y[:, 0] / z ** 2
    jpi[:, 1, 1] = k.fy / z
    jpi[:, 1, 2] = -k.fy * y[:, 1] / z ** 2
    # d(camera point)/d(xi) = [-I | hat(y)] under P <- P exp(xi).
    j_pose = np.empty((n, 2, 6))
    j_pose[:, :, :3] = jpi
    np.negative(jpi @ hat(y), out=j_pose[:, :, 3:])
    if rotation is None:
        return j_pose, None
    return j_pose, -(jpi @ np.swapaxes(rotation, -1, -2))


# Below this angle Q's coefficients take their series [rad]. Their closed
# forms cancel: c2 and c3 lose about 1e2 eps / t^4 of their value (1.5e-2 of
# c3 at 1e-3 rad, 2e-14 at 1 rad), and c1 6 eps / t^2. Nine terms of each
# series are exact to rounding up to 1 rad.
COUPLING_SERIES_CUT = 1.0
# Their series in t^2, highest power first: c1 = (t - sin t)/t^3 has terms
# (-1)^k / (2k + 3)!, c2 = (1 - t^2/2 - cos t)/t^4 -(-1)^k / (2k + 4)! and
# c3 = -(2t - 3 sin t + t cos t)/(2 t^5) -(-1)^k (k + 1) / (2k + 5)!.
_COUPLING_TERMS = tuple(((-1) ** k / math.factorial(2 * k + 3),
                         -(-1) ** k / math.factorial(2 * k + 4),
                         -(-1) ** k * (k + 1) / math.factorial(2 * k + 5)) for k in range(8, -1, -1))


def _coupling_closed_form(t: float):
    t2 = t * t
    sin_t = math.sin(t)
    c2 = (1.0 - 0.5 * t2 - math.cos(t)) / (t2 * t2)
    return ((t - sin_t) / (t2 * t), c2,
            0.5 * (c2 - 3.0 * (t - sin_t - t * t2 / 6.0) / (t2 * t2 * t)))


def _coupling_series(t: float):
    t2 = t * t
    c1 = c2 = c3 = 0.0
    for a, b, c in _COUPLING_TERMS:
        c1, c2, c3 = c1 * t2 + a, c2 * t2 + b, c3 * t2 + c
    return c1, c2, c3


def _left_jacobian_blocks(xi, theta: float, c: float):
    """The blocks of the inverse left Jacobian of SE(3) at a twist (rho, phi),
    [[J, -J Q J], [0, J]]: J = I - hat(phi)/2 + c hat(phi)^2, the inverse of
    the SO(3) left Jacobian, and the coupling Q(rho, phi) of Barfoot &
    Furgale (T-RO 2014), 9 floats each, row-major. theta = |phi| and c are
    the angle terms the log computed for the twist.

    The hat products of Q reduce, with d = phi . rho and s = phi . phi, to
    Q = hat(a rho + b phi) + g (rho phi^T + phi rho^T) + e phi phi^T + f I,
    with a = 1/2 + c2 s, b = -(c1 + 2 c2) d, g = c1, e = 2 c3 d and
    f = -2 d (c1 + c3 s), for Q's angle coefficients c1, c2 and c3.
    """
    r0, r1, r2, p0, p1, p2 = xi
    c1, c2, c3 = angle_coefficients(theta, _coupling_closed_form, _coupling_series,
                                    COUPLING_SERIES_CUT)
    s0, s1, s2 = p0 * p0, p1 * p1, p2 * p2
    d, s = p0 * r0 + p1 * r1 + p2 * r2, s0 + s1 + s2
    a, b, e, f = 0.5 + c2 * s, -(c1 + 2.0 * c2) * d, 2.0 * c3 * d, -2.0 * d * (c1 + c3 * s)
    v0, v1, v2 = a * r0 + b * p0, a * r1 + b * p1, a * r2 + b * p2
    m01 = c1 * (r0 * p1 + p0 * r1) + e * p0 * p1
    m02 = c1 * (r0 * p2 + p0 * r2) + e * p0 * p2
    m12 = c1 * (r1 * p2 + p1 * r2) + e * p1 * p2
    coupling = (2.0 * c1 * r0 * p0 + e * s0 + f, m01 - v2, m02 + v1,
                m01 + v2, 2.0 * c1 * r1 * p1 + e * s1 + f, m12 - v0,
                m02 - v1, m12 + v0, 2.0 * c1 * r2 * p2 + e * s2 + f)
    # hat(phi)^2 = phi phi^T - s I, its diagonal formed without cancellation
    h01, h02, h12 = c * p0 * p1, c * p0 * p2, c * p1 * p2
    j = (1.0 - c * (s1 + s2), 0.5 * p2 + h01, h02 - 0.5 * p1,
         h01 - 0.5 * p2, 1.0 - c * (s0 + s2), 0.5 * p0 + h12,
         0.5 * p1 + h02, h12 - 0.5 * p0, 1.0 - c * (s0 + s1))
    return j, coupling


def _six_by_six(a, b, d) -> tuple:
    """The 6x6 matrix [[a, b], [0, d]] (36 floats, row-major) of 3x3 blocks."""
    zero = (0.0, 0.0, 0.0)
    return (*a[:3], *b[:3], *a[3:6], *b[3:6], *a[6:], *b[6:],
            *zero, *d[:3], *zero, *d[3:6], *zero, *d[6:])


def dr_fold(from_q, from_t, delta_inv_q, delta_inv_t, delta_inv_rotation=None):
    """The fixed part left = delta^-1 from^-1 of a relative-pose edge, as
    (q, t), from its from pose and its inverted measured increment;
    delta_inv_rotation, when the caller holds it, is the increment's rotation
    matrix and is not formed again."""
    from_inv_q, from_inv_t, _ = se3_inverse(from_q, from_t)
    return se3_compose(delta_inv_q, delta_inv_t, from_inv_q, from_inv_t, delta_inv_rotation)


def dr_residual(left_q, left_t, to_q, to_t, left_rotation=None):
    """The residual log(left to) = log(delta^-1 from^-1 to) (6 floats) of a
    relative-pose edge, whether its angle is near pi, and the log's angle
    terms, the clamped angle and the V^-1 coefficient, which the Jacobians
    take.

    left is dr_fold of the edge; left_rotation, when the caller holds it, is
    its rotation matrix. Zero exactly when the estimated relative motion
    equals the increment. The residual is a total function: where the error
    rotation is within 1e-6 of pi the rotation is clamped just below pi, so
    the cost stays large and honest; the log's Jacobian is not defined
    there, and the solver gives such an edge a zero Jacobian.
    """
    return se3_log(*se3_compose(left_q, left_t, to_q, to_t, left_rotation))


def dr_jacobians(log, delta_inv_adjoint, to_free: bool):
    """The Jacobians (36 floats each, row-major 6x6) of an edge's residual r
    w.r.t. its from pose, -Jl^-1(r) Ad(delta^-1), formed given
    delta_inv_adjoint (se3_adjoint of delta^-1), and its to pose,
    Jr^-1(r) = Jl^-1(-r), formed given to_free, else None, at log, the edge's
    dr_residual output, not near pi. J and Q are formed once, at r: J(-phi)
    is J^T and Q(-rho, -phi) is Q^T, Q with its hat term negated, bit for bit."""
    r, _, theta, c = log
    j, coupling = _left_jacobian_blocks(r, theta, c)
    from_jacobian = to_jacobian = None
    if delta_inv_adjoint is not None:
        rotation, top_right = delta_inv_adjoint
        # Jl^-1(r) Ad = [[A, B], [0, A]], A = J R and B = J (hat(t) R - Q A)
        a = matrix_product(j, rotation)
        minus_b = matrix_product(j, [y - x for x, y in zip(top_right, matrix_product(coupling, a))])
        minus_a = tuple(-x for x in a)
        from_jacobian = _six_by_six(minus_a, minus_b, minus_a)
    if to_free:
        jt = _transposed(j)
        to_jacobian = _six_by_six(
            jt, matrix_product(jt, matrix_product(_transposed(coupling, -1.0), jt)), jt)
    return from_jacobian, to_jacobian


def _transposed(m, sign: float = 1.0) -> tuple:
    """The transpose of a 3x3 matrix (9 floats, row-major), times sign."""
    return (m[0] * sign, m[3] * sign, m[6] * sign, m[1] * sign, m[4] * sign, m[7] * sign,
            m[2] * sign, m[5] * sign, m[8] * sign)


def huber(norms: np.ndarray, threshold: np.ndarray | float):
    """Huber cost and IRLS weight per whitened residual norm: quadratic with
    weight 1 up to the threshold, linear with weight threshold/norm beyond."""
    inside = norms <= threshold
    if np.all(inside):
        return 0.5 * norms ** 2, np.ones_like(norms)
    cost = np.where(inside, 0.5 * norms ** 2, threshold * (norms - 0.5 * threshold))
    weight = np.where(inside, 1.0, threshold / np.maximum(norms, 1e-300))
    return cost, weight
