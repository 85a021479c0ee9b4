import numpy as np
import pytest

from conftest import random_pose
from drslam.errors import AngleNearPi, NotPositiveDefinite
from drslam.factors import (
    DrFactor,
    dr_residual,
    huber,
    information_sqrt,
    reprojection_jacobians,
    reprojection_residuals,
)
from drslam.geometry import (
    CameraIntrinsics,
    Pose,
    Twist,
    Z_MIN,
    compose,
    exp_se3,
    exp_se3_vec,
    inverse,
    project,
    transform_point,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
FD_STEP = 1e-6
FD_RTOL = 1e-5


def project_world(pose: Pose, landmark: np.ndarray) -> np.ndarray:
    return project(K, transform_point(inverse(pose), landmark))


def in_view_landmark(rng, pose: Pose) -> np.ndarray:
    # sample a pixel and depth, then lift into the world through the pose
    u = rng.uniform(80, 560)
    v = rng.uniform(60, 420)
    z = rng.uniform(1.0, 6.0)
    cam = np.array([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])
    return transform_point(pose, cam)


def fd_jacobian(fun, dim, step=FD_STEP):
    cols = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        cols.append((fun(e) - fun(-e)) / (2 * step))
    return np.stack(cols, axis=1)


def rel_err(analytic, numeric):
    scale = max(np.max(np.abs(numeric)), 1.0)
    return np.max(np.abs(analytic - numeric)) / scale


def residual_of(pose: Pose, landmark: np.ndarray, observed: np.ndarray) -> np.ndarray:
    return reprojection_residuals(K, pose, landmark[None], observed[None])[1][0]


def test_reprojection_residual_zero_for_consistent_geometry(rng):
    for _ in range(20):
        pose = random_pose(rng)
        lms = np.array([in_view_landmark(rng, pose) for _ in range(5)])
        obs = np.array([project_world(pose, lm) for lm in lms])
        y, r = reprojection_residuals(K, pose, lms, obs)
        assert np.allclose(r, 0, atol=1e-9)
        assert np.allclose(y, [transform_point(inverse(pose), lm) for lm in lms], atol=1e-12)


def test_reprojection_behind_camera_clamps_to_near_plane():
    pose = Pose.identity()
    points = np.array([[0.1, 0.0, -1.0], [0.1, 0.0, 2.0]])
    obs = np.array([[320.0, 240.0], [345.0, 240.0]])
    y, r = reprojection_residuals(K, pose, points, obs)
    assert y[0, 2] == -1.0
    # projected at depth Z_MIN: a large, finite residual instead of a raise
    assert np.allclose(r[0], [320.0 - (K.fx * 0.1 / Z_MIN + K.cx), 0.0])
    assert np.allclose(r[1], 0.0)


def test_reprojection_jacobians_match_finite_differences(rng):
    for _ in range(100):
        pose = random_pose(rng)
        lm = in_view_landmark(rng, pose)
        obs = project_world(pose, lm) + rng.normal(scale=2.0, size=2)
        y, _ = reprojection_residuals(K, pose, lm[None], obs[None])
        j_pose, j_lm = (j[0] for j in reprojection_jacobians(K, pose, y))

        def r_of_pose(d):
            return residual_of(compose(pose, exp_se3_vec(d)), lm, obs)

        def r_of_lm(d):
            return residual_of(pose, lm + d, obs)

        assert rel_err(j_pose, fd_jacobian(r_of_pose, 6)) < FD_RTOL
        assert rel_err(j_lm, fd_jacobian(r_of_lm, 3)) < FD_RTOL


def make_dr_factor(delta: Pose, info=None) -> DrFactor:
    info = np.eye(6) if info is None else info
    return DrFactor(0, 1, delta, info)


def test_dr_residual_zero_for_consistent_motion(rng):
    for _ in range(50):
        pose_from = random_pose(rng, rot_scale=2.0)
        delta = random_pose(rng, rot_scale=2.0)
        pose_to = compose(pose_from, delta)
        r, _, _ = dr_residual(make_dr_factor(delta), pose_from, pose_to)
        assert np.linalg.norm(r.as_vector()) < 1e-9


def test_dr_residual_identity_delta():
    p = Pose.identity()
    r, _, _ = dr_residual(make_dr_factor(Pose.identity()), p, p)
    assert np.allclose(r.as_vector(), 0, atol=1e-15)


def test_dr_jacobians_match_finite_differences(rng):
    for _ in range(100):
        pose_from = random_pose(rng, rot_scale=1.0)
        pose_to = random_pose(rng, rot_scale=1.0)
        delta = random_pose(rng, rot_scale=1.0)
        factor = make_dr_factor(delta)
        _, j_from, j_to = dr_residual(factor, pose_from, pose_to)

        def r_of_from(d):
            p = compose(pose_from, exp_se3_vec(d))
            return dr_residual(factor, p, pose_to)[0].as_vector()

        def r_of_to(d):
            p = compose(pose_to, exp_se3_vec(d))
            return dr_residual(factor, pose_from, p)[0].as_vector()

        assert rel_err(j_from, fd_jacobian(r_of_from, 6)) < FD_RTOL
        assert rel_err(j_to, fd_jacobian(r_of_to, 6)) < FD_RTOL


def test_dr_residual_near_pi_propagates():
    half_turn = exp_se3(Twist(np.zeros(3), np.array([0.0, 0.0, np.pi - 1e-9])))
    factor = make_dr_factor(Pose.identity())
    with pytest.raises(AngleNearPi):
        dr_residual(factor, Pose.identity(), half_turn)


def test_huber_weight():
    _, w = huber(np.array([0.0, 2.0, 4.0]), 2.0)
    assert w[0] == 1.0
    assert w[1] == 1.0
    assert w[2] == pytest.approx(0.5)


def test_huber_cost_continuous_and_monotone():
    k = 1.345
    ns = np.linspace(0, 10, 2001)
    costs, _ = huber(ns, k)
    assert np.all(np.diff(costs) >= 0)
    jumps = np.abs(np.diff(costs))
    assert jumps.max() < 0.1  # no discontinuity at the threshold


# Whitening: the solver left-multiplies DR residuals and Jacobians by U.

def test_whiten_identity_information(rng):
    u = information_sqrt(np.eye(2))
    r = rng.normal(size=2)
    j = rng.normal(size=(2, 6))
    assert np.allclose(u @ r, r)
    assert np.allclose(u @ j, j)


def test_whiten_diagonal_scales_rows():
    u = information_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(u @ np.array([1.0, 1.0]), [2.0, 3.0])
    jw = u @ np.ones((2, 3))
    assert np.allclose(jw[0], 2.0)
    assert np.allclose(jw[1], 3.0)


def test_whiten_preserves_mahalanobis_norm(rng):
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        info = a @ a.T + 6 * np.eye(6)
        u = information_sqrt(info)
        assert np.allclose(u, np.triu(u))
        r = rng.normal(size=6)
        rw = u @ r
        assert abs(rw @ rw - r @ info @ r) < 1e-12 * max(1.0, abs(r @ info @ r))


def test_whiten_rejects_indefinite():
    info = np.diag([1.0, -1.0])
    with pytest.raises(NotPositiveDefinite):
        information_sqrt(info)


def test_dr_factor_validates_information():
    bad = np.eye(6)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        DrFactor(0, 1, Pose.identity(), bad)
