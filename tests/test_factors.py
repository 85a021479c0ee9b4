import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import adjoint, edge_residuals, edge_jacobians, edge_residual, random_pose
from drslam import optimizer
from drslam.factors import (
    dr_fold,
    dr_jacobians,
    huber,
    reprojection_jacobians,
    reprojection_residuals,
)
from drslam.geometry import (
    NEAR_PI,
    SMALL_ANGLE,
    CameraIntrinsics,
    Pose,
    Z_MIN,
    compose,
    exp_se3,
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
    _, r = reprojection_residuals(K, pose.rotation_matrix, pose.t, landmark[None], observed[None])
    return r[0]


def test_reprojection_residual_zero_for_consistent_geometry(rng):
    for _ in range(20):
        pose = random_pose(rng)
        lms = np.array([in_view_landmark(rng, pose) for _ in range(5)])
        obs = np.array([project_world(pose, lm) for lm in lms])
        y, r = reprojection_residuals(K, pose.rotation_matrix, pose.t, lms, obs)
        assert np.allclose(r, 0, atol=1e-9)
        assert np.allclose(y, [transform_point(inverse(pose), lm) for lm in lms], atol=1e-12)


def test_reprojection_behind_camera_clamps_to_near_plane():
    pose = Pose.identity()
    points = np.array([[0.1, 0.0, -1.0], [0.1, 0.0, 2.0]])
    obs = np.array([[320.0, 240.0], [345.0, 240.0]])
    y, r = reprojection_residuals(K, pose.rotation_matrix, pose.t, points, obs)
    assert y[0, 2] == -1.0
    # projected at depth Z_MIN: a large, finite residual instead of a raise
    assert np.allclose(r[0], [320.0 - (K.fx * 0.1 / Z_MIN + K.cx), 0.0])
    assert np.allclose(r[1], 0.0)


def test_reprojection_jacobians_match_finite_differences(rng):
    for _ in range(100):
        pose = random_pose(rng)
        lm = in_view_landmark(rng, pose)
        obs = project_world(pose, lm) + rng.normal(scale=2.0, size=2)
        y, _ = reprojection_residuals(K, pose.rotation_matrix, pose.t, lm[None], obs[None])
        j_pose, j_lm = (j[0] for j in reprojection_jacobians(K, y, pose.rotation_matrix))

        def r_of_pose(d):
            return residual_of(compose(pose, exp_se3(d)), lm, obs)

        def r_of_lm(d):
            return residual_of(pose, lm + d, obs)

        assert rel_err(j_pose, fd_jacobian(r_of_pose, 6)) < FD_RTOL
        assert rel_err(j_lm, fd_jacobian(r_of_lm, 3)) < FD_RTOL


def test_reprojection_rows_with_own_poses_match_one_call_per_pose(rng):
    # one call over the rows of three poses, each row with its own pose's
    # rotation and translation, gives each pose's rows the bits of one call
    # with that pose for every row
    poses = [random_pose(rng) for _ in range(3)]
    slot = rng.integers(0, 3, size=40)
    points = np.array([in_view_landmark(rng, poses[s]) for s in slot])
    obs = rng.uniform(0, 480, size=(40, 2))
    rotations = np.array([p.rotation_matrix for p in poses])[slot]
    y, r = reprojection_residuals(K, rotations, np.array([p.t for p in poses])[slot], points, obs)
    j_pose, j_lm = reprojection_jacobians(K, y, rotations)
    for s, pose in enumerate(poses):
        rows = slot == s
        y_s, r_s = reprojection_residuals(K, pose.rotation_matrix, pose.t, points[rows], obs[rows])
        jp_s, jl_s = reprojection_jacobians(K, y_s, pose.rotation_matrix)
        for got, want in ((y, y_s), (r, r_s), (j_pose, jp_s), (j_lm, jl_s)):
            assert got[rows].tobytes() == want.tobytes()


def test_dr_residual_zero_for_consistent_motion(rng):
    pose_from, delta = [], []
    for _ in range(50):
        pose_from.append(random_pose(rng, rot_scale=2.0))
        delta.append(random_pose(rng, rot_scale=2.0))
    pose_to = [compose(a, d) for a, d in zip(pose_from, delta)]
    r, near_pi, _, _ = edge_residuals(pose_from, pose_to, delta)
    assert not near_pi.any()
    assert np.max(np.linalg.norm(r, axis=1)) < 1e-9


def test_dr_residual_identity_delta():
    p = Pose.identity()
    assert np.allclose(edge_residual(p, p, Pose.identity()), 0, atol=1e-15)


def test_dr_jacobians_match_finite_differences(rng):
    for _ in range(100):
        pose_from = random_pose(rng, rot_scale=1.0)
        pose_to = random_pose(rng, rot_scale=1.0)
        delta = random_pose(rng, rot_scale=1.0)
        j_from, j_to = edge_jacobians(pose_from, pose_to, delta)

        def r_of_from(d):
            return edge_residual(compose(pose_from, exp_se3(d)), pose_to, delta)

        def r_of_to(d):
            return edge_residual(pose_from, compose(pose_to, exp_se3(d)), delta)

        assert rel_err(j_from, fd_jacobian(r_of_from, 6)) < FD_RTOL
        assert rel_err(j_to, fd_jacobian(r_of_to, 6)) < FD_RTOL


def test_dr_residual_near_pi_flagged_and_saturated():
    half_turn = exp_se3(np.array([0.3, 0.0, 0.0, 0.0, 0.0, np.pi - 1e-9]))
    quarter_turn = exp_se3(np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2]))
    ident = Pose.identity()
    r, near_pi, _, _ = edge_residuals([ident, ident], [half_turn, quarter_turn], [ident, ident])
    assert near_pi.tolist() == [True, False]
    # the rotation is clamped just below pi about the same axis
    assert np.allclose(r[0, 3:], [0.0, 0.0, NEAR_PI], atol=1e-12)
    assert np.all(np.isfinite(r))
    assert np.allclose(r[1, 3:], [0.0, 0.0, np.pi / 2], atol=1e-12)


def test_dr_jacobians_skip_fixed_sides(rng):
    pose_from = [random_pose(rng) for _ in range(4)]
    pose_to = [random_pose(rng) for _ in range(4)]
    delta = [random_pose(rng) for _ in range(4)]
    r, _, theta, c = edge_residuals(pose_from, pose_to, delta)
    ad = np.array([adjoint(inverse(d)) for d in delta])
    all_from, all_to = dr_jacobians(r, theta, c, ad)
    j_from, j_to = dr_jacobians(r, theta, c, ad, np.array([0, 2]), np.array([1, 2, 3]))
    assert j_from.shape == (2, 6, 6) and j_to.shape == (3, 6, 6)
    assert np.allclose(j_from, all_from[[0, 2]], rtol=0, atol=1e-15)
    assert np.allclose(j_to, all_to[[1, 2, 3]], rtol=0, atol=1e-15)


# Property tests of the batched DR kernel.

def twists(max_angle):
    """(6,) twists (rho, phi) with |rho| <= 2 m and 0 <= |phi| <= max_angle."""
    return st.tuples(arrays(float, 3, elements=st.floats(-2, 2)),
                     arrays(float, 3, elements=st.floats(-1, 1)).filter(
                         lambda a: np.linalg.norm(a) > 1e-3),
                     st.floats(0, max_angle)).map(
        lambda v: np.concatenate([v[0], v[1] / np.linalg.norm(v[1]) * v[2]]))


def edges(max_angle=3.0):
    """(from, to, delta) as Poses."""
    return st.tuples(twists(max_angle), twists(max_angle), twists(max_angle)).map(
        lambda v: tuple(exp_se3(x) for x in v))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(edges(), min_size=1, max_size=8))
def test_dr_batch_equals_one_edge_calls(batch):
    pose_from, pose_to, delta = zip(*batch)
    r, near_pi, theta, c = edge_residuals(pose_from, pose_to, delta)
    ad = np.array([adjoint(inverse(d)) for d in delta])
    j_from, j_to = dr_jacobians(r, theta, c, ad)
    for e, edge in enumerate(batch):
        r1, near1, theta1, c1 = edge_residuals(*([x] for x in edge))
        jf1, jt1 = dr_jacobians(r1, theta1, c1, ad[e:e + 1])
        assert near1[0] == near_pi[e]
        assert np.allclose(r1[0], r[e], rtol=0, atol=1e-14)
        assert np.allclose(jf1[0], j_from[e], rtol=0, atol=1e-14 * max(1.0, np.abs(jf1).max()))
        assert np.allclose(jt1[0], j_to[e], rtol=0, atol=1e-14 * max(1.0, np.abs(jt1).max()))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(twists(3.0), twists(3.0))
def test_dr_residual_zero_for_consistent_motion_property(from_twist, delta_twist):
    pose_from, delta = exp_se3(from_twist), exp_se3(delta_twist)
    r = edge_residual(pose_from, compose(pose_from, delta), delta)
    assert np.linalg.norm(r) < 1e-9


@settings(max_examples=50, deadline=None, derandomize=True)
@given(twists(3.0), arrays(float, 3, elements=st.floats(-2, 2)),
       arrays(float, 3, elements=st.floats(-1, 1)).filter(lambda a: np.linalg.norm(a) > 1e-3),
       st.floats(0.0, 1e-7))
def test_dr_residual_near_pi_flagged_property(from_twist, rho, axis, gap):
    # an error rotation within 1e-6 of pi about a random axis
    pose_from = exp_se3(from_twist)
    err = exp_se3(np.concatenate([rho, axis / np.linalg.norm(axis) * (np.pi - gap)]))
    r, near_pi, _, _ = edge_residuals([pose_from], [compose(pose_from, err)], [Pose.identity()])
    assert near_pi[0]
    assert np.all(np.isfinite(r))
    assert np.linalg.norm(r[0, 3:]) == pytest.approx(NEAR_PI, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(twists(2.5), twists(2.5), twists(2.5), st.booleans())
def test_dr_jacobians_match_finite_differences_property(from_twist, to_twist, delta_twist,
                                                        small_angle):
    pose_from, delta = exp_se3(from_twist), exp_se3(delta_twist)
    if small_angle:
        # error rotation below the Taylor cutoff: |phi| < 1e-3
        err = np.concatenate([to_twist[:3], to_twist[3:] * 2e-4])
        pose_to = compose(compose(pose_from, delta), exp_se3(err))
    else:
        pose_to = exp_se3(to_twist)
    r = edge_residual(pose_from, pose_to, delta)
    theta = np.linalg.norm(r[3:])
    if small_angle:
        assert theta < SMALL_ANGLE
    if theta > NEAR_PI - 1e-3:
        return   # finite differences would straddle the log's domain edge
    j_from, j_to = edge_jacobians(pose_from, pose_to, delta)

    def r_of_from(d):
        return edge_residual(compose(pose_from, exp_se3(d)), pose_to, delta)

    def r_of_to(d):
        return edge_residual(pose_from, compose(pose_to, exp_se3(d)), delta)

    assert rel_err(j_from, fd_jacobian(r_of_from, 6)) < FD_RTOL
    assert rel_err(j_to, fd_jacobian(r_of_to, 6)) < FD_RTOL


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


def _whiten_edge(rng, precision):
    """Raw and whitened residual and Jacobians of one random DR edge under the
    solver's whitening by the square root of each precision entry."""
    a, b = random_pose(rng), random_pose(rng)
    delta_inv = inverse(random_pose(rng, rot_scale=0.3))
    ad = adjoint(delta_inv)[None]
    sqrt_p = np.sqrt(np.asarray(precision, dtype=float))[None]
    left = dr_fold(a.q[None], a.t[None], delta_inv.q[None], delta_inv.t[None])
    log, rw, cost = optimizer._dr_whitened_residuals(*left, b.q[None], b.t[None], sqrt_p)
    jw_from, jw_to = optimizer._dr_whitened_jacobians(log, ad, sqrt_p, slice(None), slice(None))
    r, _, theta, c = log
    j_from, j_to = dr_jacobians(r, theta, c, ad)
    return (r[0], j_from[0], j_to[0]), (rw[0], jw_from[0], jw_to[0]), cost


def test_whiten_identity_information(rng):
    raw, whitened, _ = _whiten_edge(rng, np.ones(6))
    for w, x in zip(whitened, raw):
        assert np.array_equal(w, x)


def test_whiten_diagonal_scales_rows(rng):
    scale = np.array([2.0, 3.0, 0.5, 1.0, 10.0, 0.1])
    raw, whitened, _ = _whiten_edge(rng, scale ** 2)
    r, j_from, j_to = raw
    rw, jw_from, jw_to = whitened
    assert np.allclose(rw, scale * r)
    assert np.allclose(jw_from, scale[:, None] * j_from)
    assert np.allclose(jw_to, scale[:, None] * j_to)


def test_whiten_preserves_mahalanobis_norm(rng):
    for _ in range(50):
        p = 10.0 ** rng.uniform(-3, 7, size=6)
        (r, _, _), (rw, _, _), cost = _whiten_edge(rng, p)
        mahalanobis = r @ np.diag(p) @ r
        assert abs(rw @ rw - mahalanobis) <= 1e-12 * max(1.0, mahalanobis)
        assert cost == pytest.approx(0.5 * mahalanobis, rel=1e-12)
