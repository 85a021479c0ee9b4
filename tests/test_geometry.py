import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from conftest import random_pose, random_twist
from drslam.errors import AngleNearPi, BehindCamera
from drslam.geometry import (
    NEAR_PI,
    SMALL_ANGLE,
    CameraIntrinsics,
    Pose,
    Z_MIN,
    back_project,
    compose,
    exp_se3,
    hat,
    inverse,
    log_se3,
    project,
    project_points,
    quat_to_rotation,
    se3_adjoint,
    se3_compose,
    se3_exp,
    se3_inverse,
    se3_log,
    transform_point,
)


def se3_matrix_exp(xi: np.ndarray) -> np.ndarray:
    """Independent oracle: 4x4 matrix exponential by scaling and squaring."""
    m = np.zeros((4, 4))
    m[:3, :3] = hat(xi[3:])
    m[:3, 3] = xi[:3]
    return expm(m)


def test_exp_zero_twist_is_identity():
    p = exp_se3(np.zeros(6))
    assert np.allclose(p.q, [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(p.t, 0, atol=1e-15)


def test_exp_pure_rotation_about_z():
    p = exp_se3(np.array([0, 0, 0, 0, 0, math.pi / 2]))
    assert np.allclose(p.t, 0, atol=1e-12)
    R = p.rotation_matrix
    assert np.allclose(R @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-12)


def test_exp_matches_matrix_exponential(rng):
    for _ in range(50):
        xi = random_twist(rng, rot_scale=0.3)
        T = exp_se3(xi).matrix()
        assert np.allclose(T, se3_matrix_exp(xi), atol=1e-9)


def test_exp_translation_matches_matrix_exponential(rng):
    # the ratios (1 - cos t)/t^2 and (t - sin t)/t^3 take their series below
    # SMALL_ANGLE, where their closed forms cancel
    for angle in np.concatenate([[0.0], np.geomspace(1e-9, 3.0, 300)]):
        for _ in range(5):
            axis = rng.normal(size=3)
            xi = np.concatenate([rng.uniform(-2, 2, size=3), axis / np.linalg.norm(axis) * angle])
            assert np.max(np.abs(exp_se3(xi).t - se3_matrix_exp(xi)[:3, 3])) <= 1e-12


def test_log_exp_round_trip(rng):
    for scale in (1e-9, 1e-7, 1e-4, 0.3, 1.5, 3.0):
        for _ in range(20):
            phi = rng.normal(size=3)
            phi = phi / np.linalg.norm(phi) * scale
            xi = np.concatenate([rng.normal(size=3), phi])
            back = log_se3(exp_se3(xi))
            assert np.linalg.norm(back - xi) < 1e-9


def test_log_identity_is_zero():
    assert np.allclose(log_se3(Pose.identity()), 0, atol=1e-15)


def test_log_raises_near_pi():
    phi = np.array([0, 0, math.pi - 1e-9])
    p = exp_se3(np.concatenate([np.zeros(3), phi]))
    with pytest.raises(AngleNearPi):
        log_se3(p)


def twists_at_angle(low, high):
    """(6,) twists with |rho| <= 2 m and a rotation angle in [low, high]."""
    return st.tuples(arrays(float, 3, elements=st.floats(-2, 2)),
                     arrays(float, 3, elements=st.floats(-1, 1)).filter(
                         lambda a: np.linalg.norm(a) > 1e-3),
                     st.floats(low, high)).map(
        lambda v: np.concatenate([v[0], v[1] / np.linalg.norm(v[1]) * v[2]]))


def assert_round_trip(xi: np.ndarray, atol: float):
    assert np.max(np.abs(log_se3(exp_se3(xi)) - xi)) <= atol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twists_at_angle(0.0, 0.999 * SMALL_ANGLE))
def test_exp_log_round_trip_small_angle_branch(xi):
    # below SMALL_ANGLE exp_se3 takes the Taylor series of its ratios
    assert_round_trip(xi, 1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twists_at_angle(SMALL_ANGLE, 3.0))
def test_exp_log_round_trip_generic_branch(xi):
    # the V^-1 coefficient of log_se3 takes the half-angle form
    # (1 - (t/2) cot(t/2))/t^2, which loses about 1e-9 of its value just above
    # SMALL_ANGLE, where its factor phi x (phi x t) is about 1e-6 |t|
    assert_round_trip(xi, 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twists_at_angle(math.pi - 1e-3, NEAR_PI - 1e-9))
def test_exp_log_round_trip_just_below_near_pi_cut(xi):
    assert_round_trip(xi, 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twists_at_angle(NEAR_PI + 1e-9, math.pi))
def test_log_raises_angle_near_pi_at_the_cut(xi):
    with pytest.raises(AngleNearPi):
        log_se3(exp_se3(xi))


def test_pose_copies_its_quaternion():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    p = Pose(q, np.zeros(3))
    q[:] = [0.0, 1.0, 0.0, 0.0]
    assert p.q.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(p.rotation_matrix, np.eye(3))


def twist_rows():
    """(6,) twist rows (rho, phi), small angles as often as angles up to pi."""
    return st.one_of(twists_at_angle(0.0, 2 * SMALL_ANGLE), twists_at_angle(0.0, math.pi))


def assert_rows_equal(batch, one_row_call):
    """Each output of a batched kernel equals, row by row and bit for bit, the
    kernel's output on a one-row copy of the input rows."""
    for i in range(len(batch[0])):
        for got, want in zip(batch, one_row_call(i)):
            assert got[i].tobytes() == want[0].tobytes()


def row(x: np.ndarray, i: int) -> np.ndarray:
    return x[i:i + 1].copy()


def rotation_of(q) -> np.ndarray:
    return np.reshape(quat_to_rotation(q), (3, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(twist_rows(), twist_rows()), min_size=1, max_size=8))
def test_camera_kernels_equal_one_row_calls(pairs):
    # the camera kernels, each row under its own pose and all rows under one
    poses = [se3_exp(a.tolist()) + se3_exp(b.tolist()) for a, b in pairs]
    ra = np.array([rotation_of(q) for q, _, _, _ in poses])
    ta = np.array([t for _, t, _, _ in poses])
    tb = np.array([t for _, _, _, t in poses])
    uv, depth = tb[:, :2] * 100.0 + [320.0, 240.0], np.abs(tb[:, 2]) + Z_MIN
    assert_rows_equal(project_points(INTRINSICS, ra, ta, tb),
                      lambda i: project_points(INTRINSICS, row(ra, i), row(ta, i), row(tb, i)))
    assert_rows_equal(project_points(INTRINSICS, ra[0], ta[0], tb),
                      lambda i: project_points(INTRINSICS, ra[0], ta[0], row(tb, i)))
    assert_rows_equal((back_project(INTRINSICS, ra, ta, uv, depth),),
                      lambda i: (back_project(INTRINSICS, row(ra, i), row(ta, i), row(uv, i),
                                              row(depth, i)),))
    assert_rows_equal((back_project(INTRINSICS, ra[0], ta[0], uv, depth),),
                      lambda i: (back_project(INTRINSICS, ra[0], ta[0], row(uv, i),
                                              row(depth, i)),))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twist_rows(), twist_rows())
def test_compose_with_the_left_rotation_given_equals_forming_it(xa, xb):
    qa, ta = se3_exp(xa.tolist())
    qb, tb = se3_exp(xb.tolist())
    assert se3_compose(qa, ta, qb, tb, quat_to_rotation(qa)) == se3_compose(qa, ta, qb, tb)
    # the inverse's rotation is the transpose of the pose's, bit for bit
    assert rotation_of(se3_inverse(qa, ta)[0]).tobytes() == rotation_of(qa).T.copy().tobytes()
    assert se3_inverse(qa, ta)[2] == quat_to_rotation(se3_inverse(qa, ta)[0])


def test_adjoint_moves_a_twist_through_the_pose(rng):
    # exp(Ad_P xi) = P exp(xi) P^-1, as 4x4 matrices
    for _ in range(50):
        p, xi = random_pose(rng, rot_scale=2.5), random_twist(rng, rot_scale=0.5)
        blocks = se3_adjoint(p.q.tolist(), p.t.tolist())
        rotation, top_right = (np.reshape(b, (3, 3)) for b in blocks)
        moved = np.concatenate([rotation @ xi[:3] + top_right @ xi[3:], rotation @ xi[3:]])
        want = p.matrix() @ se3_matrix_exp(xi) @ np.linalg.inv(p.matrix())
        assert np.allclose(se3_matrix_exp(moved), want, atol=1e-12)


@pytest.mark.parametrize("entry, bad", [(4, math.inf), (4, -math.inf), (4, math.nan),
                                        (4, 1e200), (0, math.inf), (0, math.nan)],
                         ids=["phi-inf", "phi-minus-inf", "phi-nan", "phi-overflow", "rho-inf",
                              "rho-nan"])
def test_non_finite_input_gives_nan_not_an_exception(entry, bad):
    # math.cos raises on inf where np.cos gives NaN; a non-finite or
    # overflowing twist, as a singular system's step can be, ends as NaN
    xi = [0.1, -0.2, 0.3, 0.01, 0.02, -0.03]
    xi[entry] = bad
    q, t = se3_exp(xi)
    if entry >= 3:
        assert all(math.isnan(x) for x in q + t)
    else:
        assert all(math.isfinite(x) for x in q) and not all(math.isfinite(x) for x in t)
    twist, near_pi, _, _ = se3_log(q, t)
    assert not near_pi and not all(math.isfinite(x) for x in twist)
    assert not all(math.isfinite(x) for x in se3_compose(q, t, q, t)[1])
    assert not np.all(np.isfinite(log_se3(exp_se3(np.array(xi)))))


def test_compose_identity_and_inverse(rng):
    ident = Pose.identity()
    for _ in range(20):
        p = random_pose(rng)
        q = compose(p, ident)
        assert np.allclose(q.matrix(), p.matrix(), atol=1e-14)
        e = compose(p, inverse(p))
        assert np.allclose(e.t, 0, atol=1e-9)
        assert e.rotation_angle() < 1e-9


def test_compose_matches_matrix_product(rng):
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose(compose(a, b).matrix(), a.matrix() @ b.matrix(), atol=1e-12)


def test_inverse_matches_matrix_inverse(rng):
    for _ in range(50):
        p = random_pose(rng)
        assert np.allclose(inverse(p).matrix(), np.linalg.inv(p.matrix()), atol=1e-12)
        pp = inverse(inverse(p))
        assert np.allclose(pp.matrix(), p.matrix(), atol=1e-12)


def test_transform_point(rng):
    assert np.allclose(transform_point(Pose.identity(), [1, 2, 3]), [1, 2, 3])
    shift = Pose(np.array([1.0, 0, 0, 0]), np.array([4.0, 5.0, 6.0]))
    assert np.allclose(transform_point(shift, np.zeros(3)), [4, 5, 6])
    for _ in range(20):
        p = random_pose(rng)
        x = rng.normal(size=3)
        oracle = (p.matrix() @ np.append(x, 1.0))[:3]
        assert np.allclose(transform_point(p, x), oracle, atol=1e-12)


def test_group_axioms(rng):
    ident = Pose.identity()
    for _ in range(1000):
        a, b, c = (random_pose(rng, rot_scale=2.5) for _ in range(3))
        lhs = compose(compose(a, b), c).matrix()
        rhs = compose(a, compose(b, c)).matrix()
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(compose(a, ident).matrix(), a.matrix(), atol=1e-12)
        assert np.allclose(compose(a, inverse(a)).matrix(), np.eye(4), atol=1e-12)


def test_quaternion_stays_normalized(rng):
    p = random_pose(rng)
    for _ in range(500):
        p = compose(p, random_pose(rng, rot_scale=1.0))
    assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9
    assert p.q[0] >= 0


INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def test_project_principal_axis():
    assert np.allclose(project(INTRINSICS, np.array([0, 0, 2.0])), [320, 240])


def test_project_formula():
    assert np.allclose(project(INTRINSICS, np.array([1.0, 0, 1.0])), [820, 240])


def test_project_behind_camera():
    with pytest.raises(BehindCamera):
        project(INTRINSICS, np.array([0, 0, 0.01]))


def test_project_invariant_under_identity_precomposition(rng):
    for _ in range(20):
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 5)])
        direct = project(INTRINSICS, x)
        via = project(INTRINSICS, transform_point(Pose.identity(), x))
        assert np.allclose(direct, via, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(twist_rows(), st.lists(st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0),
                                        st.floats(0.1, 100.0)), min_size=1, max_size=8))
def test_back_projection_then_projection_returns_the_pixels(xi, pixels):
    # back-project pixels at their depths through a pose, project the points
    # back through the same pose: the pixels again, up to rounding
    q, t = se3_exp(xi.tolist())
    rotation, t = rotation_of(q), np.array(t)
    uv, depth = np.array(pixels)[:, :2], np.array(pixels)[:, 2]
    y, back = project_points(INTRINSICS, rotation, t,
                             back_project(INTRINSICS, rotation, t, uv, depth))
    assert np.max(np.abs(back - uv)) <= 1e-9
    assert np.max(np.abs(y[:, 2] - depth)) <= 1e-9


def test_intrinsics_validation():
    for fx, fy in ((-1, 500), (float("nan"), 500), (500, float("inf"))):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=fx, fy=fy, cx=320, cy=240, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500, fy=500, cx=700, cy=240, width=640, height=480)
