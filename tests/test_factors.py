import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (CAMERA, dr_edge, edge_jacobians, edge_residual, edge_residuals,
                      random_pose, to_jacobian_at_minus_r)
from drslam import factors, geometry, optimizer
from drslam.factors import (
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
    hat,
    inverse,
    project,
    se3_adjoint,
    transform_point,
    v_inverse_coefficient,
)
from drslam.optimizer import Problem, _Linearizer

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


def disjoint_edges_problem(edges, fixed, precisions):
    """A Problem of DR edges (from, to, delta) between poses of their own,
    2e and 2e + 1 for edge e, with the (from, to) fixed flags and the
    precisions (6,) of each edge."""
    problem = Problem(intrinsics=CAMERA)
    for e, ((pose_from, pose_to, delta), sides, precision) in enumerate(
            zip(edges, fixed, precisions)):
        problem.add_poses([2 * e, 2 * e + 1], [pose_from, pose_to], list(sides))
        problem.add_dr_edges(2 * e, 2 * e + 1, [delta], precision)
    return problem


def test_dr_jacobians_skip_fixed_sides(rng, monkeypatch):
    # the linearizer makes one dr_jacobians call per edge with a free side,
    # which forms the Jacobian of each free side only, and the system holds
    # J^T J and J^T r of the free sides, as a direct product of the edge's
    # Jacobians gives them
    edges = [(random_pose(rng), random_pose(rng), random_pose(rng)) for _ in range(4)]
    fixed = [(True, False), (False, True), (False, False), (True, True)]
    formed = []

    def counted(*args):
        sides = dr_jacobians(*args)
        formed.append(tuple(j is not None for j in sides))
        return sides
    monkeypatch.setattr(optimizer, "dr_jacobians", counted)
    lin = _Linearizer(disjoint_edges_problem(edges, fixed, [np.ones(6)] * 4))
    neq = lin.linearize(lin.point, lin.residuals(lin.point)[1])
    assert formed == [(False, True), (True, False), (True, True)]
    assert neq.n_pose_free == 4
    column = 0
    for (pose_from, pose_to, delta), sides in zip(edges[:3], fixed):
        j = np.hstack([jac for jac, side in zip(edge_jacobians(pose_from, pose_to, delta), sides)
                       if not side])
        span = slice(column, column + j.shape[1])
        assert np.allclose(neq.Hpp[span, span], j.T @ j, rtol=0, atol=1e-12)
        assert np.allclose(neq.bp[span], -j.T @ edge_residual(pose_from, pose_to, delta),
                           rtol=0, atol=1e-12)
        column += j.shape[1]


# Property tests of the DR kernel.

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
@given(st.lists(st.tuples(edges(), st.sampled_from([(False, False), (True, False), (False, True)]),
                          arrays(float, 6, elements=st.floats(1e-3, 1e6))),
                min_size=1, max_size=8))
def test_dr_batch_equals_one_edge_calls(batch):
    # a Problem of several DR edges gives each edge's whitened residual and
    # normal-equation blocks the bits of a Problem of that edge alone, and
    # its cost the bits of their costs summed in edge order
    def linearized(items):
        lin = _Linearizer(disjoint_edges_problem(*zip(*items)))
        cost, cache = lin.residuals(lin.point)
        return cost, cache[2], lin.linearize(lin.point, cache)
    cost, dr, neq = linearized(batch)
    column, summed = 0, 0.0
    for e, edge in enumerate(batch):
        cost1, (dr1,), neq1 = linearized([edge])
        summed += cost1
        (r, near_pi, theta, c), rw = dr[e]
        assert (np.array(r).tobytes(), near_pi, theta, c, np.array(rw).tobytes()) == (
            np.array(dr1[0][0]).tobytes(), *dr1[0][1:], np.array(dr1[1]).tobytes())
        span = slice(column, column + len(neq1.bp))
        assert neq.Hpp[span, span].tobytes() == neq1.Hpp.tobytes()
        assert neq.bp[span].tobytes() == neq1.bp.tobytes()
        column += len(neq1.bp)
    assert column == len(neq.bp)
    assert np.float64(cost).tobytes() == np.float64(summed).tobytes()


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


@pytest.mark.parametrize("axis", range(3))
def test_dr_jacobians_agree_across_the_series_cut(rng, axis):
    # below SMALL_ANGLE the angle coefficients of Q take their series, which
    # must continue the closed forms: the Jacobians at error angles
    # SMALL_ANGLE (1 - 1e-9) and SMALL_ANGLE (1 + 1e-9) about one axis, with
    # the same rho, agree to 1e-9 of their size (a series of the wrong sign
    # parts them by about 1.5e-7)
    for _ in range(10):
        rho = rng.uniform(-2.0, 2.0, size=3)
        adjoint = se3_adjoint(random_pose(rng).q.tolist(), rng.normal(size=3).tolist())
        sides = []
        for angle in (SMALL_ANGLE * (1.0 - 1e-9), SMALL_ANGLE * (1.0 + 1e-9)):
            r = [*rho, 0.0, 0.0, 0.0]
            r[3 + axis] = angle
            c = v_inverse_coefficient(angle)
            log = (r, False, angle, c)
            sides.append(np.array(dr_jacobians(log, adjoint, True)))
        below, above = sides
        for j_below, j_above in zip(below, above):
            assert np.max(np.abs(j_above - j_below)) <= 1e-9 * np.max(np.abs(j_below))


@pytest.mark.parametrize("angle", [1e-9, 1e-6, SMALL_ANGLE * (1.0 - 1e-9), SMALL_ANGLE,
                                   SMALL_ANGLE * (1.0 + 1e-9), 1e-2, 0.5, 2.0, 3.1])
def test_dr_to_side_from_the_transposes_equals_the_jacobian_at_minus_r(rng, angle):
    # the to side, formed from J and Q at r transposed, has the bits of
    # Jl^-1(-r) formed at -r, below and above the series cut alike; a call
    # without Ad(delta^-1) forms no from side
    for _ in range(20):
        axis = rng.normal(size=3)
        r = [*rng.uniform(-2.0, 2.0, size=3), *(axis / np.linalg.norm(axis) * angle)]
        log = (r, False, angle, v_inverse_coefficient(angle))
        j_from, j_to = dr_jacobians(log, None, True)
        assert j_from is None
        assert np.array(j_to).tobytes() == np.array(to_jacobian_at_minus_r(log)).tobytes()


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
    a, b, delta = random_pose(rng), random_pose(rng), random_pose(rng, rot_scale=0.3)
    edges, dr, cost = dr_edge(a, b, delta, np.asarray(precision, dtype=float))
    ((log, rw),) = dr
    (jw_from, jw_to), _ = edges.whitened_jacobians(dr)
    return (np.array(log[0]), *edge_jacobians(a, b, delta)), (np.array(rw), jw_from, jw_to), cost


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


def test_visual_row_kernels_give_the_bytes_of_their_textbook_formulas(rng):
    # each kernel against the formula it replaces, on random rows with one
    # point behind the near plane (its depth is clamped): np.stack of the
    # pixel columns, np.linalg.norm, np.where over the Huber branches and
    # np.concatenate of the Jacobian's halves
    for n in (1, 5, 60, 1000):
        points = rng.normal(size=(n, 3)) * 2.0 + [0.0, 0.0, 4.0]
        points[0] = [0.2, -0.1, -1.0]
        rotations = np.array([random_pose(rng, rot_scale=0.3).rotation_matrix for _ in range(n)])
        translations = rng.normal(scale=0.3, size=(n, 3))
        for rotation, translation in ((rotations[0], translations[0]), (rotations, translations)):
            y, uv = geometry.project_points(K, rotation, translation, points)
            z = np.maximum(y[:, 2], Z_MIN)
            want = np.stack([K.fx * y[:, 0] / z + K.cx, K.fy * y[:, 1] / z + K.cy], axis=1)
            assert uv.tobytes() == want.tobytes()
        observed = uv + rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-6, 3, size=(n, 1))
        cost, (_, rw, weights) = optimizer._visual_residuals(K, rotations, translations, points,
                                                             observed, 0.7, 2.0)
        norms = np.linalg.norm(rw, axis=1)
        inside = norms <= 2.0
        assert weights.tobytes() == np.where(inside, 1.0, 2.0 / norms).tobytes()
        assert cost == float(np.sum(np.where(inside, 0.5 * norms ** 2, 2.0 * (norms - 1.0))))
        for threshold in (np.inf, float(np.median(norms))):
            inside = norms <= threshold
            want = (np.where(inside, 0.5 * norms ** 2, threshold * (norms - 0.5 * threshold)),
                    np.where(inside, 1.0, threshold / np.maximum(norms, 1e-300)))
            for got, expected in zip(huber(norms, threshold), want):
                assert got.tobytes() == expected.tobytes()
        for rotation in (None, rotations):
            j_pose, j_lm = reprojection_jacobians(K, y, rotation)
            jpi = j_pose[:, :, :3]
            assert j_pose.tobytes() == np.concatenate([jpi, -(jpi @ hat(y))], axis=2).tobytes()
            assert (j_lm is None) == (rotation is None)
    for norm in (0.5, 3.0):     # a scalar norm, inside and outside the threshold
        cost, weight = huber(norm, 2.0)
        assert (float(cost), float(weight)) == ((0.125, 1.0) if norm < 2.0 else (4.0, 2.0 / 3.0))


def _coupling_coefficients_exact(t):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        c2 = (1 - t ** 2 / 2 - mpmath.cos(t)) / t ** 4
        return ((t - mpmath.sin(t)) / t ** 3, c2,
                (c2 - 3 * (t - mpmath.sin(t) - t ** 3 / 6) / t ** 5) / 2)


def test_coupling_coefficients_match_fifty_digits_on_both_sides_of_the_cut():
    # c1, c2 and c3 of Q, series below COUPLING_SERIES_CUT and closed forms
    # from it on, within 1e-12 relative of a 50-digit evaluation; the closed
    # forms alone miss by 1.5e-2 at 1e-3 rad
    cut = factors.COUPLING_SERIES_CUT
    angles = [*np.geomspace(1e-6, 3.0, 300), cut * (1.0 - 1e-12), cut, cut * (1.0 + 1e-12),
              0.0, SMALL_ANGLE]
    worst = 0.0
    for t in angles:
        got = geometry.angle_coefficients(t, factors._coupling_closed_form,
                                          factors._coupling_series, cut)
        want = (1.0 / 6.0, -1.0 / 24.0, -1.0 / 120.0) if t == 0.0 else \
            _coupling_coefficients_exact(t)
        worst = max(worst, *(abs(float((g - w) / w)) for g, w in zip(got, want)))
    assert worst <= 1e-12
