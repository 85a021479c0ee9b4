import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import (CAMERA, build_normal_equations, dense_coupling, dense_solve, dense_system,
                      dr_edge, edge_jacobians, edge_residual, edge_residuals, landmark_position,
                      make_ba_problem, motion_only_args, problem_pose, random_pose, set_fixed,
                      set_problem_pose)
from drslam.errors import Diverged, NoConstraints, NotPositiveDefinite, SingularSystem
from drslam.factors import (
    HUBER_PIXEL_SCALE,
    huber,
    reprojection_jacobians,
    reprojection_residuals,
)
from drslam.geometry import (Z_MIN, Pose, compose, exp_se3, inverse, log_se3, project,
                             transform_point)
from drslam import geometry, optimizer
from drslam.optimizer import (
    Problem,
    SolverConfig,
    _Linearizer,
    _levenberg_marquardt,
    min_pose_eigenvalue,
    reprojection_rows,
    schur_solve,
    solve,
    solve_global_ba,
    solve_local_ba,
    solve_motion_only,
)
from drslam.weighting import NominalDrInformation, WeightBounds, dr_weight, scale_information

NOMINAL = NominalDrInformation()
BOUNDS = WeightBounds()


def pose_distance(a: Pose, b: Pose):
    err = log_se3(compose(inverse(a), b))
    return np.linalg.norm(err[:3]), np.linalg.norm(err[3:])


def make_motion_problem(rng, n_obs=50, pixel_noise=0.0, perturb_t=0.05,
                        perturb_r_deg=2.0, with_dr=True, dr_alpha=1.0):
    """One fixed previous pose, one free current pose, fixed landmarks."""
    prev = random_pose(rng, rot_scale=0.3)
    delta = exp_se3(np.array([0.03, 0.0, 0.01, 0.0, 0.01, 0.0]))
    gt = compose(prev, delta)

    problem = Problem(intrinsics=CAMERA, pixel_std=max(pixel_noise, 1.0))
    problem.add_poses(0, prev, fixed=True)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    perturb = np.concatenate([
        rng.normal(size=3) / math.sqrt(3) * perturb_t,
        axis * math.radians(perturb_r_deg),
    ])
    problem.add_poses(1, compose(gt, exp_se3(perturb)), fixed=False)

    for j in range(n_obs):
        u = rng.uniform(60, 580)
        v = rng.uniform(50, 430)
        z = rng.uniform(1.5, 6.0)
        cam = np.array([(u - CAMERA.cx) * z / CAMERA.fx, (v - CAMERA.cy) * z / CAMERA.fy, z])
        lm = transform_point(gt, cam)
        problem.add_landmarks(j, lm, fixed=True)
        obs = project(CAMERA, cam)
        if pixel_noise:
            obs = obs + rng.normal(scale=pixel_noise, size=2)
        problem.add_observations(1, j, obs)
    if with_dr:
        problem.add_dr_edges(0, 1, [delta], scale_information(dr_alpha, NOMINAL))
    return problem, gt, prev, delta


def test_motion_only_recovers_ground_truth(rng):
    problem, gt, _, _ = make_motion_problem(rng, with_dr=False)
    pose, report = solve_motion_only(**motion_only_args(problem))
    dt, dr = pose_distance(pose, gt)
    assert dt < 1e-6
    assert dr < 1e-6
    assert report.final_cost <= report.initial_cost


def test_motion_only_dr_only_returns_prediction(rng):
    problem, _, prev, delta = make_motion_problem(rng, n_obs=0, with_dr=True,
                                                  dr_alpha=dr_weight(0.0, BOUNDS))
    prediction = compose(prev, delta)
    # start away from the optimum; the DR quadratic must pull the pose back
    set_problem_pose(problem, 1, compose(prediction, exp_se3(
        np.array([0.05, -0.03, 0.02, 0.01, -0.02, 0.015]))))
    pose, report = solve_motion_only(**motion_only_args(problem))
    dt, dr = pose_distance(pose, prediction)
    assert dt < 1e-9
    assert dr < 1e-9
    floor = BOUNDS.alpha_max * NOMINAL.precision().min()
    assert report.min_pose_eigenvalue >= floor - 1e-6


def test_motion_only_already_optimal_terminates_fast(rng):
    problem, gt, _, _ = make_motion_problem(rng, with_dr=False, perturb_t=0.0, perturb_r_deg=0.0)
    pose, report = solve_motion_only(**motion_only_args(problem))
    assert report.iterations <= 2
    assert report.termination in ("cost_tolerance", "stalled", "step_tolerance")
    dt, _ = pose_distance(pose, gt)
    assert dt < 1e-9


def test_motion_only_no_constraints_raises(rng):
    problem, _, _, _ = make_motion_problem(rng, n_obs=0, with_dr=False)
    with pytest.raises(NoConstraints):
        solve_motion_only(**motion_only_args(problem))


# Rotation matrices a motion-only solve with a DR edge forms once: the
# increment's inverse, which both inverts its translation and composes the
# fold delta^-1 previous^-1, the previous pose's inverse and the folded
# pose's rotation. The edge's adjoint is never formed: its from side is fixed.
DR_SOLVE_ROTATIONS = 3


@pytest.mark.parametrize("n_obs, perturb_t", [(40, 0.05), (40, 0.5), (0, 0.05)],
                         ids=["visual", "far-start", "dr-only"])
def test_motion_only_forms_one_rotation_per_evaluation(rng, monkeypatch, n_obs, perturb_t):
    # R(q) is formed once per evaluated point, for both the residuals there
    # and the retraction from there, and the DR edge's fixed part once per
    # solve
    problem, _, _, _ = make_motion_problem(rng, n_obs=n_obs, pixel_noise=1.0,
                                           perturb_t=perturb_t, perturb_r_deg=5.0)
    calls = []
    for module in (geometry, optimizer):
        original = module.quat_to_rotation
        monkeypatch.setattr(module, "quat_to_rotation",
                            lambda q, original=original: calls.append(1) or original(q))
    _, report = solve_motion_only(**motion_only_args(problem))
    assert report.evaluations > 2
    assert len(calls) == report.evaluations + DR_SOLVE_ROTATIONS


def test_local_ba_recovers_ground_truth(rng):
    problem, gt_poses, gt_lms = make_ba_problem(
        rng, n_poses=5, n_landmarks=100, pose_perturb=0.01, lm_perturb=0.02,
        with_dr_chain=True)
    report = solve_local_ba(problem)
    assert report.final_cost <= report.initial_cost
    for i, gt in enumerate(gt_poses):
        dt, _ = pose_distance(problem_pose(problem, i), gt)
        assert dt < 1e-5
    for j, gt in enumerate(gt_lms):
        assert np.linalg.norm(landmark_position(problem, j) - gt) < 1e-5


def test_local_ba_zero_observation_keyframe_held_by_dr_chain(rng):
    problem, gt_poses, _ = make_ba_problem(rng, n_poses=3, n_landmarks=60)
    # pose 1 loses all its visual factors but keeps DR edges to 0 and 2
    rows = problem.reprojection_factors
    problem.reprojection_factors = rows[rows["pose"] != 1]
    d01 = compose(inverse(gt_poses[0]), gt_poses[1])
    d12 = compose(inverse(gt_poses[1]), gt_poses[2])
    problem.add_dr_edges([0, 1], [1, 2], [d01, d12], NOMINAL.precision())
    set_problem_pose(problem, 1, compose(gt_poses[1], exp_se3(np.full(6, 0.01))))
    report = solve_local_ba(problem)
    assert report.final_cost <= report.initial_cost
    dt, dr = pose_distance(problem_pose(problem, 1), gt_poses[1])
    assert dt < 1e-6 and dr < 1e-6


def test_global_ba_noop_on_consistent_input(rng):
    problem, gt_poses, gt_lms = make_ba_problem(rng, n_poses=4, n_landmarks=60)
    report = solve_global_ba(problem)
    assert report.iterations <= 2
    for i, gt in enumerate(gt_poses):
        dt, _ = pose_distance(problem_pose(problem, i), gt)
        assert dt < 1e-9
    for j, gt in enumerate(gt_lms):
        assert np.linalg.norm(landmark_position(problem, j) - gt) < 1e-9


def test_empty_problem_is_zero_dimensional():
    problem = Problem(intrinsics=CAMERA)
    neq, cost = build_normal_equations(problem)
    assert cost == 0.0
    assert neq.Hpp.shape == (0, 0)
    assert neq.Hll.shape == (0, 3, 3)
    report = solve(problem)
    assert report.termination == "no_free_variables"


@pytest.mark.parametrize("pose_id, landmark_id, unknown", [(7, 0, "pose 7"),
                                                           (1, 99, "landmark 99")])
def test_problem_rejects_rows_of_unknown_ids(rng, pose_id, landmark_id, unknown):
    problem, _, _ = make_ba_problem(rng, n_poses=3, n_landmarks=10)
    problem.add_observations(pose_id, landmark_id, [320.0, 240.0])
    with pytest.raises(KeyError, match=unknown):
        problem.validate()
    with pytest.raises(KeyError, match=unknown):
        solve(problem)


@pytest.mark.parametrize("from_id, to_id", [(7, 1), (1, 7)])
def test_problem_rejects_dr_edges_of_unknown_poses(rng, from_id, to_id):
    problem, _, _ = make_ba_problem(rng, n_poses=3, n_landmarks=10, with_dr_chain=True)
    problem.add_dr_edges(from_id, to_id, [Pose.identity()], NOMINAL.precision())
    with pytest.raises(KeyError, match="DR edge references unknown pose 7"):
        problem.validate()
    with pytest.raises(KeyError, match="DR edge references unknown pose 7"):
        solve(problem)


@pytest.mark.parametrize("kind", ["poses", "landmarks"])
def test_problem_rejects_variables_out_of_id_order(rng, kind):
    # variables assigned to the field directly, not through add_poses or
    # add_landmarks: a reversed or repeated id would misplace every slot
    problem, _, _ = make_ba_problem(rng, n_poses=3, n_landmarks=10)
    variables = getattr(problem, kind)
    for bad in (variables[::-1].copy(), variables[[0, 0, 1, 2]]):
        setattr(problem, kind, bad)
        with pytest.raises(ValueError, match="must be unique and ascending"):
            solve(problem)


@pytest.mark.parametrize("name, value", [("pixel_std", 0.0), ("pixel_std", -1.5)])
def test_problem_rejects_nonpositive_pixel_std_and_huber_threshold(rng, name, value):
    problem, _, _ = make_ba_problem(rng, n_poses=3, n_landmarks=10)
    setattr(problem, name, value)
    with pytest.raises(ValueError, match="must be positive"):
        solve(problem)


def test_single_dr_factor_normal_equations_match_direct_product(rng):
    a, b = random_pose(rng), random_pose(rng)
    delta = random_pose(rng, rot_scale=0.3)
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, a)
    problem.add_poses(1, b)
    problem.add_dr_edges(0, 1, [delta], np.ones(6))
    neq, _ = build_normal_equations(problem)
    jf, jt = edge_jacobians(a, b, delta)
    j = np.hstack([jf, jt])
    assert np.allclose(neq.Hpp, j.T @ j, atol=1e-12)


def test_reprojection_normal_equations_match_direct_product(rng):
    # one free pose (1) and one free landmark (0); pose 0 and landmarks 1-3
    # are fixed, so every block has a known set of contributing factors
    pose0, pose1 = random_pose(rng, rot_scale=0.2), random_pose(rng, rot_scale=0.2)
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, pose0, fixed=True)
    problem.add_poses(1, pose1)
    lms = []
    for j in range(4):
        cam = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(2, 5)])
        lms.append(transform_point(pose1, cam))
        problem.add_landmarks(j, lms[-1], fixed=j > 0)
    pixel_std = problem.pixel_std = 0.5
    pairs = [(1, 0), (1, 1), (1, 2), (1, 3), (0, 0)]
    for i, j in pairs:
        pose = (pose0, pose1)[i]
        # noise of several sigma, so some rows sit on the linear Huber branch
        obs = project(CAMERA, transform_point(inverse(pose), lms[j])) \
            + rng.normal(scale=3 * pixel_std, size=2)
        problem.add_observations(i, j, obs)
    neq, _ = build_normal_equations(problem)

    hpp, hll, hpl = np.zeros((6, 6)), np.zeros((3, 3)), np.zeros((6, 3))
    bp, bl = np.zeros(6), np.zeros(3)
    weights = []
    for i, lm, observed in problem.reprojection_factors:
        pose = (pose0, pose1)[i]
        y, r = reprojection_residuals(CAMERA, pose.rotation_matrix, pose.t, lms[lm][None],
                                      observed[None])
        j_pose, j_lm = (j[0] for j in reprojection_jacobians(CAMERA, y, pose.rotation_matrix))
        r_w = r[0] / pixel_std
        _, w = huber(np.linalg.norm(r_w), HUBER_PIXEL_SCALE)
        weights.append(w)
        info = w / pixel_std ** 2
        if i == 1:
            hpp += info * j_pose.T @ j_pose
            bp -= info * j_pose.T @ r[0]
        if lm == 0:
            hll += info * j_lm.T @ j_lm
            bl -= info * j_lm.T @ r[0]
        if i == 1 and lm == 0:
            hpl += info * j_pose.T @ j_lm
    assert min(weights) < 1.0 == max(weights)   # both Huber branches are exercised
    coupling = dense_coupling(neq)
    assert coupling.shape == (1, 6, 1, 3)
    for got, want in ((neq.Hpp, hpp), (neq.Hll[0], hll), (coupling[0, :, 0, :], hpl),
                      (neq.bp, bp), (neq.bl[0], bl)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def direct_normal_equations(problem):
    """H = J^T W J and b = -J^T W r over the free variables, one row or edge at
    a time, with J from the factor kernels and W from huber or the information.
    A factor that cannot be linearized stays in the solver's cost and adds
    exact zeros to its system, so rows at or behind the near plane are
    skipped here."""
    free_poses = problem.poses["id"][~problem.poses["fixed"]].tolist()
    free_lms = problem.landmarks["id"][~problem.landmarks["fixed"]].tolist()
    pose_col = {p: 6 * k for k, p in enumerate(free_poses)}
    lm_col = {l: 6 * len(free_poses) + 3 * k for k, l in enumerate(free_lms)}
    n = 6 * len(free_poses) + 3 * len(free_lms)
    h, b = np.zeros((n, n)), np.zeros(n)
    for i, l, observed in problem.reprojection_factors:
        pose = problem_pose(problem, i)
        lm = landmark_position(problem, l)
        y, r = reprojection_residuals(CAMERA, pose.rotation_matrix, pose.t, lm[None],
                                      observed[None])
        if y[0, 2] <= Z_MIN:
            continue
        j_pose, j_lm = (j[0] for j in reprojection_jacobians(CAMERA, y, pose.rotation_matrix))
        _, w = huber(np.linalg.norm(r[0]) / problem.pixel_std, HUBER_PIXEL_SCALE)
        j = np.zeros((2, n))
        if i in pose_col:
            j[:, pose_col[i]:pose_col[i] + 6] = j_pose
        if l in lm_col:
            j[:, lm_col[l]:lm_col[l] + 3] = j_lm
        info = w / problem.pixel_std ** 2
        h += info * j.T @ j
        b -= info * j.T @ r[0]
    for f in problem.dr_factors:
        a, c = problem_pose(problem, f["from"]), problem_pose(problem, f["to"])
        delta, w = Pose(f["q"], f["t"]), np.diag(f["precision"])
        j = np.zeros((6, n))
        for pid, jac in zip((f["from"], f["to"]), edge_jacobians(a, c, delta)):
            if pid in pose_col:
                j[:, pose_col[pid]:pose_col[pid] + 6] += jac
        h += j.T @ w @ j
        b -= j.T @ w @ edge_residual(a, c, delta)
    return h, b


def test_problem_linearizer_calls_each_reprojection_kernel_once(rng, monkeypatch):
    # the rows of all five poses go through one residual and one Jacobian call
    calls = []
    for name in ("reprojection_residuals", "reprojection_jacobians"):
        def counted(*args, kernel=getattr(optimizer, name), name=name):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(optimizer, name, counted)
    problem, _, _ = make_ba_problem(rng, n_poses=5, n_landmarks=20, with_dr_chain=True)
    build_normal_equations(problem)
    assert calls == ["reprojection_residuals", "reprojection_jacobians"]


@pytest.mark.parametrize("near_plane", [False, True], ids=["in_front", "near_plane"])
def test_normal_equations_match_direct_product_with_repeated_factors(rng, near_plane):
    # poses 1-3 free, pose 0 and landmark 5 fixed; the pairs (1, 0) and (2, 3)
    # carry two reprojection rows each, and the DR edge 1->2 appears twice.
    # With near_plane, free pose 3 sees the free landmark 6 behind it, fixed
    # pose 0 sees the free landmark 7 exactly on its near plane, and pose 1's
    # rows interleave with the other poses' rows.
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, Pose.identity(), fixed=True)
    for i in (1, 2, 3):
        problem.add_poses(i, exp_se3(rng.normal(scale=0.05, size=6)))
    for j in range(6):
        lm = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(3, 5)])
        problem.add_landmarks(j, lm, fixed=j == 5)
    pixel_std = problem.pixel_std = 0.5
    pairs = [(1, 0), (1, 0), (1, 1), (1, 5), (2, 3), (2, 3), (2, 0), (2, 4), (3, 1), (3, 4),
             (0, 2), (3, 2)]
    if near_plane:
        behind = np.array([0.2, -0.1, -1.0])
        problem.add_landmarks(6, transform_point(problem_pose(problem, 3), behind))
        problem.add_landmarks(7, np.array([0.1, 0.1, Z_MIN]))
        pairs = [(1, 0), (2, 3), (3, 6), (1, 0), (0, 7), (2, 3), (1, 1), (2, 0), (3, 6), (1, 5),
                 (2, 4), (3, 1), (3, 4), (0, 2), (3, 2)]
    centre = np.array([CAMERA.cx, CAMERA.cy])   # the pixel of a row at or behind the near plane
    for i, j in pairs:
        pose, lm = problem_pose(problem, i), landmark_position(problem, j)
        cam = transform_point(inverse(pose), lm)
        obs = (project(CAMERA, cam) if cam[2] > Z_MIN else centre) \
            + rng.normal(scale=3 * pixel_std, size=2)
        problem.add_observations(i, j, obs)
    for a, c in ((0, 1), (1, 2), (1, 2), (2, 3), (3, 1)):
        delta = compose(compose(inverse(problem_pose(problem, a)), problem_pose(problem, c)),
                        exp_se3(rng.normal(scale=0.01, size=6)))
        problem.add_dr_edges(a, c, [delta], scale_information(2.0, NOMINAL))
    neq, _ = build_normal_equations(problem)
    h, b = direct_normal_equations(problem)

    n_p, coupling = 6 * neq.n_pose_free, dense_coupling(neq)
    assert coupling.shape == (3, 6, 7 if near_plane else 5, 3)
    if near_plane:
        # landmarks 6 and 7 have only inactive rows
        assert not neq.Hll[5:].any() and not coupling[:, :, 5:].any()
    scale = np.max(np.abs(h))
    assert np.allclose(coupling.reshape(n_p, -1), h[:n_p, n_p:], rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(neq.Hpp, h[:n_p, :n_p], rtol=1e-12, atol=1e-12 * scale)
    for k in range(neq.n_lm_free):
        s = n_p + 3 * k
        assert np.allclose(neq.Hll[k], h[s:s + 3, s:s + 3], rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(neq.bp, b[:n_p], rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))
    assert np.allclose(neq.bl.reshape(-1), b[n_p:], rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


def test_dr_hessian_linear_in_alpha(rng):
    a, b = random_pose(rng), random_pose(rng)
    delta = random_pose(rng, rot_scale=0.3)
    w0 = NOMINAL.precision()

    def hessians(alpha):
        problem = Problem(intrinsics=CAMERA)
        problem.add_poses(0, a)
        problem.add_poses(1, b)
        problem.add_dr_edges(0, 1, [delta], alpha * w0)
        neq, _ = build_normal_equations(problem)
        return neq.Hpp

    alpha1, alpha2 = 0.37, 41.5
    h1, h2 = hessians(alpha1), hessians(alpha2)
    jf, jt = edge_jacobians(a, b, delta)
    j = np.hstack([jf, jt])
    expected = (alpha2 - alpha1) * (j.T @ np.diag(w0) @ j)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs((h2 - h1) - expected)) < 1e-10 * scale


def test_alpha_doubling_doubles_dr_contribution(rng):
    a, b = random_pose(rng), random_pose(rng)
    delta = random_pose(rng, rot_scale=0.3)

    def hpp(alpha):
        problem = Problem(intrinsics=CAMERA)
        problem.add_poses(0, a)
        problem.add_poses(1, b)
        problem.add_dr_edges(0, 1, [delta], scale_information(alpha, NOMINAL))
        return build_normal_equations(problem)[0].Hpp

    h1, h2 = hpp(1.0), hpp(2.0)
    assert np.allclose(h2, 2.0 * h1, rtol=1e-12)


def test_schur_matches_dense_on_random_problems(rng):
    for trial in range(20):
        n_poses = int(rng.integers(2, 11))
        n_lms = int(rng.integers(10, 51))
        problem, _, _ = make_ba_problem(
            rng, n_poses=n_poses, n_landmarks=n_lms, pixel_noise=0.5,
            pose_perturb=0.005, lm_perturb=0.01,
            obs_per_landmark=int(rng.integers(2, n_poses + 1)),
            with_dr_chain=True)
        neq, _ = build_normal_equations(problem)
        lam = 1e-4
        step_s = schur_solve(neq, lam)
        step_d = dense_solve(neq, lam)
        denom = max(np.max(np.abs(step_d)), 1e-12)
        assert np.max(np.abs(step_s - step_d)) / denom < 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_poses=st.integers(1, 6), n_fixed=st.integers(0, 2),
       n_lms=st.integers(0, 20), density=st.floats(0.0, 1.0),
       with_dr=st.booleans(), damping=st.sampled_from([1e-2, 1.0, 1e2]))
def test_schur_matches_dense_on_random_sparsity(seed, n_poses, n_fixed, n_lms, density,
                                                with_dr, damping):
    # sparsity drawn per (pose, landmark) pair: landmarks seen once or never,
    # free poses that see no landmark, and fully fixed problems all occur
    rng = np.random.default_rng(seed)
    problem = Problem(intrinsics=CAMERA)
    for i in range(n_poses):
        problem.add_poses(i, exp_se3(rng.normal(scale=0.05, size=6)), fixed=i < n_fixed)
    for j in range(n_lms):
        lm = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(3, 5)])
        problem.add_landmarks(j, lm, fixed=rng.uniform() < 0.2)
        for i in range(n_poses):
            if rng.uniform() < density:
                obs = project(CAMERA, transform_point(inverse(problem_pose(problem, i)), lm))
                problem.add_observations(i, j, obs + rng.normal(scale=1.0, size=2))
    if with_dr:
        for i in range(n_poses - 1):
            delta = exp_se3(rng.normal(scale=0.05, size=6))
            problem.add_dr_edges(i, i + 1, [delta], NOMINAL.precision())
    neq, _ = build_normal_equations(problem)
    step_s = schur_solve(neq, damping)
    step_d = dense_solve(neq, damping)
    assert step_s.shape == step_d.shape
    if not len(step_d):
        return
    # many draws are rank deficient up to the damping, so the two steps agree
    # to within the damped system's conditioning; the Schur step solves that
    # system to a small backward error either way
    h, b = dense_system(neq, damping)
    diff = np.max(np.abs(step_s - step_d)) / max(np.max(np.abs(step_d)), 1e-12)
    assert diff < 1e-11 * np.linalg.cond(h)
    scale = np.linalg.norm(h, 2) * np.linalg.norm(step_s) + np.linalg.norm(b)
    assert np.linalg.norm(h @ step_s - b) <= 1e-10 * scale


def test_schur_landmark_free_reduces_to_pose_solve(rng):
    problem, _, _, _ = make_motion_problem(rng, n_obs=40, with_dr=True)
    neq, _ = build_normal_equations(problem)
    assert neq.n_lm_free == 0
    step = schur_solve(neq, 1e-6)
    ref = np.linalg.solve(neq.Hpp + 1e-6 * np.eye(6), neq.bp)
    assert np.allclose(step, ref, atol=1e-12)


BLOCKS = ("Hpp", "bp", "Hll", "bl", "Hpl")


def system_block(neq, name):
    """A block of the system by name; Hpl is the coupling's dense view."""
    return dense_coupling(neq) if name == "Hpl" else getattr(neq, name)


def test_scatter_adds_in_the_order_of_np_add_at(rng):
    # many contributions per target, over magnitudes far apart, so that any
    # other summation order would round differently
    n, size = 400, 7 * 18
    targets = 18 * rng.integers(0, 7, size=n)
    blocks = rng.normal(size=(n, 6, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 1, 1))
    offsets = 3 * np.arange(6)[:, None] + np.arange(3)
    want = np.zeros(size)
    np.add.at(want, (targets[:, None] + offsets.reshape(-1)).reshape(-1), blocks.reshape(-1))
    index = optimizer._scatter_index(targets, offsets)
    assert optimizer._scatter(index, blocks, size).tobytes() == want.tobytes()
    empty = optimizer._scatter(optimizer._scatter_index(np.zeros(0, np.int64), offsets),
                               np.zeros((0, 6, 3)), size)
    assert empty.dtype == np.float64 and empty.tobytes() == np.zeros(size).tobytes()


@pytest.mark.parametrize("with_dr", [False, True], ids=["visual", "with_dr"])
def test_interleaving_rows_of_different_poses_leaves_the_system_unchanged(rng, with_dr):
    # pose 0 fixed, poses 1-3 free; pose p sees landmarks 3p+7 down to 3p,
    # landmark 5 fixed. Taking the poses' rows round robin instead of pose by
    # pose keeps each pose's rows, and each landmark's, in the same order, so
    # the two problems differ only in how the poses' rows interleave
    poses = [exp_se3(rng.normal(scale=0.05, size=6)) for _ in range(4)]
    positions = np.column_stack([rng.uniform(-1, 1, 18), rng.uniform(-1, 1, 18),
                                 rng.uniform(3, 5, 18)])
    per_pose = []
    for p, pose in enumerate(poses):
        lms = range(3 * p + 7, 3 * p - 1, -1)
        uv = [project(CAMERA, transform_point(inverse(pose), positions[j]))
              + rng.normal(scale=1.5, size=2) for j in lms]
        per_pose.append([(p, j, obs) for j, obs in zip(lms, uv)])
    grouped = [row for rows in per_pose for row in rows]
    interleaved = [rows[k] for k in range(8) for rows in per_pose]
    deltas = [compose(compose(inverse(poses[a]), poses[a + 1]),
                      exp_se3(rng.normal(scale=0.01, size=6))) for a in range(3)]

    def problem_of(rows):
        problem = Problem(intrinsics=CAMERA, pixel_std=0.5)
        for p, pose in enumerate(poses):
            problem.add_poses(p, pose, fixed=p == 0)
        problem.add_landmarks(np.arange(18), positions, fixed=np.arange(18) == 5)
        for p, j, obs in rows:
            problem.add_observations(p, j, obs)
        if with_dr:
            problem.add_dr_edges([0, 1, 2], [1, 2, 3], deltas, scale_information(2.0, NOMINAL))
        return problem

    a, b = problem_of(grouped), problem_of(interleaved)
    rows_a, rows_b = a.reprojection_factors, b.reprojection_factors
    assert not np.array_equal(rows_a["pose"], rows_b["pose"])
    for key in ("pose", "landmark"):
        for v in range(18):
            uv_a, uv_b = rows_a["uv"][rows_a[key] == v], rows_b["uv"][rows_b[key] == v]
            assert uv_a.tobytes() == uv_b.tobytes()
    neq_a, neq_b = build_normal_equations(a)[0], build_normal_equations(b)[0]
    for block in BLOCKS:
        assert system_block(neq_a, block).tobytes() == system_block(neq_b, block).tobytes(), block
    # the cost sums its rows in row order, so only its last bits may differ
    config = SolverConfig(max_iterations=5)
    report_a, report_b = solve(a, config), solve(b, config)
    for column in ("q", "t"):
        assert a.poses[column].tobytes() == b.poses[column].tobytes(), column
    assert a.landmarks["position"].tobytes() == b.landmarks["position"].tobytes()
    for name in ("iterations", "evaluations", "rejected_steps", "termination"):
        assert getattr(report_a, name) == getattr(report_b, name), name
    assert report_a.final_cost == pytest.approx(report_b.final_cost, rel=1e-14)


@pytest.mark.parametrize("near_plane", [False, True], ids=["in_front", "near_plane"])
def test_schur_chunk_index_reused_across_dampings_gives_the_bits_of_a_fresh_system(rng,
                                                                                   near_plane):
    # 150 landmarks take three chunks; with near_plane, free landmark 150 has
    # one row, behind free pose 3
    problem, _, _ = make_ba_problem(rng, n_poses=6, n_landmarks=150, pixel_noise=0.5,
                                    pose_perturb=0.005, lm_perturb=0.01, obs_per_landmark=3,
                                    with_dr_chain=True)
    if near_plane:
        pose = problem_pose(problem, 3)
        problem.add_landmarks(150, transform_point(pose, np.array([0.2, -0.1, -1.0])))
        problem.add_observations(3, 150, np.array([CAMERA.cx, CAMERA.cy]))
    neq, _ = build_normal_equations(problem)
    dampings = (1e-4, 1e-2, 1.0)
    steps = [schur_solve(neq, damping) for damping in dampings]
    chunks = neq.schur_chunks
    assert len(chunks) == 3 and chunks is neq.schur_chunks
    for lms, rows, block in chunks:       # indices only, no copy of the coupling
        assert all(index.dtype.kind == "i" for index in (lms, rows, *block))
    if near_plane:
        assert neq.Hll[150].tobytes() == np.zeros((3, 3)).tobytes()
    for damping, step in zip(dampings, steps):
        fresh, _ = build_normal_equations(problem)
        assert schur_solve(fresh, damping).tobytes() == step.tobytes()
        dense = dense_solve(neq, damping)
        assert np.max(np.abs(step - dense)) < 1e-8 * np.max(np.abs(dense))


@pytest.mark.parametrize("pose", [1, 2, 3])
def test_normal_equations_match_direct_product_with_a_row_behind_one_pose(rng, pose):
    # poses 1-3 free; one row of the given pose sees its landmark behind the
    # camera, so that pose has one row fewer than it has in the problem
    problem, _, _ = make_ba_problem(rng, n_poses=4, n_landmarks=20, pixel_noise=1.0,
                                    pose_perturb=0.01, lm_perturb=0.02, with_dr_chain=True)
    behind = transform_point(problem_pose(problem, pose), np.array([0.2, -0.1, -1.0]))
    problem.add_landmarks(20, behind, fixed=True)
    rows = problem.reprojection_factors
    at = int(np.flatnonzero(rows["pose"] == pose)[0])
    problem.reprojection_factors = np.concatenate([
        rows[:at], reprojection_rows(pose, 20, [CAMERA.cx, CAMERA.cy]), rows[at:]])
    neq, _ = build_normal_equations(problem)
    h, b = direct_normal_equations(problem)
    n_p, scale = 6 * neq.n_pose_free, np.max(np.abs(h))
    assert np.allclose(neq.Hpp, h[:n_p, :n_p], rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(neq.bp, b[:n_p], rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))
    assert np.allclose(dense_coupling(neq).reshape(n_p, -1), h[:n_p, n_p:], rtol=1e-12,
                       atol=1e-12 * scale)


# Camera-frame depths of rows that cannot be linearized: on the camera
# centre's plane, behind the camera and exactly on the near plane.
NEAR_PLANE_DEPTHS = (0.0, -0.7, Z_MIN)


def _rows_at_near_plane_depths(rng, problem, pose_id, first_lm, fixed):
    """Rows of the free pose pose_id, at the identity so that a row's depth
    is its landmark's z, to twelve landmarks from first_lm on: nine in front
    and three at NEAR_PLANE_DEPTHS, interleaved with them."""
    cams = np.column_stack([rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 12), rng.uniform(2, 5, 12)])
    cams[[2, 5, 9], 2] = NEAR_PLANE_DEPTHS
    centre = np.array([CAMERA.cx, CAMERA.cy])
    for j, cam in enumerate(cams, start=first_lm):
        obs = (project(CAMERA, cam) if cam[2] > Z_MIN else centre) + rng.normal(size=2)
        problem.add_landmarks(j, cam, fixed=fixed)
        problem.add_observations(pose_id, j, obs)
    y, _ = reprojection_residuals(CAMERA, np.eye(3), np.zeros(3), cams, cams[:, :2])
    assert y[[2, 5, 9], 2].tolist() == list(NEAR_PLANE_DEPTHS)


def _assert_system_matches_direct(problem, hpp, bp, hll=None, bl=None, hpl=None):
    h, b = direct_normal_equations(problem)
    n_p = len(bp)
    for got, want in ((hpp, h[:n_p, :n_p]), (bp, b[:n_p]), (hll, h[n_p:, n_p:]), (bl, b[n_p:]),
                      (hpl, h[:n_p, n_p:])):
        if got is not None:
            assert np.all(np.isfinite(got))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_rows_at_or_behind_the_near_plane_add_exact_zeros_to_the_ba_system(rng):
    # the free pose 4, at the identity and held to the window by a DR edge,
    # sees free landmarks 20-31, three of them at the near-plane depths
    problem, _, _ = make_ba_problem(rng, n_poses=4, n_landmarks=20, pixel_noise=1.0,
                                    pose_perturb=0.01, lm_perturb=0.02, with_dr_chain=True)
    problem.add_poses(4, Pose.identity())
    problem.add_dr_edges(3, 4, [inverse(problem_pose(problem, 3))], NOMINAL.precision())
    _rows_at_near_plane_depths(rng, problem, 4, 20, fixed=False)
    neq, _ = build_normal_equations(problem)
    coupling = dense_coupling(neq)
    _assert_system_matches_direct(problem, neq.Hpp, neq.bp, scipy.linalg.block_diag(*neq.Hll),
                                  neq.bl.reshape(-1), coupling.reshape(6 * neq.n_pose_free, -1))
    # the landmarks seen only at the near-plane depths have zero blocks
    inactive = np.searchsorted(problem.landmarks["id"], [22, 25, 29])
    assert not neq.Hll[inactive].any() and not neq.bl[inactive].any()
    assert not coupling[:, :, inactive].any()


def test_motion_only_rows_at_or_behind_the_near_plane_add_exact_zeros(rng):
    # the free pose at the identity, a DR edge from the fixed previous pose
    # and twelve matched points, three of them at the near-plane depths
    problem = Problem(intrinsics=CAMERA)
    prev = exp_se3(rng.normal(scale=0.1, size=6))
    problem.add_poses([0, 1], [prev, Pose.identity()], fixed=[True, False])
    problem.add_dr_edges(0, 1, [compose(inverse(prev), exp_se3(rng.normal(scale=0.02, size=6)))],
                         NOMINAL.precision())
    _rows_at_near_plane_depths(rng, problem, 1, 0, fixed=True)
    args = motion_only_args(problem)
    lin = optimizer._PoseLinearizer(args["camera"], args["points"], args["uv"],
                                    1.0 / args["pixel_std"], args["dr"])
    point = (args["pose"].q.tolist(), args["pose"].t.tolist(), args["pose"].rotation_matrix)
    _assert_system_matches_direct(problem, *lin.linearize(point, lin.residuals(point)[1]))
    arrays = solve_motion_only(**args)
    assert arrays[1].iterations > 1
    report = solve(problem, args["config"])
    _assert_same_solve(arrays, (problem_pose(problem, 1), report))


@pytest.mark.parametrize("rows", ["none", "behind"])
def test_dr_edges_without_active_rows_give_float_blocks_and_the_dense_step(rng, rows):
    # poses 1 and 2 free, held by DR edges from the fixed pose 0; with
    # "behind", free landmark 0 and fixed landmark 1 each have one row, at or
    # behind the near plane, so no reprojection row is active
    problem = Problem(intrinsics=CAMERA)
    for i in range(3):
        problem.add_poses(i, exp_se3(rng.normal(scale=0.05, size=6)), fixed=i == 0)
    for a in range(2):
        delta = compose(compose(inverse(problem_pose(problem, a)), problem_pose(problem, a + 1)),
                        exp_se3(rng.normal(scale=0.01, size=6)))
        problem.add_dr_edges(a, a + 1, [delta], NOMINAL.precision())
    if rows == "behind":
        problem.add_landmarks(0, transform_point(problem_pose(problem, 1),
                                                 np.array([0.2, -0.1, -1.0])))
        problem.add_landmarks(1, transform_point(problem_pose(problem, 2),
                                                 np.array([0.1, 0.1, Z_MIN])), fixed=True)
        problem.add_observations([1, 2], [0, 1], np.array([[CAMERA.cx, CAMERA.cy]] * 2))
    neq, _ = build_normal_equations(problem)
    n_l, coupling = int(rows == "behind"), dense_coupling(neq)
    assert (neq.Hpp.shape, neq.Hll.shape, coupling.shape) == ((12, 12), (n_l, 3, 3),
                                                              (2, 6, n_l, 3))
    for block in BLOCKS:
        assert system_block(neq, block).dtype == np.float64, block
    assert all(w_c.dtype == np.float64 for w_c in neq.couplings)
    assert not neq.Hll.any() and not neq.bl.any() and not coupling.any()
    assert neq.Hpp.any()
    for damping in (1e-4, 1.0):
        step, dense = schur_solve(neq, damping), dense_solve(neq, damping)
        assert np.allclose(step, dense, rtol=1e-10, atol=1e-12 * np.max(np.abs(dense)))


def test_damped_singular_system_gives_finite_step():
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, Pose.identity(), fixed=True)
    problem.add_poses(1, Pose.identity())
    # single observation: wildly underdetermined without damping
    problem.add_landmarks(0, np.array([0.0, 0.0, 3.0]))
    problem.add_observations(1, 0, np.array([322.0, 239.0]))
    neq, _ = build_normal_equations(problem)
    step = schur_solve(neq, 1e-2)
    assert np.all(np.isfinite(step))


def test_min_pose_eigenvalue_identity_and_scaled():
    neq, _ = build_normal_equations(Problem(intrinsics=CAMERA))
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, Pose.identity())
    neq, _ = build_normal_equations(problem)
    neq.Hpp[:] = np.eye(6)
    assert min_pose_eigenvalue(neq) == pytest.approx(1.0)
    neq.Hpp[:] = 7.5 * np.eye(6)
    assert min_pose_eigenvalue(neq) == pytest.approx(7.5)


def test_min_pose_eigenvalue_matches_iterative_oracle(rng):
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, Pose.identity())
    problem.add_poses(1, Pose.identity())
    neq, _ = build_normal_equations(problem)
    a = rng.normal(size=(12, 12))
    spd = a @ a.T + 12 * np.eye(12)
    neq.Hpp[:] = spd
    oracle = scipy.sparse.linalg.eigsh(spd, k=1, which="SA")[0][0]
    assert abs(min_pose_eigenvalue(neq) - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_accepted_costs_nonincreasing(rng):
    problem, _, _ = make_ba_problem(
        rng, n_poses=6, n_landmarks=40, pixel_noise=1.0,
        pose_perturb=0.02, lm_perturb=0.05)
    report = solve_local_ba(problem)
    assert report.final_cost <= report.initial_cost


def test_gauge_fixing_one_pose_leaves_system_nonsingular(rng):
    problem, _, _ = make_ba_problem(rng, n_poses=4, n_landmarks=40, pixel_noise=0.3,
                                    pose_perturb=0.01, lm_perturb=0.01,
                                    with_dr_chain=True)
    neq, _ = build_normal_equations(problem)
    h, _ = dense_system(neq, 0.0)
    ev = np.linalg.eigvalsh(0.5 * (h + h.T))
    assert ev.min() > 1e-8 * ev.max()


def test_dr_factor_keeps_pose_hessian_positive_definite(rng):
    # invariant: with an active DR factor per free pose, the pose Hessian is
    # positive definite for every weight at or above the lower bound
    for alpha in (BOUNDS.alpha_min, 1.0, BOUNDS.alpha_max):
        problem, _, _, _ = make_motion_problem(rng, n_obs=0, with_dr=True, dr_alpha=alpha)
        neq, _ = build_normal_equations(problem)
        assert min_pose_eigenvalue(neq) > 0


def _outcome(fn):
    """(pose, report) of a solve, or the type of the error it raised."""
    try:
        return fn()
    except (Diverged, NoConstraints) as e:
        return type(e)


def _assert_same_solve(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
        return
    (pose_a, rep_a), (pose_b, rep_b) = a, b
    assert pose_a.q.tobytes() == pose_b.q.tobytes()
    assert pose_a.t.tobytes() == pose_b.t.tobytes()
    for name in ("iterations", "termination", "evaluations", "rejected_steps", "free_poses",
                 "free_landmarks", "reprojection_rows", "dr_edges"):
        assert getattr(rep_a, name) == getattr(rep_b, name), name
    for name in ("initial_cost", "final_cost", "final_damping", "min_pose_eigenvalue"):
        x, y = getattr(rep_a, name), getattr(rep_b, name)
        assert np.float64(x).tobytes() == np.float64(y).tobytes(), name


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_obs=st.integers(0, 40),
       dr_edge=st.sampled_from(["none", "edge", "near_pi"]),
       behind=st.floats(0.0, 0.3), outliers=st.floats(0.0, 0.4),
       log_alpha=st.floats(-1.0, 3.0))
# frames without rows, as a blackout gives: the DR edge alone, near pi or not
@example(seed=1, n_obs=0, dr_edge="edge", behind=0.0, outliers=0.0, log_alpha=-1.0)
@example(seed=2, n_obs=0, dr_edge="edge", behind=0.0, outliers=0.0, log_alpha=3.0)
@example(seed=3, n_obs=0, dr_edge="near_pi", behind=0.0, outliers=0.0, log_alpha=0.0)
@example(seed=4, n_obs=0, dr_edge="near_pi", behind=0.0, outliers=0.0, log_alpha=2.5)
@example(seed=5, n_obs=0, dr_edge="none", behind=0.0, outliers=0.0, log_alpha=0.0)
def test_motion_only_arrays_match_problem_solve(seed, n_obs, dr_edge, behind, outliers,
                                                log_alpha):
    # the array solve against the one-free-pose Problem through the generic
    # solve: same pose, iterations, termination, costs and telemetry, bit for bit
    rng = np.random.default_rng(seed)
    prev = random_pose(rng, rot_scale=0.3)
    delta = exp_se3(rng.normal(scale=0.03, size=6))
    gt = compose(prev, delta)
    start = compose(gt, exp_se3(rng.normal(scale=0.05, size=6)))
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(1, start)
    # landmark ids out of match order: the Problem sorts them, the arrays do not
    for j in rng.permutation(1000)[:n_obs]:
        cam = np.array([rng.uniform(-2, 2), rng.uniform(-1.5, 1.5), rng.uniform(1.0, 6.0)])
        if rng.uniform() < behind:
            cam[2] = rng.uniform(-1.0, 0.05)       # at or behind the near plane
        obs = np.array([rng.uniform(0, 640), rng.uniform(0, 480)])
        if cam[2] > 0.05 and rng.uniform() >= outliers:
            obs = project(CAMERA, cam) + rng.normal(size=2)
        problem.add_landmarks(int(j), transform_point(gt, cam), fixed=True)
        problem.add_observations(1, int(j), obs)
    if dr_edge != "none":
        if dr_edge == "near_pi":
            # the start sits at an error rotation just below pi from the prediction
            axis = rng.normal(size=3)
            phi = axis / np.linalg.norm(axis) * (math.pi - 1e-7)
            set_problem_pose(problem, 1, compose(compose(prev, delta),
                                                 exp_se3(np.concatenate([np.zeros(3), phi]))))
            assert edge_residuals([prev], [problem_pose(problem, 1)], [delta])[1][0]
        problem.add_poses(0, prev, fixed=True)
        problem.add_dr_edges(0, 1, [delta], scale_information(10.0 ** log_alpha, NOMINAL))
    args = motion_only_args(problem)
    arrays = _outcome(lambda: solve_motion_only(**args))
    if n_obs == 0 and dr_edge == "none":
        assert arrays is NoConstraints
        return

    def generic():
        report = solve(problem, args["config"])
        return problem_pose(problem, 1), report
    _assert_same_solve(arrays, _outcome(generic))


def _size(report):
    return report.free_poses, report.free_landmarks, report.reprojection_rows, report.dr_edges


def test_report_carries_problem_size(rng):
    # a local BA window of poses 2-4 with the anchors 0 and 1, and landmarks
    # 0-4 held fixed
    problem, _, _ = make_ba_problem(rng, n_poses=5, n_landmarks=30, pose_perturb=0.01,
                                    with_dr_chain=True)
    set_fixed(problem.poses, 1)
    set_fixed(problem.landmarks, range(5))
    n_landmarks, n_rows = len(problem.landmarks), len(problem.reprojection_factors)
    assert n_rows > 2 * n_landmarks
    assert _size(solve_local_ba(problem)) == (3, n_landmarks - 5, n_rows, 4)
    # motion only: one free pose against 20 fixed points, one DR edge
    problem, _, _, _ = make_motion_problem(rng, n_obs=20)
    _, report = solve_motion_only(**motion_only_args(problem))
    assert _size(report) == (1, 0, 20, 1)


def test_motion_only_without_rows_or_dr_edge_raises():
    with pytest.raises(NoConstraints):
        solve_motion_only(CAMERA, Pose.identity(), np.zeros((0, 3)), np.zeros((0, 2)),
                          1.0, None, SolverConfig())


@pytest.mark.parametrize("value", [0.0, -1.0, np.zeros(0)],
                         ids=["pixel_std-zero", "pixel_std-negative", "pixel_std-empty"])
def test_motion_only_rejects_pixel_model_that_is_not_a_positive_scalar(rng, value):
    # the motion-only solve checks its pixel std as Problem.validate does,
    # and raises the same error
    problem, _, _, _ = make_motion_problem(rng, n_obs=10)
    args = motion_only_args(problem)
    args["pixel_std"] = problem.pixel_std = value
    with pytest.raises(ValueError) as problem_error:
        problem.validate()
    with pytest.raises(ValueError) as motion_error:
        solve_motion_only(**args)
    assert str(motion_error.value) == str(problem_error.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("solver", ["solve", "solve_motion_only"])
def test_dr_precision_not_finite_and_positive_raises(solver, bad):
    previous = Pose.identity()
    delta = exp_se3(np.array([0.03, 0.0, 0.01, 0.0, 0.01, 0.0]))
    precision = NOMINAL.precision()
    precision[4] = bad
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, previous, fixed=True)
    problem.add_poses(1, compose(previous, delta))
    problem.add_dr_edges(0, 1, [delta], precision)
    with pytest.raises(NotPositiveDefinite):
        if solver == "solve":
            solve(problem)
        else:
            solve_motion_only(**motion_only_args(problem))


def test_dr_whitening_matches_cholesky_of_the_precision(rng):
    # the solver scales each DR residual entry and Jacobian row by the square
    # root of its precision entry: the upper Cholesky factor of the diagonal
    # information applied as a 6x6 product, and a whitened norm equal to the
    # Mahalanobis norm
    for _ in range(50):
        p = 10.0 ** rng.uniform(-3, 7, size=6)
        a, b, delta = random_pose(rng), random_pose(rng), random_pose(rng, rot_scale=0.3)
        edges, dr, _ = dr_edge(a, b, delta, p)
        ((log, rw),) = dr
        whitened, _ = edges.whitened_jacobians(dr)
        u = np.linalg.cholesky(np.diag(p)).T
        r, rw = np.array(log[0]), np.array(rw)
        assert (u @ r).tobytes() == rw.tobytes()
        for j, jw in zip(edge_jacobians(a, b, delta), whitened):
            assert (u @ j).tobytes() == jw.tobytes()
        mahalanobis = r @ np.diag(p) @ r
        assert abs(rw @ rw - mahalanobis) <= 1e-12 * mahalanobis


def test_dr_blocks_follow_the_visual_ones_from_sides_before_to_sides(rng):
    # three free poses in a chain, each seeing the same fixed landmarks; the
    # middle pose is the to side of edge 0 and the from side of edge 1. Hpp
    # and bp are the visual system plus, in this order, every from side in
    # edge order, every to side, and the cross blocks and their transposes:
    # an oracle that adds them so gives the bytes, and one that adds the DR
    # blocks before the visual ones, or the to sides first, does not
    poses = [exp_se3(rng.normal(scale=0.05, size=6)) for _ in range(3)]
    positions = np.column_stack([rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 12),
                                 rng.uniform(3, 5, 12)])
    problem = Problem(intrinsics=CAMERA, pixel_std=0.5)
    problem.add_poses([0, 1, 2], poses)
    problem.add_landmarks(np.arange(12), positions, fixed=True)
    for p, pose in enumerate(poses):
        uv = [project(CAMERA, transform_point(inverse(pose), x)) + rng.normal(scale=1.5, size=2)
              for x in positions]
        problem.add_observations(p, np.arange(12), uv)
    visual = build_normal_equations(problem)[0]
    deltas = [compose(compose(inverse(poses[a]), poses[a + 1]),
                      exp_se3(rng.normal(scale=0.01, size=6))) for a in range(2)]
    precision = scale_information(2.0, NOMINAL)
    problem.add_dr_edges([0, 1], [1, 2], deltas, precision)
    neq = build_normal_equations(problem)[0]

    # whitened Jacobians and residuals, from sides in edge order then to
    # sides, and their products as the solver stacks them
    sqrt_p = np.sqrt(precision)
    jacobians = [edge_jacobians(poses[e], poses[e + 1], deltas[e]) for e in range(2)]
    w = np.array([j[side] for side in range(2) for j in jacobians]) * sqrt_p[:, None]
    rw = np.array([edge_residual(poses[e], poses[e + 1], deltas[e]) * sqrt_p
                   for e in (0, 1, 0, 1)])
    wt = w.transpose(0, 2, 1)
    blocks, grads = wt @ w, (wt @ rw[:, :, None])[:, :, 0]
    cross = w[:2].transpose(0, 2, 1) @ w[2:]
    sides = [(0, blocks[0], grads[0]), (1, blocks[1], grads[1]),
             (1, blocks[2], grads[2]), (2, blocks[3], grads[3])]

    def summed(dr_first, to_first):
        hpp, bp = np.zeros((18, 18)), np.zeros(18)
        terms = [sides[2:] + sides[:2] if to_first else sides, "visual"]
        for term in terms if dr_first else terms[::-1]:
            if term == "visual":
                hpp += visual.Hpp
                bp += visual.bp
                continue
            for p, block, grad in term:
                hpp[6 * p:6 * p + 6, 6 * p:6 * p + 6] += block
                bp[6 * p:6 * p + 6] += -grad
        for e in range(2):
            hpp[6 * e:6 * e + 6, 6 * e + 6:6 * e + 12] += cross[e]
        for e in range(2):
            hpp[6 * e + 6:6 * e + 12, 6 * e:6 * e + 6] += cross[e].T
        return hpp.tobytes(), bp.tobytes()
    assert (neq.Hpp.tobytes(), neq.bp.tobytes()) == summed(False, False)
    for other in (summed(True, False), summed(False, True)):
        assert other[0] != neq.Hpp.tobytes() and other[1] != neq.bp.tobytes()


@pytest.mark.parametrize("level", ["motion_only", "problem"])
def test_dr_edge_near_pi_stays_in_the_cost_and_adds_nothing_to_the_system(rng, level):
    # an edge whose error rotation is within 1e-6 of pi adds its cost, and
    # its sides' zero Jacobians add exact zeros: the system has the bytes of
    # the system without the edge
    problem, _, prev, delta = make_motion_problem(rng, n_obs=30, pixel_noise=1.0, perturb_t=0.0,
                                                  perturb_r_deg=0.0, with_dr=False)
    visual = motion_only_args(problem)
    turned = compose(delta, exp_se3(np.array([0.1, 0.0, 0.0, 0.0, 0.0, np.pi - 1e-8])))
    assert edge_residuals([prev], [problem_pose(problem, 1)], [turned])[1][0]
    problem.add_dr_edges(0, 1, [turned], NOMINAL.precision())
    if level == "motion_only":
        pose = visual["pose"]
        point = (pose.q.tolist(), pose.t.tolist(), pose.rotation_matrix)
        lins = [optimizer._PoseLinearizer(a["camera"], a["points"], a["uv"], 1.0 / a["pixel_std"],
                                          a["dr"])
                for a in (visual, motion_only_args(problem))]
    else:
        lins = [_Linearizer(replace(problem, dr_factors=problem.dr_factors[:0])),
                _Linearizer(problem)]
        point = lins[0].point
    blocks, costs = [], []
    for lin in lins:
        cost, cache = lin.residuals(point)
        system = lin.linearize(point, cache)
        system = system if level == "motion_only" else (system.Hpp, system.bp)
        blocks.append([block.tobytes() for block in system])
        costs.append(cost)
    assert blocks[0] == blocks[1]
    assert costs[1] > costs[0] + 1e3


@pytest.mark.parametrize("level", ["motion_only", "one_pose_problem", "chain"])
def test_dr_edges_from_a_fixed_pose_are_folded_once_per_solve(rng, monkeypatch, level):
    # an edge whose from pose is fixed folds its fixed part once per solve,
    # in a Problem as in tracking; one whose from pose is free folds once
    # per evaluation
    folds = []
    fold = optimizer.dr_fold

    def counted(*args):
        folds.append(args)
        return fold(*args)
    if level == "chain":
        # pose 0 fixed: edge 0 is from a fixed pose, edges 1 and 2 are not
        problem, _, _ = make_ba_problem(rng, n_poses=4, n_landmarks=20, pixel_noise=1.0,
                                        pose_perturb=0.05, with_dr_chain=True)
    else:
        problem, _, _, _ = make_motion_problem(rng, n_obs=30, pixel_noise=1.0, perturb_t=0.3)
    monkeypatch.setattr(optimizer, "dr_fold", counted)
    if level == "motion_only":
        _, report = solve_motion_only(**motion_only_args(problem))
    else:
        report = solve(problem)
    assert report.evaluations > 2
    assert len(folds) == (1 + 2 * report.evaluations if level == "chain" else 1)


def _set_point(problem, point):
    # the linearizer's slots and rows are the problem's, both in ascending id
    problem.poses["q"], problem.poses["t"], problem.landmarks["position"] = point


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_poses=st.integers(2, 5),
       perturb=st.sampled_from([0.005, 0.05, 0.2]), with_dr=st.booleans())
def test_cached_linearization_matches_fresh_build(seed, n_poses, perturb, with_dr):
    # every system the loop linearizes from cached residuals equals a fresh
    # build_normal_equations at the same point, block by block
    rng = np.random.default_rng(seed)
    problem, _, _ = make_ba_problem(rng, n_poses=n_poses, n_landmarks=25, pixel_noise=1.0,
                                    pose_perturb=perturb, lm_perturb=perturb,
                                    with_dr_chain=with_dr)
    lin = _Linearizer(problem)
    seen = []
    linearize = lin.linearize

    def recording(point, cache):
        neq = linearize(point, cache)
        seen.append((point, neq))
        return neq
    lin.linearize = recording
    try:
        _levenberg_marquardt(lin, lin.point, SolverConfig(max_iterations=5))
    except Diverged:
        pass
    assert seen
    for point, neq in seen:
        _set_point(problem, point)
        fresh, _ = build_normal_equations(problem)
        for block in BLOCKS:
            assert np.array_equal(system_block(neq, block), system_block(fresh, block)), block


def _watch_linearizers(monkeypatch, stall_after=None):
    """The list that records each linearize call of either linearizer. With
    stall_after, every cost evaluated after that many is infinite, so that a
    solve whose first step was accepted stalls on its second."""
    calls, costs = [], []
    for cls in (_Linearizer, optimizer._PoseLinearizer):
        def linearize(lin, point, cache, original=cls.linearize):
            calls.append(point)
            return original(lin, point, cache)

        def residuals(lin, point, original=cls.residuals):
            cost, cache = original(lin, point)
            costs.append(cost)
            return (math.inf if stall_after and len(costs) > stall_after else cost), cache
        monkeypatch.setattr(cls, "linearize", linearize)
        monkeypatch.setattr(cls, "residuals", residuals)
    return calls


ENDINGS = {"tolerance": ("cost_tolerance", "step_tolerance"), "cap": ("max_iterations",),
           "stall": ("stalled",)}


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("level", ["motion_only", "problem"])
def test_lm_linearizes_only_the_points_it_steps_from(rng, monkeypatch, level, ending):
    # one linearization per iteration, however the solve ends; the first read
    # of the final point's conditioning linearizes that point, unless the
    # solve stalled there with its system in hand, and a second read does
    # not; the value equals a fresh linearization at the solved point, bit
    # for bit
    if level == "motion_only":
        problem, _, _, _ = make_motion_problem(rng, n_obs=30, pixel_noise=1.0, perturb_t=0.3,
                                               perturb_r_deg=5.0)
    else:
        problem, _, _ = make_ba_problem(rng, n_poses=4, n_landmarks=30, pixel_noise=1.0,
                                        pose_perturb=0.05, lm_perturb=0.05, with_dr_chain=True)
    args = motion_only_args(problem) if level == "motion_only" else {}
    config = SolverConfig(max_iterations=2 if ending == "cap" else 20)
    calls = _watch_linearizers(monkeypatch, stall_after=2 if ending == "stall" else None)
    if level == "motion_only":
        pose, report = solve_motion_only(**{**args, "config": config})
    else:
        report = solve(problem, config)
    assert report.termination in ENDINGS[ending]
    assert len(calls) == report.iterations
    eigenvalue = report.min_pose_eigenvalue
    assert len(calls) == report.iterations + (ending != "stall")
    assert np.float64(report.min_pose_eigenvalue).tobytes() == np.float64(eigenvalue).tobytes()
    assert len(calls) == report.iterations + (ending != "stall")
    monkeypatch.undo()
    if level == "motion_only":
        lin = optimizer._PoseLinearizer(args["camera"], args["points"], args["uv"],
                                        1.0 / args["pixel_std"], args["dr"])
        point = (pose.q.tolist(), pose.t.tolist(), pose.rotation_matrix)
        fresh = optimizer._min_eigenvalue(lin.linearize(point, lin.residuals(point)[1])[0])
    else:
        fresh = min_pose_eigenvalue(build_normal_equations(problem)[0])
    assert np.float64(fresh).tobytes() == np.float64(eigenvalue).tobytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200], ids=["inf", "nan", "overflow"])
@pytest.mark.parametrize("level", ["motion_only", "problem"])
def test_non_finite_step_is_rejected_not_raised(rng, monkeypatch, level, bad):
    # a step whose rotation is not finite, or overflows the exponential,
    # retracts to a NaN pose: its cost is NaN, the step is rejected, and the
    # solve goes on with a larger damping
    cls = optimizer._PoseLinearizer if level == "motion_only" else _Linearizer
    step, residuals, costs = cls.step, cls.residuals, []

    def bad_first_step(lin, system, damping):
        d = step(lin, system, damping)
        if len(costs) == 1:
            d = d.copy()
            d[4] = bad
        return d

    def recording(lin, point):
        cost, cache = residuals(lin, point)
        costs.append(cost)
        return cost, cache
    monkeypatch.setattr(cls, "step", bad_first_step)
    monkeypatch.setattr(cls, "residuals", recording)
    if level == "motion_only":
        problem, _, _, _ = make_motion_problem(rng, n_obs=30, pixel_noise=1.0)
        _, report = solve_motion_only(**motion_only_args(problem))
    else:
        problem, _, _ = make_ba_problem(rng, n_poses=3, n_landmarks=20, pixel_noise=1.0,
                                        pose_perturb=0.02, with_dr_chain=True)
        report = solve(problem)
    assert math.isnan(costs[1])
    assert report.rejected_steps >= 1
    assert math.isfinite(report.final_cost) and report.final_cost <= report.initial_cost


class _Arctan:
    """Linearizer of the scalar residual r(x) = atan(x): Gauss-Newton
    overshoots from |x| > 1.39, so steps are rejected until the damping grows."""

    size = dict(free_poses=0, free_landmarks=0, reprojection_rows=1, dr_edges=0)

    def residuals(self, x):
        r = math.atan(x)
        return 0.5 * r * r, r

    def linearize(self, x, r):
        j = 1.0 / (1.0 + x * x)
        return j * j, -j * r

    def step(self, system, damping):
        h, b = system
        return np.array([b / (h + damping)])

    def retract(self, x, step):
        return x + float(step[0])

    def min_pose_eigenvalue(self, system):
        return system[0]


def test_lm_counts_rejected_steps_exactly():
    # from x = 3 the steps at damping 1e-4, 1e-3 and 1e-2 land at x = -9.37,
    # -8.36 and -3.25, all with |atan| above atan(3); the step at 0.1 lands at
    # x = 1.86 and is accepted, halving the damping
    x, report = _levenberg_marquardt(_Arctan(), 3.0, SolverConfig(max_iterations=1))
    assert report.iterations == 1
    assert report.termination == "max_iterations"
    assert report.evaluations == 5
    assert report.rejected_steps == 3
    assert report.final_damping == 1e-4 * 10 * 10 * 10 * 0.5
    assert 1.8 < x < 1.9
    assert report.final_cost == 0.5 * math.atan(x) ** 2


@pytest.mark.parametrize("name, value", [
    ("max_iterations", 0), ("max_iterations", -3),
    ("cost_tolerance", math.nan), ("cost_tolerance", -1e-8), ("cost_tolerance", 1.0),
    ("cost_tolerance", math.inf),
    ("initial_damping", 0.0), ("initial_damping", math.nan),
])
def test_solver_config_rejects_settings_out_of_range(name, value):
    # a NaN or negative tolerance is never met and would run every solve to
    # its cap; a cap of 0 would report a capped solve that never iterated
    with pytest.raises(ValueError, match=name.replace("_", " ")):
        SolverConfig(**{name: value})


def test_solver_config_accepts_the_ends_of_its_ranges():
    SolverConfig(max_iterations=1, cost_tolerance=0.0)
    SolverConfig(cost_tolerance=0.999, initial_damping=optimizer.MAX_DAMPING)


def test_report_telemetry_matches_for_both_linearizers(monkeypatch):
    # a start 0.5 m too close to points 0.3-1.5 m away: the first steps
    # overshoot and are rejected while the cost is still at its start, far
    # above float noise; both linearizers count the same steps
    rng = np.random.default_rng(2)
    gt = random_pose(rng, rot_scale=0.3)
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(1, compose(gt, exp_se3(np.array([-0.2, -0.05, -0.5, 0.25, 0.08, -0.2]))))
    for j in range(12):
        cam = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 1.5)])
        problem.add_landmarks(j, transform_point(gt, cam), fixed=True)
        problem.add_observations(1, j, project(CAMERA, cam))
    args = motion_only_args(problem)
    config = args["config"]
    arrays = solve_motion_only(**args)
    costs = []
    residuals = _Linearizer.residuals

    def recording(lin, point):
        cost, cache = residuals(lin, point)
        costs.append(cost)
        return cost, cache
    monkeypatch.setattr(_Linearizer, "residuals", recording)
    report = solve(problem, config)
    _assert_same_solve(arrays, (problem_pose(problem, 1), report))
    assert report.termination in ("cost_tolerance", "step_tolerance")
    # replay the loop's cost checks: the cost at which each step was rejected
    current, rejected_at = costs[0], []
    for cost in costs[1:]:
        if cost <= current:
            current = cost
        else:
            rejected_at.append(current)
    assert len(rejected_at) == report.rejected_steps > 0
    assert rejected_at[0] > 1e3
    # one evaluation at the start and one per candidate step: accepted or rejected
    assert report.evaluations == 1 + report.iterations + report.rejected_steps
    expected = config.initial_damping
    for _ in range(report.rejected_steps):
        expected *= optimizer.DAMPING_UP
    assert report.final_damping == expected * optimizer.DAMPING_DOWN ** report.iterations


@pytest.mark.parametrize("kind", ["poses", "landmarks"])
def test_problem_keeps_variables_in_ascending_id_and_rejects_an_id_given_twice(rng, kind):
    # one item or several per call, merged by id; an id given twice, within a
    # call or across calls, raises and leaves the variables as they were
    problem = Problem(intrinsics=CAMERA)
    if kind == "poses":
        values = [random_pose(rng) for _ in range(4)]
        add = problem.add_poses
    else:
        values = list(rng.normal(size=(4, 3)))
        add = problem.add_landmarks
    add([5, 2], values[:2], fixed=[True, False])
    add(3, values[2])
    variables = getattr(problem, kind)
    assert variables["id"].tolist() == [2, 3, 5]
    assert variables["fixed"].tolist() == [False, False, True]
    if kind == "poses":
        for pose, slot in zip(values[:3], (2, 0, 1)):
            assert variables["q"][slot].tobytes() == pose.q.tobytes()
            assert variables["t"][slot].tobytes() == pose.t.tobytes()
    else:
        assert variables["position"].tobytes() == np.array([values[1], values[2],
                                                            values[0]]).tobytes()
    name = kind[:-1]
    with pytest.raises(KeyError, match=f"{name} 3 given twice"):
        add(3, values[3])
    with pytest.raises(KeyError, match=f"{name} 7 given twice"):
        add([7, 7], values[2:])
    assert getattr(problem, kind).tobytes() == variables.tobytes()


def _mask_schur_chunks(seen: np.ndarray) -> list:
    """The Schur complement's chunks of landmarks, in order of their first
    observer, each as (landmarks, the rows of the free poses that observe
    them, np.ix_ of those rows), of the (F, L) mask of the free poses that
    observe each free landmark. A landmark no free pose observes is ordered
    as if pose 0 did."""
    if not seen.size:
        return []
    order = np.argsort(seen.argmax(axis=0), kind="stable")
    chunks = []
    for a in range(0, seen.shape[1], optimizer.LANDMARK_CHUNK):
        lms = order[a:a + optimizer.LANDMARK_CHUNK]
        poses = np.flatnonzero(seen[:, lms].any(axis=1))
        if len(poses):
            rows = (6 * poses[:, None] + np.arange(6)).ravel()
            chunks.append((lms, rows, np.ix_(rows, rows)))
    return chunks


def test_chunk_index_from_rows_matches_the_mask_derivation(rng):
    # random pairs of free poses and free landmarks, repeated pairs and
    # landmarks no free pose observes included, and on every fourth draw a
    # few rows of late poses only: the chunks derived from the rows are
    # those of the (F, L) mask, and each chunk's block, summed on its plan's
    # targets, is the dense coupling's cut to its rows and landmarks, bit
    # for bit
    for trial in range(40):
        n, n_l = int(rng.integers(1, 12)), int(rng.integers(1, 200))
        if trial % 4:
            pose = rng.integers(0, n, int(rng.integers(1, 3 * n_l + 1)))
        else:
            pose = rng.integers(n // 2, n, int(rng.integers(1, 4)))
        lm = rng.integers(0, n_l, len(pose))
        seen = np.zeros((n, n_l), dtype=bool)
        seen[pose, lm] = True
        chunks, plan = optimizer._schur_chunks(pose, lm, n_l)
        want = _mask_schur_chunks(seen)
        assert len(chunks) == len(plan) == len(want)
        for (lms, rows, block), expected in zip(chunks, want):
            assert lms.tobytes() == expected[0].tobytes()
            assert rows.tobytes() == expected[1].tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(block, expected[2]))
        blocks = rng.normal(size=(len(pose), 6, 3)) * 10.0 ** rng.integers(-8, 9, (len(pose), 1, 1))
        dense = np.zeros(18 * n * n_l)
        np.add.at(dense, optimizer._scatter_index(18 * n_l * pose + 3 * lm,
                                                  3 * n_l * np.arange(6)[:, None] + np.arange(3)),
                  blocks.reshape(-1))
        dense = dense.reshape(6 * n, n_l, 3)
        for (lms, rows, _), (obs, targets, shape) in zip(chunks, plan):
            got = optimizer._scatter(targets, blocks[obs], math.prod(shape)).reshape(shape)
            assert got.tobytes() == dense[rows].take(lms, axis=1).tobytes()


def _derived_system(lin, point):
    """The system at the point, derived per system: its blocks by name, each
    added in the module's order, one at a time, the coupling dense as Hpl,
    and the chunk index of the mask of the pairs of free poses and free
    landmarks the rows form."""
    _, (visual, rotations, dr) = lin.residuals(point)
    jp, j_lm, rw = optimizer._visual_jacobians(lin.k, visual, lin.inv_std, rotations)
    n, n_l = lin.n_pose_free, lin.n_lm_free
    pose_free, lm_free = lin.row_pose_free, lin.row_lm_free
    hpp, bp = np.zeros((n, 6, n, 6)), np.zeros((n, 6))
    for p in range(n):
        h, g = optimizer._pose_reduction(jp[pose_free == p], rw[pose_free == p])
        hpp[p, :, p] += h
        bp[p] += -g
    if lin.dr.side_edges:
        blocks, grads, cross = lin.dr.normal_blocks(dr)
        index = lin.dr.side_index
        for p, h, g in zip(index, blocks, grads):
            hpp[p, :, p] += h
        for p, g in zip(index, grads):
            bp[p] += -g
        pairs = [(index[f], index[t]) for f, t in zip(lin.dr.cross_from, lin.dr.cross_to)]
        for (a, b), h in zip(pairs, [] if cross is None else cross):
            hpp[a, :, b] += h
        for (a, b), h in zip(pairs, [] if cross is None else cross):
            hpp[b, :, a] += h.T
    hll, bl, hpl = np.zeros((n_l, 3, 3)), np.zeros((n_l, 3)), np.zeros((n, 6, n_l, 3))
    seen = np.zeros((n, n_l), dtype=bool)
    coupling = jp.transpose(0, 2, 1) @ j_lm
    for p, l, j, r, c in zip(pose_free, lm_free, j_lm, rw, coupling):
        if l >= 0:
            hll[l] += np.outer(j[0], j[0]) + np.outer(j[1], j[1])
            bl[l] += -(j[0] * r[0] + j[1] * r[1])
            if p >= 0:
                hpl[p, :, l] += c
                seen[p, l] = True
    blocks = dict(Hpp=hpp.reshape(6 * n, 6 * n), bp=bp.reshape(-1), Hll=hll, bl=bl, Hpl=hpl)
    return blocks, _mask_schur_chunks(seen)


def _plan_problem(rng, case):
    if case == "no_rows":
        problem = Problem(intrinsics=CAMERA)
        for i in range(3):
            problem.add_poses(i, exp_se3(rng.normal(scale=0.05, size=6)), fixed=i == 0)
        for a in range(2):
            problem.add_dr_edges(a, a + 1, [exp_se3(rng.normal(scale=0.05, size=6))],
                                 NOMINAL.precision())
        problem.add_landmarks([0, 1], rng.normal(size=(2, 3)), fixed=[False, True])
        return problem
    problem, _, _ = make_ba_problem(rng, n_poses=6, n_landmarks=150, pixel_noise=0.5,
                                    pose_perturb=0.005, lm_perturb=0.01, obs_per_landmark=3,
                                    with_dr_chain=True)
    if case == "fixed_landmarks":
        set_fixed(problem.landmarks, np.arange(0, 150, 4))
        set_fixed(problem.poses, [3])
    if case == "near_plane":
        # free landmark 150 has one row, behind free pose 3
        problem.add_landmarks(150, transform_point(problem_pose(problem, 3),
                                                   np.array([0.2, -0.1, -1.0])))
        problem.add_observations(3, 150, np.array([CAMERA.cx, CAMERA.cy]))
    return problem


@pytest.mark.parametrize("case", ["dr_chain", "fixed_landmarks", "near_plane", "no_rows"])
def test_plan_gives_the_bytes_of_the_per_system_derivation(rng, case):
    # the chain's edges between free poses add cross blocks; fixed landmarks
    # and a fixed middle pose leave rows out of Hll and Hpl; a row behind the
    # near plane stays in the plan at zero weight; with no rows every block
    # is zero and float64
    problem = _plan_problem(rng, case)
    lin = _Linearizer(problem)
    assert len(lin.dr.cross_from) > 0
    _, cache = lin.residuals(lin.point)
    neq, (want, want_chunks) = lin.linearize(lin.point, cache), _derived_system(lin, lin.point)
    for block in BLOCKS:
        got = system_block(neq, block)
        assert got.dtype == np.float64 and got.shape == want[block].shape, block
        assert got.tobytes() == want[block].tobytes(), block
    assert all(w_c.dtype == np.float64 for w_c in neq.couplings)
    assert len(want_chunks) == len(neq.schur_chunks) == len(neq.couplings)
    for got, expected in zip(neq.schur_chunks, want_chunks):
        lms, rows, (block_rows, block_cols) = got
        assert lms.tobytes() == expected[0].tobytes() and rows.tobytes() == expected[1].tobytes()
        assert block_rows.tobytes() == expected[2][0].tobytes()
        assert block_cols.tobytes() == expected[2][1].tobytes()
    # the plan is built once per solve, and every linearization reads it
    moved = lin.retract(lin.point, np.full(6 * lin.n_pose_free + 3 * lin.n_lm_free, 1e-3))
    for system in (neq, lin.linearize(moved, lin.residuals(moved)[1])):
        assert system.schur_chunks is lin.schur_chunks
    if case == "near_plane":
        # the row behind pose 3 adds exact zeros: its Hpl block is zero, and
        # its landmark's Hll block and gradient are zero
        p, l = lin.free_index[lin.pose_ids == 3][0], lin.lm_free_index[lin.lm_ids == 150][0]
        coupling = dense_coupling(neq)
        assert not coupling[p, :, l].any() and not neq.Hll[l].any() and not neq.bl[l].any()
    if case == "no_rows":
        assert not neq.couplings and not neq.Hll.any() and neq.Hpp.any()
    else:
        assert len(neq.schur_chunks) >= 2


def test_closed_form_landmark_inverse_is_symmetric_and_matches_lapack(rng):
    # random SPD blocks with condition numbers up to 1e8, made exactly
    # symmetric; the closed form is exactly symmetric and within 1e-12 cond
    # of LAPACK's inverse
    n = 500
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    eig = 10.0 ** rng.uniform(-4, 4, size=(n, 3))
    blocks = np.einsum("nij,nj,nkj->nik", q, eig, q)
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    inverse_blocks = optimizer._inverse_3x3(blocks)
    assert inverse_blocks.tobytes() == inverse_blocks.transpose(0, 2, 1).copy().tobytes()
    want = np.linalg.inv(blocks)
    cond = np.linalg.cond(blocks)
    error = np.abs(inverse_blocks - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert np.all(error <= 1e-12 * cond)


def test_zero_landmark_block_at_zero_damping_raises_singular_system():
    problem = Problem(intrinsics=CAMERA)
    problem.add_poses(0, Pose.identity(), fixed=True)
    problem.add_poses(1, Pose.identity())
    problem.add_landmarks([0, 1], np.array([[0.0, 0.0, 3.0], [0.1, 0.0, 3.0]]))
    problem.add_observations(1, 0, np.array([322.0, 239.0]))
    neq, _ = build_normal_equations(problem)
    assert not neq.Hll[1].any()
    with pytest.raises(SingularSystem):
        optimizer._inverse_3x3(np.zeros((1, 3, 3)))
    with pytest.raises(SingularSystem):
        schur_solve(neq, 0.0)
    assert np.all(np.isfinite(schur_solve(neq, 1e-4)))


_THREAD_SCRIPT = """
import hashlib
import numpy as np
from conftest import build_normal_equations, make_ba_problem
from drslam.optimizer import schur_solve
problem, _, _ = make_ba_problem(np.random.default_rng(7), n_poses=12, n_landmarks=150,
                                pixel_noise=0.5, pose_perturb=0.01, lm_perturb=0.02,
                                with_dr_chain=True)
neq, _ = build_normal_equations(problem)
assert neq.n_pose_free == 11 and neq.n_lm_free == 150, (neq.n_pose_free, neq.n_lm_free)
print(hashlib.sha256(b"".join(schur_solve(neq, d).tobytes() for d in (0.0, 1e-4, 1.0))).hexdigest())
"""


def test_schur_step_bytes_do_not_depend_on_the_blas_thread_count():
    # the reduced camera system of 66 unknowns is factorized the same way on
    # one or two threads, so a BLAS product in the elimination would show
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env, cwd=here,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def _chain_problem(rng, n_free=120, per_window=13):
    """A chain of n_free free poses after one fixed pose, stepping 0.1 m
    along x and looking along z: each window of three consecutive poses sees
    per_window landmarks of its own, 3-6 m ahead, so every landmark has
    three rows, and a DR edge joins each pose to the next."""
    n = n_free + 1
    truth = [Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1 * i, 0.0, 0.0]))
             for i in range(n)]
    problem = Problem(intrinsics=CAMERA, pixel_std=1.0)
    problem.add_poses(np.arange(n), [truth[0]] + [
        compose(pose, exp_se3(rng.normal(scale=1e-3, size=6))) for pose in truth[1:]],
        fixed=np.arange(n) == 0)
    n_windows = n - 2
    positions = np.column_stack([
        0.1 * (np.repeat(np.arange(n_windows), per_window) + 1)
        + rng.uniform(-1.0, 1.0, n_windows * per_window),
        rng.uniform(-1.0, 1.0, n_windows * per_window),
        rng.uniform(3.0, 6.0, n_windows * per_window)])
    problem.add_landmarks(np.arange(len(positions)), positions + rng.normal(scale=0.01,
                                                                             size=positions.shape))
    lms = np.arange(len(positions))
    for k in range(3):
        poses = lms // per_window + k
        uv = np.array([project(CAMERA, transform_point(inverse(truth[p]), x))
                       for p, x in zip(poses, positions)])
        problem.add_observations(poses, lms, uv + rng.normal(scale=0.5, size=uv.shape))
    problem.add_dr_edges(np.arange(n - 1), np.arange(1, n),
                         [compose(inverse(a), b) for a, b in zip(truth, truth[1:])],
                         NOMINAL.precision())
    return problem


def test_ba_solve_memory_follows_its_rows_not_poses_times_landmarks(rng):
    # 120 free poses, 1,547 landmarks, 4,641 rows. The solve holds a few
    # copies of the reduced camera system S (6F x 6F, 4.15 MB: Hpp, its
    # damped copy and the LU's) and arrays per row or per Schur chunk;
    # measured, its traced peak is 13.3 MB, 3.2 copies of S. The bound is
    # four copies and 1 KB per row, 21.4 MB. A dense pose-landmark coupling
    # alone would be 120 * 18 * 1,547 * 8 B = 26.7 MB; with it the peak was
    # 39.9 MB.
    problem = _chain_problem(rng)
    rows, n_p = len(problem.reprojection_factors), 6 * 120
    assert (len(problem.landmarks), rows) == (1547, 4641)
    tracemalloc.start()
    try:
        report = solve(problem, SolverConfig(max_iterations=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.iterations == 3 and report.final_cost < report.initial_cost
    s_bytes = 8 * n_p * n_p
    assert peak < 4 * s_bytes + 1024 * rows, peak / 1e6
