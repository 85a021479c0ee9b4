import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from conftest import (CAMERA, adjoint, build_normal_equations, dense_solve, dense_system,
                      edge_jacobians, edge_residual, edge_residuals, landmark_position,
                      make_ba_problem, motion_only_args, problem_pose, random_pose, set_fixed,
                      set_problem_pose)
from drslam.errors import Diverged, NoConstraints, NotPositiveDefinite
from drslam.factors import (
    HUBER_PIXEL_SCALE,
    dr_fold,
    dr_jacobians,
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
# increment's inverse and its adjoint, the previous pose's inverse, the fold
# delta^-1 previous^-1 and the folded pose's rotation.
DR_SOLVE_ROTATIONS = 5


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


@pytest.mark.parametrize("name, value", [("pixel_std", 0.0), ("pixel_std", -1.5),
                                         ("huber_threshold", 0.0)])
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
        _, w = huber(np.linalg.norm(r_w), problem.huber_threshold)
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
    assert neq.Hpl.shape == (1, 6, 1, 3)
    for got, want in ((neq.Hpp, hpp), (neq.Hll[0], hll), (neq.Hpl[0, :, 0, :], hpl),
                      (neq.bp, bp), (neq.bl[0], bl)):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def direct_normal_equations(problem):
    """H = J^T W J and b = -J^T W r over the free variables, one row or edge at
    a time, with J from the factor kernels and W from huber or the information.
    Rows at or behind the near plane are skipped, as the solver skips them."""
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
        _, w = huber(np.linalg.norm(r[0]) / problem.pixel_std, problem.huber_threshold)
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

    n_p = 6 * neq.n_pose_free
    assert neq.Hpl.shape == (3, 6, 7 if near_plane else 5, 3)
    if near_plane:
        # landmarks 6 and 7 have only inactive rows
        assert not neq.Hll[5:].any() and not neq.Hpl[:, :, 5:].any()
    scale = np.max(np.abs(h))
    assert np.allclose(neq.Hpl.reshape(n_p, -1), h[:n_p, n_p:], rtol=1e-12, atol=1e-12 * scale)
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
                          1.0, HUBER_PIXEL_SCALE, None, SolverConfig())


@pytest.mark.parametrize("value", [0.0, -1.0, np.zeros(0)], ids=["zero", "negative", "empty"])
@pytest.mark.parametrize("name", ["pixel_std", "huber_threshold"])
def test_motion_only_rejects_pixel_model_that_is_not_a_positive_scalar(rng, name, value):
    # the motion-only solve checks its pixel std and Huber threshold as
    # Problem.validate does, and raises the same error
    problem, _, _, _ = make_motion_problem(rng, n_obs=10)
    args = motion_only_args(problem)
    args[name] = value
    setattr(problem, name, value)
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
        a, b = random_pose(rng), random_pose(rng)
        delta_inv = inverse(random_pose(rng, rot_scale=0.3))
        ad = adjoint(delta_inv)[None]
        sqrt_p = np.sqrt(p)[None]
        left = dr_fold(a.q[None], a.t[None], delta_inv.q[None], delta_inv.t[None])
        log, rw, _ = optimizer._dr_whitened_residuals(*left, b.q[None], b.t[None], sqrt_p)
        jw_from, jw_to = optimizer._dr_whitened_jacobians(log, ad, sqrt_p, slice(None),
                                                          slice(None))
        r, _, theta, c = log
        j_from, j_to = dr_jacobians(r, theta, c, ad)
        u = np.linalg.cholesky(np.diag(p)).T
        for whitened, raw in ((rw, r), (jw_from, j_from), (jw_to, j_to)):
            assert (u @ raw[0]).tobytes() == whitened[0].tobytes()
        mahalanobis = r[0] @ np.diag(p) @ r[0]
        assert abs(rw[0] @ rw[0] - mahalanobis) <= 1e-12 * mahalanobis


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
        for block in ("Hpp", "bp", "Hll", "bl", "Hpl"):
            assert np.array_equal(getattr(neq, block), getattr(fresh, block)), block


class _Arctan:
    """Linearizer of the scalar residual r(x) = atan(x): Gauss-Newton
    overshoots from |x| > 1.39, so steps are rejected until the damping grows."""

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
