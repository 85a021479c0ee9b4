import numpy as np
import pytest

from drslam.errors import SingularSystem
from drslam import factors, optimizer
from drslam.factors import dr_fold, dr_jacobians, dr_residual
from drslam.geometry import (CameraIntrinsics, Pose, exp_se3, compose, inverse, matrix_product,
                             project, se3_adjoint, se3_inverse, transform_point)
from drslam.optimizer import NormalEquations, Problem, _Linearizer
from drslam.pipeline import PipelineParams
from drslam.weighting import NominalDrInformation

CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def random_twist(rng, rot_scale=0.5, trans_scale=1.0) -> np.ndarray:
    phi = rng.normal(size=3)
    phi = phi / np.linalg.norm(phi) * rng.uniform(0, rot_scale)
    return np.concatenate([rng.normal(scale=trans_scale, size=3), phi])


def random_pose(rng, rot_scale=0.5, trans_scale=1.0) -> Pose:
    return exp_se3(random_twist(rng, rot_scale, trans_scale))


def build_normal_equations(problem: Problem):
    """Linearize at the problem's current variables; returns (neq, cost)."""
    lin = _Linearizer(problem)
    cost, cache = lin.residuals(lin.point)
    return lin.linearize(lin.point, cache), cost


def dense_system(neq: NormalEquations, damping: float = 0.0):
    """The full system (H, b) of the block normal equations, H damped on its diagonal."""
    n = 6 * neq.n_pose_free + 3 * neq.n_lm_free
    H = np.zeros((n, n))
    b = np.zeros(n)
    np_ = 6 * neq.n_pose_free
    H[:np_, :np_] = neq.Hpp
    b[:np_] = neq.bp
    for j in range(neq.n_lm_free):
        s = np_ + 3 * j
        H[s:s + 3, s:s + 3] = neq.Hll[j]
        b[s:s + 3] = neq.bl[j]
    H[:np_, np_:] = neq.Hpl.reshape(np_, 3 * neq.n_lm_free)
    H[np_:, :np_] = H[:np_, np_:].T
    if damping:
        H = H + damping * np.eye(n)
    return H, b


def dense_solve(neq: NormalEquations, damping: float = 0.0) -> np.ndarray:
    """The step of the full system, the oracle of schur_solve."""
    H, b = dense_system(neq, damping)
    if H.shape[0] == 0:
        return np.zeros(0)
    try:
        return np.linalg.solve(H, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystem("dense system is singular") from e


def edge_log(pose_from: Pose, pose_to: Pose, delta: Pose):
    """dr_residual of one DR edge given as Poses, folded as the solver folds
    it: the residual (6 floats), its near-pi flag and the log's angle terms."""
    left = dr_fold(pose_from.q.tolist(), pose_from.t.tolist(),
                   *se3_inverse(delta.q.tolist(), delta.t.tolist()))
    return dr_residual(*left, pose_to.q.tolist(), pose_to.t.tolist())


def edge_residuals(pose_from, pose_to, delta):
    """The DR kernel on edges given as Pose lists, one call per edge, stacked:
    residuals (E, 6), near-pi mask and the log's angle terms (E,)."""
    return tuple(np.array(column) for column in
                 zip(*(edge_log(*edge) for edge in zip(pose_from, pose_to, delta))))


def edge_residual(pose_from: Pose, pose_to: Pose, delta: Pose) -> np.ndarray:
    """Residual (6,) of one DR edge."""
    return np.array(edge_log(pose_from, pose_to, delta)[0])


def edge_jacobians(pose_from: Pose, pose_to: Pose, delta: Pose):
    """From- and to-Jacobians (6, 6) of one DR edge."""
    log = edge_log(pose_from, pose_to, delta)
    assert not log[1]
    delta_inv = se3_inverse(delta.q.tolist(), delta.t.tolist())
    j_from, j_to = dr_jacobians(log, se3_adjoint(*delta_inv[:2]), True)
    return np.reshape(j_from, (6, 6)), np.reshape(j_to, (6, 6))


def dr_edge(pose_from: Pose, pose_to: Pose, delta: Pose, precision):
    """One DR edge between two free poses, slots 0 and 1, as the solver
    holds it, evaluated at the poses: the edge holder, its residuals (one
    (dr_residual output, whitened residual)) and its cost."""
    qs, ts = [pose_from.q.tolist(), pose_to.q.tolist()], [pose_from.t.tolist(), pose_to.t.tolist()]
    edges = optimizer._DREdges([0], [1], [0, 1], qs, ts, delta.q[None], delta.t[None], precision)
    cost, dr = edges.residuals(qs, ts, 0.0)
    return edges, dr, cost


def to_jacobian_at_minus_r(log) -> tuple:
    """Jr^-1(r) of a residual r formed as Jl^-1(-r) = [[J, -J Q J], [0, J]],
    J and Q taken at -r: the oracle of dr_jacobians' to side, which forms
    it from J and Q at r (36 floats, row-major 6x6)."""
    r, _, theta, c = log
    j, coupling = factors._left_jacobian_blocks([-x for x in r], theta, c)
    return factors._six_by_six(j, tuple(-x for x in matrix_product(j, matrix_product(coupling, j))),
                               j)


def make_ba_problem(rng, n_poses=5, n_landmarks=50, pixel_noise=0.0,
                    pose_perturb=0.0, lm_perturb=0.0,
                    fix_landmarks=False, obs_per_landmark=None,
                    with_dr_chain=False):
    """Synthetic BA problem: poses on a gentle arc observing a point cloud.

    Returns (problem, gt_poses, gt_landmarks). Observations are exact
    projections plus optional pixel noise; initial variables are ground truth
    plus optional tangent/position perturbations. Landmarks that end up with
    fewer than two observations are dropped (matching the map-culling rule),
    so the returned problem has no under-constrained depth directions.
    """
    gt_poses = []
    for i in range(n_poses):
        xi = np.array([0.25 * i, 0.02 * i, 0.0, 0.0, 0.05 * i, 0.0])
        gt_poses.append(exp_se3(xi))
    centers = np.array([p.t for p in gt_poses]).mean(axis=0)
    candidates = centers + np.column_stack([
        rng.uniform(-2.0, 2.0 + 0.25 * n_poses, 3 * n_landmarks),
        rng.uniform(-1.5, 1.5, 3 * n_landmarks),
        rng.uniform(2.5, 6.0, 3 * n_landmarks),
    ])

    observations = []
    gt_landmarks = []
    for lm in candidates:
        if len(gt_landmarks) >= n_landmarks:
            break
        observers = range(n_poses) if obs_per_landmark is None else \
            sorted(rng.choice(n_poses, size=min(obs_per_landmark, n_poses), replace=False))
        obs_here = []
        for i in observers:
            cam = transform_point(inverse(gt_poses[i]), lm)
            if cam[2] < 0.3:
                continue
            uv = project(CAMERA, cam)
            if not (0 <= uv[0] < CAMERA.width and 0 <= uv[1] < CAMERA.height):
                continue
            obs = uv + rng.normal(scale=pixel_noise, size=2) if pixel_noise else uv
            obs_here.append((i, obs))
        if len(obs_here) < 2:
            continue
        j = len(gt_landmarks)
        gt_landmarks.append(lm)
        observations.extend((i, j, obs) for i, obs in obs_here)

    problem = Problem(intrinsics=CAMERA, pixel_std=max(pixel_noise, 1.0))
    for i, gt in enumerate(gt_poses):
        anchored = i == 0
        init = gt if (pose_perturb == 0 or anchored) else \
            compose(gt, exp_se3(rng.normal(scale=pose_perturb, size=6)))
        problem.add_poses(i, init, fixed=anchored)
    for j, gt in enumerate(gt_landmarks):
        init = gt if lm_perturb == 0 else gt + rng.normal(scale=lm_perturb, size=3)
        problem.add_landmarks(j, init, fixed=fix_landmarks)
    for i, j, obs in observations:
        problem.add_observations(i, j, obs)
    if with_dr_chain:
        info = NominalDrInformation().precision()
        for i in range(n_poses - 1):
            delta = compose(inverse(gt_poses[i]), gt_poses[i + 1])
            problem.add_dr_edges(i, i + 1, [delta], info)
    return problem, gt_poses, np.array(gt_landmarks)


def _slot(variables, var_id) -> int:
    (slot,) = np.flatnonzero(variables["id"] == var_id)
    return int(slot)


def problem_pose(problem, pose_id) -> Pose:
    """The problem's pose of id pose_id."""
    row = problem.poses[_slot(problem.poses, pose_id)]
    return Pose(row["q"], row["t"])


def set_problem_pose(problem, pose_id, pose: Pose) -> None:
    slot = _slot(problem.poses, pose_id)
    problem.poses["q"][slot], problem.poses["t"][slot] = pose.q, pose.t


def landmark_position(problem, lm_id) -> np.ndarray:
    """The problem's position of landmark lm_id."""
    return problem.landmarks["position"][_slot(problem.landmarks, lm_id)]


def set_fixed(variables, var_ids) -> None:
    """Holds the pose or landmark variables of ids var_ids fixed."""
    variables["fixed"][np.isin(variables["id"], var_ids)] = True


def motion_only_args(problem):
    """Keyword arguments of solve_motion_only equivalent to a Problem with one
    free pose, fixed landmarks and at most one DR edge from a fixed pose; rows
    in the problem's row order, solved under tracking's solver configuration."""
    (pid,) = problem.poses["id"][~problem.poses["fixed"]].tolist()
    rows = problem.reprojection_factors
    dr = None
    if len(problem.dr_factors):
        (f,) = problem.dr_factors
        assert f["to"] == pid and problem.poses["fixed"][_slot(problem.poses, f["from"])]
        dr = (problem_pose(problem, f["from"]), Pose(f["q"], f["t"]), f["precision"])
    return dict(camera=problem.intrinsics, pose=problem_pose(problem, pid),
                points=np.array([landmark_position(problem, j)
                                 for j in rows["landmark"].tolist()]).reshape(-1, 3),
                uv=rows["uv"], pixel_std=problem.pixel_std,
                huber_threshold=problem.huber_threshold, dr=dr,
                config=PipelineParams().motion_solver)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
