import numpy as np
import pytest

from drslam.factors import dr_fold, dr_jacobians, dr_residuals
from drslam.geometry import (CameraIntrinsics, Pose, adjoint, exp_se3, compose,
                             inverse, project, transform_point)
from drslam.optimizer import Problem
from drslam.pipeline import PipelineParams
from drslam.weighting import NominalDrInformation

CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def random_twist(rng, rot_scale=0.5, trans_scale=1.0) -> np.ndarray:
    phi = rng.normal(size=3)
    phi = phi / np.linalg.norm(phi) * rng.uniform(0, rot_scale)
    return np.concatenate([rng.normal(scale=trans_scale, size=3), phi])


def random_pose(rng, rot_scale=0.5, trans_scale=1.0) -> Pose:
    return exp_se3(random_twist(rng, rot_scale, trans_scale))


def edge_residuals(pose_from, pose_to, delta):
    """Batched DR kernel on edges given as Pose lists, folded as the solver
    folds them: residuals (E, 6), near-pi mask and the log's angle terms (E,)."""
    inv = [inverse(d) for d in delta]
    left = dr_fold(np.array([p.q for p in pose_from]), np.array([p.t for p in pose_from]),
                   np.array([d.q for d in inv]), np.array([d.t for d in inv]))
    return dr_residuals(*left, np.array([p.q for p in pose_to]), np.array([p.t for p in pose_to]))


def edge_residual(pose_from: Pose, pose_to: Pose, delta: Pose) -> np.ndarray:
    """Residual (6,) of one DR edge through the batched kernel."""
    return edge_residuals([pose_from], [pose_to], [delta])[0][0]


def edge_jacobians(pose_from: Pose, pose_to: Pose, delta: Pose):
    """From- and to-Jacobians (6, 6) of one DR edge through the batched kernel."""
    r, near_pi, theta, c = edge_residuals([pose_from], [pose_to], [delta])
    assert not near_pi[0]
    j_from, j_to = dr_jacobians(r, theta, c, adjoint(inverse(delta))[None])
    return j_from[0], j_to[0]


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
        problem.add_pose(i, init, fixed=anchored)
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


def motion_only_args(problem):
    """Keyword arguments of solve_motion_only equivalent to a Problem with one
    free pose, fixed landmarks and at most one DR edge from a fixed pose; rows
    in the problem's row order, solved under tracking's solver configuration."""
    (pid,) = [i for i, v in problem.poses.items() if not v.fixed]
    rows = problem.reprojection_factors
    dr = None
    if len(problem.dr_factors):
        (f,) = problem.dr_factors
        assert f["to"] == pid and problem.poses[f["from"]].fixed
        dr = (problem.poses[f["from"]].pose, Pose(f["q"], f["t"]), f["precision"])
    return dict(camera=problem.intrinsics, pose=problem.poses[pid].pose,
                points=np.array([problem.landmarks[j].position
                                 for j in rows["landmark"].tolist()]).reshape(-1, 3),
                uv=rows["uv"], pixel_std=problem.pixel_std,
                huber_threshold=problem.huber_threshold, dr=dr,
                config=PipelineParams().motion_solver)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
