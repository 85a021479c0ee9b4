"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Seeds and tolerances are
pinned here; everything is deterministic.
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import (CAMERA, build_normal_equations, dense_solve, edge_jacobians, edge_residual,
                      make_ba_problem, random_pose)
from drslam.cli import main as cli_main, resolve_config_path
from drslam.config import parse_config
from drslam.evaluation import (
    Trajectory,
    alpha_sweep,
    ape_rmse,
    baseline_rmse,
    gt_trajectory,
    repeat_run,
)
from drslam.factors import HUBER_PIXEL_SCALE, reprojection_jacobians, reprojection_residuals
from drslam.geometry import compose, exp_se3, inverse, project, transform_point
from drslam.optimizer import Problem, schur_solve, solve_motion_only
from drslam.pipeline import PipelineParams, run_pipeline
from drslam.simulator import WorldConfig, simulate_sequence
from drslam.weighting import (
    NominalDrInformation,
    QualityParams,
    TrackingStats,
    WeightBounds,
    compute_quality,
    dr_weight,
    scale_information,
)

BOUNDS = WeightBounds()
NOMINAL = NominalDrInformation()
QPARAMS = QualityParams()

GAP_START, GAP_END = 295, 324  # corridor_gap blackout, inclusive
SEEDS = (0, 1, 2, 3, 4)


def report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}  {label}: {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def load_scenario(name):
    return parse_config(resolve_config_path(name))


def simulate_scenario(name, seed):
    config = load_scenario(name)
    return simulate_sequence(config.world_config(seed=seed)), config.pipeline_params()


def test_criterion_01_weighting_exactness():
    t0 = time.time()
    exact = (abs(dr_weight(1.0, BOUNDS) - 0.1) < 1e-15
             and abs(dr_weight(0.0, BOUNDS) - 1000.0) < 1e-12
             and abs(dr_weight(0.5, BOUNDS) - 10.0) < 1e-12)
    q_ok = (compute_quality(TrackingStats(600, 120), QPARAMS) == pytest.approx(1.0)
            and compute_quality(TrackingStats(0, 0), QPARAMS) == 0.0
            and compute_quality(TrackingStats(300, 60), QPARAMS) == pytest.approx(0.5)
            and compute_quality(TrackingStats(1200, 240), QPARAMS) == pytest.approx(1.0))
    qs = np.linspace(0.0, 1.0, 11)
    logs = np.log([dr_weight(q, BOUNDS) for q in qs])
    fit = np.polyfit(qs, logs, 1)
    residual = float(np.max(np.abs(logs - np.polyval(fit, qs))))
    elapsed = time.time() - t0
    report(1, "weighting formula exactness",
           exact and q_ok and residual < 1e-12 and elapsed < 1.0,
           f"bounds exact, quality examples exact, log-affine residual "
           f"{residual:.2e}, {elapsed:.2f}s")


def _fd_jacobian(fun, dim, step=1e-6):
    cols = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = step
        cols.append((fun(e) - fun(-e)) / (2 * step))
    return np.stack(cols, axis=1)


def _rel(analytic, numeric):
    return np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1.0)


def _reprojection(pose, lm, obs):
    return reprojection_residuals(CAMERA, pose.rotation_matrix, pose.t, lm[None], obs[None])[1][0]


def test_criterion_02_jacobian_suite():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        pose = random_pose(rng)
        u, v = rng.uniform(80, 560), rng.uniform(60, 420)
        z = rng.uniform(1.0, 6.0)
        cam = np.array([(u - CAMERA.cx) * z / CAMERA.fx, (v - CAMERA.cy) * z / CAMERA.fy, z])
        lm = transform_point(pose, cam)
        obs = project(CAMERA, transform_point(inverse(pose), lm)) + rng.normal(scale=2, size=2)
        y, _ = reprojection_residuals(CAMERA, pose.rotation_matrix, pose.t, lm[None], obs[None])
        j_pose, j_lm = (j[0] for j in reprojection_jacobians(CAMERA, y, pose.rotation_matrix))
        worst = max(worst, _rel(j_pose, _fd_jacobian(
            lambda d: _reprojection(compose(pose, exp_se3(d)), lm, obs), 6)))
        worst = max(worst, _rel(j_lm, _fd_jacobian(
            lambda d: _reprojection(pose, lm + d, obs), 3)))
    for _ in range(100):
        pf, pt = random_pose(rng, rot_scale=1.0), random_pose(rng, rot_scale=1.0)
        delta = random_pose(rng, rot_scale=1.0)
        j_from, j_to = edge_jacobians(pf, pt, delta)
        worst = max(worst, _rel(j_from, _fd_jacobian(
            lambda d: edge_residual(compose(pf, exp_se3(d)), pt, delta), 6)))
        worst = max(worst, _rel(j_to, _fd_jacobian(
            lambda d: edge_residual(pf, compose(pt, exp_se3(d)), delta), 6)))
    elapsed = time.time() - t0
    report(2, "analytic Jacobians vs central differences",
           worst < 1e-5 and elapsed < 5.0,
           f"worst relative error {worst:.2e} over 100+100 configurations, {elapsed:.1f}s")


def test_criterion_03_schur_matches_dense():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n_poses = int(rng.integers(2, 11))
        n_lms = int(rng.integers(10, 51))
        problem, _, _ = make_ba_problem(
            rng, n_poses=n_poses, n_landmarks=n_lms, pixel_noise=0.5,
            pose_perturb=0.005, lm_perturb=0.01,
            obs_per_landmark=int(rng.integers(2, n_poses + 1)), with_dr_chain=True)
        neq, _ = build_normal_equations(problem)
        step_s = schur_solve(neq, 1e-4)
        step_d = dense_solve(neq, 1e-4)
        worst = max(worst, float(np.max(np.abs(step_s - step_d))
                                 / max(np.max(np.abs(step_d)), 1e-12)))
    elapsed = time.time() - t0
    report(3, "Schur step equals dense solve",
           worst < 1e-8 and elapsed < 10.0,
           f"worst relative step difference {worst:.2e} over 20 problems, {elapsed:.1f}s")


def test_criterion_04_hessian_linear_in_alpha():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        delta = random_pose(rng, rot_scale=0.5)
        w0 = NOMINAL.precision()

        def hpp(alpha):
            problem = Problem(intrinsics=CAMERA)
            problem.add_poses(0, a)
            problem.add_poses(1, b)
            problem.add_dr_edges(0, 1, [delta], alpha * w0)
            return build_normal_equations(problem)[0].Hpp

        a1, a2 = 10.0 ** rng.uniform(-1, 2), 10.0 ** rng.uniform(2, 3)
        jf, jt = edge_jacobians(a, b, delta)
        j = np.hstack([jf, jt])
        expected = (a2 - a1) * (j.T @ np.diag(w0) @ j)
        got = hpp(a2) - hpp(a1)
        worst = max(worst, float(np.max(np.abs(got - expected)) / np.max(np.abs(expected))))
    report(4, "adaptive Hessian linear in the DR weight",
           worst < 1e-10,
           f"worst relative deviation {worst:.2e} over 20 linearization points")


def test_criterion_05_conditioning_guarantee():
    rng = np.random.default_rng(5)
    ok = True
    detail = ""
    for _ in range(10):
        prev = random_pose(rng)
        delta = exp_se3(np.array([0.03, 0.001, 0.01, 0.002, 0.01, 0.001]))
        prediction = compose(prev, delta)
        start = compose(prediction, exp_se3(rng.normal(scale=0.02, size=6)))
        precision = scale_information(dr_weight(0.0, BOUNDS), NOMINAL)
        pose, rep = solve_motion_only(CAMERA, start, np.zeros((0, 3)), np.zeros((0, 2)),
                                      1.0, HUBER_PIXEL_SCALE, dr=(prev, delta, precision),
                                      config=PipelineParams().motion_solver)
        err = np.linalg.norm(pose.t - prediction.t)
        rot = compose(inverse(pose), prediction).rotation_angle()
        floor = 0.99 * BOUNDS.alpha_max * NOMINAL.precision().min()
        if err > 1e-9 or rot > 1e-9 or rep.min_pose_eigenvalue < floor:
            ok = False
        detail = (f"min eig {rep.min_pose_eigenvalue:.3e} >= {floor:.3e}, "
                  f"|pose - prediction| {err:.1e} m / {rot:.1e} rad")
    report(5, "DR-only conditioning guarantee", ok, detail)


def _gap_drift(frames):
    fa, fb = frames[GAP_START - 1], frames[GAP_END]
    est_rel = np.linalg.inv(fa.pose.matrix()) @ fb.pose.matrix()
    gt_rel = np.linalg.inv(fa.gt_pose.matrix()) @ fb.gt_pose.matrix()
    return float(np.linalg.norm(est_rel[:3, 3] - gt_rel[:3, 3]))


def test_criterion_06_degradation_scenario():
    t0 = time.time()
    g = GAP_END - GAP_START + 1
    bound = 3.0 * math.sqrt(g) * 0.004
    lost = 0
    adaptive_ok = 0
    details = []
    for seed in SEEDS:
        seq, params = simulate_scenario("corridor_gap", seed)
        vis = run_pipeline(seq, params, "vision-only")
        if vis.track_lost_frame is not None:
            lost += 1
        ada = run_pipeline(seq, params, "adaptive")
        ape = ape_rmse(Trajectory.from_rows(ada.frame_trajectory()), gt_trajectory(seq))
        drift = _gap_drift(ada.frames)
        complete = (ada.track_lost_frame is None and ape <= 0.15 and drift <= bound)
        adaptive_ok += complete
        details.append(f"s{seed}: ape={ape:.3f} drift={drift:.3f}")
    elapsed = time.time() - t0
    ok = lost >= 4 and adaptive_ok == 5 and elapsed < 120.0
    report(6, "corridor blackout: vision-only fails, adaptive completes", ok,
           f"vision-only lost {lost}/5, adaptive complete {adaptive_ok}/5 "
           f"(drift bound {bound:.4f}), {elapsed:.0f}s | " + " ".join(details))


GOOD_SEGMENT = (40, 104)
POOR_SEGMENT = (270, 360)
SWEEP_ALPHAS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def test_criterion_07_alpha_sweep_shape():
    t0 = time.time()
    seq, params = simulate_scenario("corridor_gap", 0)
    results = {}
    for name, seg in (("good", GOOD_SEGMENT), ("poor", POOR_SEGMENT)):
        rows = alpha_sweep(seq, SWEEP_ALPHAS, repeats=5, params=params, frame_range=seg)
        med = {r.log_alpha: r.median for r in rows}
        vis = float(np.median(baseline_rmse(seq, "vision-only", 5, params, frame_range=seg)))
        dr = float(np.median(baseline_rmse(seq, "dr-only", 5, params, frame_range=seg)))
        results[name] = (med, vis, dr)
    med, vis, dr = results["good"]
    low_end = abs(med[-2.0] - vis) / vis
    high_end = abs(med[3.0] - dr) / dr
    medp, visp, _ = results["poor"]
    poor_ok = all(medp[a] < visp for a in (1.0, 2.0, 3.0))
    elapsed = time.time() - t0
    ok = low_end <= 0.05 and high_end <= 0.10 and poor_ok and elapsed < 600.0
    report(7, "weight sweep endpoints and poor-segment ordering", ok,
           f"good: a=-2 within {low_end * 100:.1f}% of vision-only, "
           f"a=3 within {high_end * 100:.1f}% of dr-only; "
           f"poor: medians at a>=1 all below vision-only ({poor_ok}); {elapsed:.0f}s")


def test_criterion_08_loop_closure_improvement():
    t0 = time.time()
    reductions = []
    for seed in SEEDS:
        seq, params = simulate_scenario("rectangle_loop", seed)
        res = run_pipeline(seq, params, "adaptive")
        assert res.gba_events, f"no loop closure fired on seed {seed}"
        ev = res.gba_events[0]
        gt = gt_trajectory(seq)
        pre = ape_rmse(Trajectory.from_rows(ev.pre_keyframes), gt)
        post = ape_rmse(Trajectory.from_rows(ev.post_keyframes), gt)
        reductions.append(1.0 - post / pre)
    ok = all(r >= 0.30 for r in reductions)
    elapsed = time.time() - t0
    report(8, "global BA reduces keyframe APE on loop closure", ok,
           "reductions " + " ".join(f"{r * 100:.0f}%" for r in reductions)
           + f" (need >= 30% on 5/5), {elapsed:.0f}s")


def test_criterion_09_repeat_run_ratio():
    t0 = time.time()
    seq, params = simulate_scenario("two_lap", 0)
    ada, _ = repeat_run(seq, 3, params, "adaptive")
    da, _ = repeat_run(seq, 3, params, "da-only")
    r_ada = ada[1].ratio
    r_da = da[1].ratio
    elapsed = time.time() - t0
    ok = r_ada <= 1.5 and r_ada < r_da and elapsed < 300.0
    report(9, "repeat-run frame/keyframe ratio, adaptive vs DA-only", ok,
           f"loop-2 R(F/KF): adaptive {r_ada:.3f} (<= 1.5), da-only {r_da:.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    cfg = resolve_config_path("corridor_gap")
    overrides = ["--set", "world.n_frames=150", "--set", "world.dropouts=60:75:0:0"]
    seq_a, seq_b = str(tmp_path / "sa"), str(tmp_path / "sb")
    for seq_dir in (seq_a, seq_b):
        assert cli_main(["simulate", "--config", cfg, "--out", seq_dir,
                         "--seed", "1", *overrides]) == 0
    mismatches = []
    pairs = []
    for cmd, outputs in (
        (["run", "--mode", "adaptive"], ("est_frames.tum", "est_keyframes.tum",
                                         "run_log.csv", "map.gwmap", "metrics.csv")),
        (["sweep", "--alphas=-1,2", "--repeats", "2"], ("sweep.csv",)),
        (["repeat", "--loops", "2"], ("repeat.csv", "est_frames.tum")),
    ):
        da, db = str(tmp_path / f"{cmd[0]}_a"), str(tmp_path / f"{cmd[0]}_b")
        cli_main([cmd[0], "--seq", seq_a, "--out", da, "--config", cfg,
                  *cmd[1:], *overrides])
        cli_main([cmd[0], "--seq", seq_b, "--out", db, "--config", cfg,
                  *cmd[1:], *overrides])
        for name in outputs:
            a = open(os.path.join(da, name), "rb").read()
            b = open(os.path.join(db, name), "rb").read()
            pairs.append(name)
            if a != b:
                mismatches.append(f"{cmd[0]}/{name}")
    report(10, "byte-identical rerun of run/sweep/repeat", not mismatches,
           f"{len(pairs)} output files compared, mismatches: {mismatches or 'none'}")


def test_criterion_11_zero_noise_sanity():
    cfg = WorldConfig(waypoints=[(0.0, 0.0), (6.0, 0.0), (9.0, 2.0)], n_frames=240,
                      density=[(0.0, 70.0)], clutter=0, pixel_noise=0.0,
                      dr_sigma_t=0.0, dr_sigma_r_deg=0.0, depth_max=5.0, seed=0)
    seq = simulate_sequence(cfg)
    _, params = simulate_scenario("corridor_gap", 0)
    res = run_pipeline(seq, params, "adaptive")
    ape = ape_rmse(Trajectory.from_rows(res.frame_trajectory()), gt_trajectory(seq))
    report(11, "noiseless adaptive pipeline", ape < 1e-4,
           f"frame APE {ape:.2e} m (< 1e-4)")
