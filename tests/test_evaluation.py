import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_same_records, random_pose
from drslam import evaluation
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.errors import Diverged, TooFewPairs
from drslam.evaluation import (
    Trajectory,
    align,
    alpha_sweep,
    ape_rmse,
    associate,
    baseline_rmse,
    concatenate_loops,
    frame_kf_ratio,
    gt_trajectory,
    per_frame_errors,
    repeat_run,
    slice_sequence,
    sweep_repeat,
    verdict,
)
from drslam.geometry import Pose, compose
from drslam.pipeline import PipelineParams
from drslam.simulator import WorldConfig, config_from_meta, simulate_sequence


def traj_from_positions(positions, t0=0.0, dt=1.0 / 30.0):
    rows = [(t0 + i * dt, Pose(np.array([1.0, 0, 0, 0]), np.asarray(p, float)))
            for i, p in enumerate(positions)]
    return Trajectory.from_rows(rows)


def random_trajectory(rng, n=40):
    pos = np.cumsum(rng.normal(scale=0.1, size=(n, 3)), axis=0)
    return traj_from_positions(pos)


def transform_trajectory(traj, t: Pose):
    return Trajectory(traj.timestamps, traj.positions @ t.rotation_matrix.T + t.t)


def horn_alignment(a: np.ndarray, b: np.ndarray) -> Pose:
    """Independent oracle: Horn's closed-form quaternion alignment."""
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    s = (a - ca).T @ (b - cb)
    sxx, sxy, sxz = s[0]
    syx, syy, syz = s[1]
    szx, szy, szz = s[2]
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    vals, vecs = np.linalg.eigh(n)
    q = vecs[:, -1]
    pose = Pose(q, np.zeros(3))
    t = cb - pose.rotation_matrix @ ca
    return Pose(q, t)


def test_align_identity(rng):
    traj = random_trajectory(rng)
    t = align(traj, traj)
    assert np.allclose(t.matrix(), np.eye(4), atol=1e-9)


def test_align_recovers_exact_rigid_offset(rng):
    ref = random_trajectory(rng)
    offset = random_pose(rng, rot_scale=1.0, trans_scale=2.0)
    est = transform_trajectory(ref, offset)
    recovered = align(est, ref)
    # est = offset o ref, so the alignment must be offset^-1
    assert np.allclose(compose(recovered, offset).matrix(), np.eye(4), atol=1e-9)
    assert ape_rmse(est, ref) < 1e-9


def test_align_matches_horn_oracle_on_noisy_data(rng):
    for _ in range(10):
        ref = random_trajectory(rng)
        offset = random_pose(rng, rot_scale=1.5, trans_scale=1.0)
        noisy = Trajectory(ref.timestamps,
                           ref.positions + rng.normal(scale=0.01, size=ref.positions.shape))
        est = transform_trajectory(noisy, offset)
        ours = align(est, ref)
        oracle = horn_alignment(est.positions, ref.positions)
        assert np.allclose(ours.matrix(), oracle.matrix(), atol=1e-9)


def test_align_too_few_pairs(rng):
    short = traj_from_positions([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(TooFewPairs):
        align(short, short)


def test_ape_zero_for_identical(rng):
    traj = random_trajectory(rng)
    assert ape_rmse(traj, traj) == pytest.approx(0.0, abs=1e-12)


def test_ape_constant_offset_removed(rng):
    ref = random_trajectory(rng)
    shifted = traj_from_positions(ref.positions + np.array([0.0, 1.0, 0.0]))
    assert ape_rmse(shifted, ref) < 1e-9


def symmetric_cloud():
    # radial perturbations of a symmetric cloud exert zero net force and
    # torque, so the identity stays the optimal rigid alignment and the
    # residual RMS is exactly the perturbation scale
    return np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                     [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])


def test_ape_matches_hand_computed_rms():
    base = symmetric_cloud()
    a = 0.05
    est = traj_from_positions(base * (1.0 + a))
    ref = traj_from_positions(base)
    assert ape_rmse(est, ref) == pytest.approx(a, rel=1e-9)


def test_ape_invariant_under_common_rigid_transform(rng):
    ref = random_trajectory(rng)
    est = traj_from_positions(ref.positions + rng.normal(scale=0.05, size=(len(ref), 3)))
    base = ape_rmse(est, ref)
    t = random_pose(rng, rot_scale=2.0, trans_scale=5.0)
    moved = ape_rmse(transform_trajectory(est, t), transform_trajectory(ref, t))
    assert abs(moved - base) < 1e-9


def test_association_window_half_frame_period():
    ref = traj_from_positions([(i, 0, 0) for i in range(10)])
    est = Trajectory(ref.timestamps + 0.012, ref.positions)  # below half period (1/60)
    est_index, ref_index = associate(est, ref)
    assert est_index.tolist() == ref_index.tolist() == list(range(10))
    est = Trajectory(ref.timestamps + 0.02, ref.positions)  # beyond: only forward snaps
    est_index, ref_index = associate(est, ref)
    assert est_index.tolist() == list(range(9))
    assert ref_index.tolist() == list(range(1, 10))


def associate_oracle(est_stamps, ref_stamps):
    """Per-estimate pairing: the nearer of the two reference neighbours found
    by searchsorted, within half the median reference period (any distance
    with one reference sample), the later one on a tie."""
    tol = 0.5 * float(np.median(np.diff(ref_stamps))) if len(ref_stamps) >= 2 else math.inf
    pairs = []
    for i, t in enumerate(est_stamps):
        k = int(np.searchsorted(ref_stamps, t))
        best, best_dt = None, tol
        for c in (k - 1, k):
            if 0 <= c < len(ref_stamps):
                dt = abs(float(ref_stamps[c] - t))
                if dt <= best_dt:
                    best, best_dt = c, dt
        if best is not None:
            pairs.append((i, best))
    return pairs


@st.composite
def association_cases(draw):
    # dyadic periods and start times keep sums, midpoints and half periods
    # exact, so that ties at half a period are exact ties
    periods = st.sampled_from([0.25, 0.5, 1.0, 1.0, 2.0]) | st.floats(0.01, 3.0)
    start = draw(st.sampled_from([0.0, -4.0, 1024.5]) | st.floats(-1e3, 1e3))
    ref = start + np.cumsum([0.0] + [draw(periods) for _ in range(draw(st.integers(0, 11)))])
    ref = ref[:draw(st.integers(0, len(ref)))]            # one-sample and empty references
    tol = 0.5 * float(np.median(np.diff(ref))) if len(ref) > 1 else 1.0
    near = [t + d for t in ref.tolist()
            for d in (0.0, tol, -tol, 0.5 * tol, 1.5 * tol, -1.5 * tol)]
    near += [0.5 * (a + b) for a, b in zip(ref.tolist(), ref[1:].tolist())]
    anywhere = st.floats(start - 10.0, start + 40.0)       # before, after and between
    est = draw(st.lists(st.sampled_from(near) | anywhere if near else anywhere, max_size=30))
    return np.unique(est), ref


@settings(max_examples=400, deadline=None, derandomize=True)
@given(association_cases())
def test_associate_matches_per_sample_oracle(case):
    est, ref = case
    est_index, ref_index = associate(Trajectory(est, np.zeros((len(est), 3))),
                                     Trajectory(ref, np.zeros((len(ref), 3))))
    assert list(zip(est_index.tolist(), ref_index.tolist())) == associate_oracle(est, ref)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, math.inf, -math.inf, math.nan])
                | st.floats(), min_size=1, max_size=25))
@example([5.0])
@example([-0.0])
@example([-0.0, -0.0])
@example([2.0, 1.0, 2.0, 1.0])
@example([1e308, 1e308])
def test_median_is_np_median_bit_for_bit(values):
    # odd and even lengths, repeated values, one element, signed zeros, and
    # infinities and NaN; both overflow alike on two huge middle values
    with np.errstate(all="ignore"):
        want = np.median(values)
        got = evaluation.median(values)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_verdict_thresholds(rng):
    ref = random_trajectory(rng)
    good = verdict(ref, ref, [True] * 10)
    assert good.completed and good.rmse == pytest.approx(0.0, abs=1e-12)

    big = traj_from_positions(ref.positions +
                              rng.normal(scale=16.0, size=(len(ref), 3)))
    bad_rmse = verdict(big, ref, [True] * 10)
    assert bad_rmse.rmse > 10.0 and not bad_rmse.completed

    flags = [True] * 49 + [False] * 51
    bad_ratio = verdict(ref, ref, flags)
    assert bad_ratio.tracking_ratio == pytest.approx(0.49)
    assert not bad_ratio.completed


def test_frame_kf_ratio(rng):
    base = symmetric_cloud()
    ref = traj_from_positions(base)
    frames = traj_from_positions(base * 1.2)   # APE exactly 0.2
    kfs = traj_from_positions(base * 1.1)      # APE exactly 0.1
    assert frame_kf_ratio(frames, frames, ref) == pytest.approx(1.0)
    assert frame_kf_ratio(frames, kfs, ref) == pytest.approx(2.0, rel=1e-9)
    # a keyframe trajectory on the reference: the ratio is unbounded
    assert frame_kf_ratio(frames, ref, ref) == float("inf")


def noiseless_sequence(n_frames=90, seed=0):
    cfg = WorldConfig(waypoints=[(0, 0), (6, 0)], n_frames=n_frames,
                      density=[(0.0, 60.0)], clutter=0, pixel_noise=0.0,
                      dr_sigma_t=0.0, dr_sigma_r_deg=0.0, depth_max=5.0, seed=seed)
    return simulate_sequence(cfg)


def test_alpha_sweep_single_row():
    seq = noiseless_sequence()
    rows = alpha_sweep(seq, [0.0], repeats=1, params=PipelineParams())
    assert len(rows) == 1
    assert rows[0].median == rows[0].rmse


def test_alpha_sweep_noiseless_rmse_constant_across_alpha():
    seq = noiseless_sequence()
    rows = alpha_sweep(seq, [-2.0, 0.0, 3.0], repeats=1, params=PipelineParams())
    rmses = [r.rmse for r in rows]
    assert max(rmses) - min(rmses) < 1e-6
    assert max(rmses) < 1e-6


def test_sweep_repeat_nan_row_only_for_package_errors(monkeypatch):
    seq = noiseless_sequence(n_frames=30)
    run_pipeline = evaluation.run_pipeline
    failure = Diverged("forced failure")

    def fail_at_alpha_100(sequence, params, mode):
        if params.fixed_alpha == 100.0:
            raise failure
        return run_pipeline(sequence, params, mode)

    monkeypatch.setattr(evaluation, "run_pipeline", fail_at_alpha_100)
    rows = sweep_repeat(seq, [0.0, 2.0], 0, PipelineParams())
    assert np.isfinite(rows[0].rmse) and rows[0].error == ""
    assert np.isnan(rows[1].rmse) and rows[1].error == "Diverged"
    # a defect outside the package's error types is not turned into a NaN cell
    failure = RuntimeError("bug")
    with pytest.raises(RuntimeError):
        sweep_repeat(seq, [0.0, 2.0], 0, PipelineParams())


def test_alpha_sweep_deterministic_rows():
    cfg = WorldConfig(waypoints=[(0, 0), (6, 0)], n_frames=80,
                      density=[(0.0, 60.0)], clutter=100, pixel_noise=0.5,
                      dr_sigma_t=0.003, dr_sigma_r_deg=0.1, depth_max=5.0, seed=4)
    seq = simulate_sequence(cfg)
    rows1 = alpha_sweep(seq, [0.0, 2.0], repeats=2, params=PipelineParams())
    rows2 = alpha_sweep(seq, [0.0, 2.0], repeats=2, params=PipelineParams())
    for a, b in zip(rows1, rows2):
        assert (a.log_alpha, a.repeat, a.rmse, a.median) == \
            (b.log_alpha, b.repeat, b.rmse, b.median)


def test_concatenate_loops_shape_and_seam():
    seq = noiseless_sequence(n_frames=50)
    concat = concatenate_loops(seq, 3)
    assert len(concat.records) == 150
    assert [r.frame_id for r in concat.records] == list(range(150))
    ts = [r.timestamp for r in concat.records]
    assert np.allclose(np.diff(ts), ts[1] - ts[0])
    seam = concat.records[50]
    assert seam.dr_delta is not None
    with pytest.raises(ValueError):
        concatenate_loops(seq, 1)


def closed_sequence(seed=0, pixel_noise=0.0, dr_sigma_t=0.0, dr_sigma_r_deg=0.0):
    c = 0.7
    w, h = 3.4, 2.6
    wp = [(c, 0), (w - c, 0), (w, c), (w, h - c), (w - c, h), (c, h), (0, h - c), (0, c)]
    cfg = WorldConfig(waypoints=wp, closed=True, n_frames=300,
                      density=[(0.0, 60.0)], clutter=100, pixel_noise=pixel_noise,
                      dr_sigma_t=dr_sigma_t, dr_sigma_r_deg=dr_sigma_r_deg, seed=seed)
    return simulate_sequence(cfg)


def test_repeat_run_three_loop_rows():
    seq = closed_sequence(pixel_noise=0.4, dr_sigma_t=0.002, dr_sigma_r_deg=0.05)
    reports, result = repeat_run(seq, 3, PipelineParams(), "adaptive")
    assert [r.loop for r in reports] == [1, 2, 3]
    assert all(np.isfinite(r.frame_rmse) and np.isfinite(r.ratio) for r in reports)
    assert len(result.frames) == 900


def test_repeat_run_noiseless_reuse_does_not_hurt():
    seq = closed_sequence()
    reports, _ = repeat_run(seq, 2, PipelineParams(), "adaptive")
    assert reports[1].frame_rmse <= reports[0].frame_rmse + 1e-9


def test_gt_trajectory_roundtrip():
    seq = noiseless_sequence(n_frames=30)
    ref = gt_trajectory(seq)
    assert len(ref) == 30
    stamps, errors = per_frame_errors(ref, ref)
    assert stamps.tolist() == ref.timestamps.tolist()
    assert np.all(errors <= 1e-12)


def test_verdict_exact_threshold_examples():
    base = symmetric_cloud()
    ref = traj_from_positions(base)
    eleven = traj_from_positions(base * 12.0)  # APE exactly 11 m
    v = verdict(eleven, ref, [True] * 6)
    assert v.rmse == pytest.approx(11.0, rel=1e-9)
    assert not v.completed
    nine = traj_from_positions(base * 10.0)    # APE exactly 9 m: inside the limit
    assert verdict(nine, ref, [True] * 6).completed


def corridor_gap_sequence(n_frames: int):
    config = parse_config(resolve_config_path("corridor_gap")).world_config(seed=0)
    config.n_frames = n_frames
    return simulate_sequence(config)


@pytest.mark.parametrize("frame_range", [(40, 90), (70, 90), (60, 61), (-1, 5), (5, 5), (8, 3)])
def test_frame_range_outside_the_sequence_is_rejected(monkeypatch, frame_range):
    # 40:90 used to score frames 40-59 and 70:90 to give a NaN cell, silently
    seq = corridor_gap_sequence(60)
    message = f"frame range {frame_range[0]}:{frame_range[1]} is not within the sequence's 60 frames"
    with pytest.raises(ValueError, match=message):
        slice_sequence(seq, *frame_range)

    def simulate(*args, **kwargs):
        raise AssertionError("a repeat was simulated before its range was checked")

    monkeypatch.setattr(evaluation, "simulate_sequence", simulate)
    for repeat in (0, 1):
        with pytest.raises(ValueError, match=message):
            sweep_repeat(seq, [0.0], repeat, PipelineParams(), frame_range)
    with pytest.raises(ValueError, match=message):
        alpha_sweep(seq, [0.0], 2, PipelineParams(), frame_range)
    with pytest.raises(ValueError, match=message):
        baseline_rmse(seq, "vision-only", 2, PipelineParams(), frame_range)


def test_frame_range_up_to_the_last_frame_is_accepted():
    seq = corridor_gap_sequence(60)
    assert [r.frame_id for r in slice_sequence(seq, 57, 60).records] == [0, 1, 2]
    assert len(slice_sequence(seq, 0, 60).records) == 60


@pytest.mark.parametrize("repeat, frame_range", [(0, (270, 360)), (1, (270, 360)), (2, (0, 1)),
                                                 (1, (599, 600)), (1, None)])
def test_repeat_sequence_is_the_slice_of_the_whole_resimulation(repeat, frame_range):
    # a repeat simulated only up to its segment's end is the slice of the
    # whole re-simulation, bit for bit
    seq = corridor_gap_sequence(600)
    whole = seq
    if repeat:
        config = config_from_meta(seq.meta)
        config.seed += 1000 * repeat
        whole = simulate_sequence(config, seq.camera)
    want = whole if frame_range is None else slice_sequence(whole, *frame_range)
    got = evaluation._repeat_sequence(seq, repeat, frame_range)
    assert_same_records(got.records, want.records)
    assert got.meta == want.meta
