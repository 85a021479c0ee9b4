import dataclasses
import hashlib
import math
import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_records, assert_same_world
import drslam.fileio
import drslam.simulator
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.errors import DegenerateSpec, FormatError
from drslam.geometry import compose, inverse, log_se3
from drslam.pipeline import run_pipeline
from drslam.simulator import (
    DEFAULT_CAMERA,
    WORLD_FIELDS,
    Detections,
    Dropout,
    WorldConfig,
    WorldConfigError,
    config_from_meta,
    generate_trajectory,
    populate_landmarks,
    read_sequence,
    simulate_frame,
    simulate_sequence,
    squared_distance,
    write_sequence,
)


def count_visible(pose, landmarks, config, camera=DEFAULT_CAMERA):
    """Frustum-count oracle: explicit per-landmark check."""
    n = 0
    for lm in landmarks:
        cam = camera
        y = pose.rotation_matrix.T @ (lm - pose.t)
        if not (config.depth_min < y[2] < config.depth_max):
            continue
        u = cam.fx * y[0] / y[2] + cam.cx
        v = cam.fy * y[1] / y[2] + cam.cy
        if 0 <= u < cam.width and 0 <= v < cam.height:
            n += 1
    return n


def assert_same_detections(a: Detections, b: Detections):
    """Same ids and pixels, bit for bit, in the same order and layout."""
    assert a.ids.dtype == b.ids.dtype == np.int64 and a.uv.dtype == b.uv.dtype == np.float64
    assert a.ids.shape == b.ids.shape and a.uv.shape == b.uv.shape == (len(a.ids), 2)
    assert a.ids.tobytes() == b.ids.tobytes()
    assert a.uv.tobytes() == b.uv.tobytes()


def test_trajectory_two_waypoints_equally_spaced():
    cfg = WorldConfig(waypoints=[(0, 0), (9, 0)], n_frames=10)
    poses, arcs = generate_trajectory(cfg)
    assert len(poses) == 10
    xs = [p.t[0] for p in poses]
    assert np.allclose(xs, np.arange(10.0))
    assert np.allclose(np.diff(arcs), 1.0)


def test_trajectory_closed_rectangle_returns_to_start():
    cfg = WorldConfig(waypoints=[(0, 0), (4, 0), (4, 3), (0, 3)], closed=True, n_frames=141)
    poses, arcs = generate_trajectory(cfg)
    assert np.linalg.norm(poses[-1].t - poses[0].t) < 1e-9
    assert arcs[-1] == pytest.approx(14.0)


def test_trajectory_arc_length_matches_polyline():
    cfg = WorldConfig(waypoints=[(0, 0), (7.3, 0)], n_frames=50)
    poses, arcs = generate_trajectory(cfg)
    chord = sum(np.linalg.norm(b.t - a.t) for a, b in zip(poses, poses[1:]))
    assert abs(chord - 7.3) < 1e-9
    assert abs((arcs[-1] - arcs[0]) - 7.3) < 1e-9


def test_trajectory_yaw_follows_tangent():
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0), (5, 5)], n_frames=11)
    poses, _ = generate_trajectory(cfg)
    fwd_first = poses[0].rotation_matrix[:, 2]
    fwd_last = poses[-1].rotation_matrix[:, 2]
    assert np.allclose(fwd_first, [1, 0, 0], atol=1e-12)
    assert np.allclose(fwd_last, [0, 1, 0], atol=1e-12)


def test_trajectory_degenerate_spec():
    with pytest.raises(DegenerateSpec):
        generate_trajectory(WorldConfig(waypoints=[(1, 1)], n_frames=5))
    with pytest.raises(DegenerateSpec):
        generate_trajectory(WorldConfig(waypoints=[(0, 0), (0, 0), (1, 0)], n_frames=5))


@pytest.mark.parametrize("field, value", [("fps", 0.0), ("n_frames", 0), ("depth_min", 9.0),
                                          ("seed", -1)])
def test_world_config_error_names_its_fields_and_survives_pickling(field, value):
    # a worker process sends the error back pickled, fields and all
    with pytest.raises(WorldConfigError) as e:
        WorldConfig(**{field: value})
    assert field in e.value.fields
    back = pickle.loads(pickle.dumps(e.value))
    assert (type(back), str(back), back.fields) == (WorldConfigError, str(e.value), e.value.fields)


def test_populate_zero_density_gives_empty_set():
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=20, density=[(0.0, 0.0)])
    landmarks = populate_landmarks(cfg)
    assert len(landmarks) == 0


def test_populate_uniform_density_mean_within_15_percent():
    d = 80.0
    cfg = WorldConfig(waypoints=[(0, 0), (12, 0)], n_frames=240, density=[(0.0, d)])
    traj = generate_trajectory(cfg)
    landmarks = populate_landmarks(cfg)
    counts = [count_visible(p, landmarks, cfg) for p in traj[0]]
    assert abs(np.mean(counts) - d) / d < 0.15


def test_populate_step_profile_tracks_step():
    # windows chosen so the whole frustum (reaching depth_max ahead) lies
    # inside one density region
    cfg = WorldConfig(waypoints=[(0, 0), (44, 0)], n_frames=440,
                      density=[(0.0, 70.0), (14.0, 0.0), (30.0, 70.0)])
    traj = generate_trajectory(cfg)
    landmarks = populate_landmarks(cfg)
    poses, arcs = traj
    high1 = [count_visible(poses[i], landmarks, cfg) for i in range(440) if arcs[i] < 6.0]
    low = [count_visible(poses[i], landmarks, cfg) for i in range(440) if 14.2 < arcs[i] < 21.8]
    high2 = [count_visible(poses[i], landmarks, cfg) for i in range(440) if 30.0 < arcs[i] < 36.0]
    assert abs(np.mean(high1) - 70) / 70 < 0.15
    assert abs(np.mean(high2) - 70) / 70 < 0.15
    assert np.mean(low) < 3


def test_simulate_frame_zero_noise_exact_projections(rng):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=10, density=[(0.0, 40.0)])
    traj = generate_trajectory(cfg)
    landmarks = populate_landmarks(cfg)
    pose = traj[0][3]
    rec = simulate_frame(pose, traj[0][2], landmarks, cfg, rng, 3)
    assert rec.n_det == len(rec.detections)
    for j, u, v in rec.detections:
        y = pose.rotation_matrix.T @ (landmarks[j] - pose.t)
        assert u == pytest.approx(DEFAULT_CAMERA.fx * y[0] / y[2] + DEFAULT_CAMERA.cx, abs=1e-9)
        assert v == pytest.approx(DEFAULT_CAMERA.fy * y[1] / y[2] + DEFAULT_CAMERA.cy, abs=1e-9)


def test_squared_distance_rounds_as_scalar_power(rng):
    # the drop-out ranking and the association gate compare these sums, so
    # they round as a Python float's ``x ** 2`` (libm pow) does; x * x
    # differs from it in the last bit for about one row in a thousand
    uv = rng.uniform(-700.0, 700.0, size=(20000, 2))
    cu, cv = rng.uniform(0.0, 640.0, 20000), rng.uniform(0.0, 480.0, 20000)
    expected = [(u - a) ** 2 + (v - b) ** 2
                for (u, v), a, b in zip(uv.tolist(), cu.tolist(), cv.tolist())]
    assert squared_distance(uv, (cu, cv)).tolist() == expected
    assert squared_distance(uv, (320.0, 240.0)).tolist() == \
        [(u - 320.0) ** 2 + (v - 240.0) ** 2 for u, v in uv.tolist()]


def test_dropout_forces_detection_count(rng):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=20, density=[(0.0, 40.0)],
                      clutter=30, dropouts=[Dropout(5, 8, 0), Dropout(12, 14, 7)])
    seq = simulate_sequence(cfg)
    for r in seq.records:
        if 5 <= r.frame_id <= 8:
            assert r.n_det == 0 and len(r.detections) == 0
        elif 12 <= r.frame_id <= 14:
            assert r.n_det == 7
        else:
            assert r.n_det > 30


def test_dr_noise_empirical_std(rng):
    sigma_t, sigma_r_deg = 0.004, 0.1
    cfg = WorldConfig(waypoints=[(0, 0), (400, 0)], n_frames=10001, density=[(0.0, 0.0)],
                      dr_sigma_t=sigma_t, dr_sigma_r_deg=sigma_r_deg, seed=7)
    seq = simulate_sequence(cfg)
    errs = []
    prev = None
    for r in seq.records:
        if prev is not None:
            gt_delta = compose(inverse(prev), r.gt_pose)
            eps = log_se3(compose(inverse(gt_delta), r.dr_delta))
            errs.append(eps)
        prev = r.gt_pose
    errs = np.array(errs)
    assert errs.shape[0] == 10000
    for axis in range(3):
        assert abs(errs[:, axis].std() - sigma_t) / sigma_t < 0.05
    for axis in range(3, 6):
        assert abs(errs[:, axis].std() - math.radians(sigma_r_deg)) / math.radians(sigma_r_deg) < 0.05


def test_dr_bias_applied(rng):
    cfg = WorldConfig(waypoints=[(0, 0), (10, 0)], n_frames=101, density=[(0.0, 0.0)],
                      dr_bias_t=(0.003, 0.0, 0.001))
    seq = simulate_sequence(cfg)
    r = seq.records[1]
    gt_delta = compose(inverse(seq.records[0].gt_pose), r.gt_pose)
    eps = log_se3(compose(inverse(gt_delta), r.dr_delta))
    assert np.allclose(eps[:3], [0.003, 0.0, 0.001], atol=1e-12)


def test_sequence_round_trip(tmp_path, rng):
    cfg = WorldConfig(waypoints=[(0, 0), (6, 0), (6, 4)], n_frames=60,
                      density=[(0.0, 50.0)], clutter=20, pixel_noise=0.5,
                      dr_sigma_t=0.004, dr_sigma_r_deg=0.1, seed=3)
    seq = simulate_sequence(cfg)
    d = tmp_path / "seq"
    write_sequence(seq, d)
    back = read_sequence(d)
    assert len(back.records) == len(seq.records)
    for a, b in zip(seq.records, back.records):
        assert a.frame_id == b.frame_id
        assert a.n_det == b.n_det
        assert np.allclose(a.gt_pose.matrix(), b.gt_pose.matrix(), atol=1e-12)
        if a.dr_delta is not None:
            assert np.allclose(a.dr_delta.matrix(), b.dr_delta.matrix(), atol=1e-12)
        assert_same_detections(a.detections, b.detections)
    assert_same_world(back.world, seq.world)


@pytest.mark.parametrize("scenario", ["corridor_gap", "two_lap", "rectangle_loop"])
def test_read_sequence_dr_increments_match_per_row_compose(tmp_path, scenario):
    # the increments, built from the floats of the odometry arrays, equal
    # compose(inverse(previous), odom), byte for byte, on the bundled scenarios
    config = parse_config(resolve_config_path(scenario))
    write_sequence(simulate_sequence(config.world_config(seed=0)), tmp_path)
    records = read_sequence(tmp_path).records
    assert records[0].dr_delta is None
    for prev, rec in zip(records, records[1:]):
        want = compose(inverse(prev.odom_pose), rec.odom_pose)
        assert rec.dr_delta.q.tobytes() == want.q.tobytes()
        assert rec.dr_delta.t.tobytes() == want.t.tobytes()


def test_sequence_rewrite_byte_stable(tmp_path):
    cfg = WorldConfig(waypoints=[(0, 0), (30, 0)], n_frames=1000, density=[(0.0, 30.0)],
                      pixel_noise=0.3, dr_sigma_t=0.002, dr_sigma_r_deg=0.05, seed=11)
    seq = simulate_sequence(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_sequence(seq, d1)
    write_sequence(read_sequence(d1), d2)
    for name in ("gt.tum", "odom.tum", "obs.csv", "stats.csv", "world.csv", "meta"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_sequence_same_seed_byte_identical(tmp_path):
    cfg = WorldConfig(waypoints=[(0, 0), (8, 0)], n_frames=100, density=[(0.0, 40.0)],
                      pixel_noise=0.4, dr_sigma_t=0.004, dr_sigma_r_deg=0.1, seed=5)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_sequence(simulate_sequence(cfg), d1)
    write_sequence(simulate_sequence(cfg), d2)
    for name in ("gt.tum", "odom.tum", "obs.csv", "stats.csv", "world.csv", "meta"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_read_sequence_missing_column(tmp_path):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=10, density=[(0.0, 10.0)])
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    (d / "obs.csv").write_text("frame_id,landmark_id,u\n0,0,1.0\n")
    with pytest.raises(FormatError):
        read_sequence(d)


@pytest.mark.parametrize("name, row", [
    ("obs.csv", "1,abc,2.0,3.0"),
    ("obs.csv", "1,1.5,2.0,3.0"),
    ("obs.csv", "1.5,1,2.0,3.0"),
    ("obs.csv", "1,2,3.0"),
    ("obs.csv", "1,-1,2.0,3.0"),  # a clutter row: obs.csv holds landmark detections only
    ("stats.csv", "3,4.5"),
    ("stats.csv", "2.5,4"),
    ("stats.csv", "3,x"),
    ("world.csv", "1.5,0.0,0.0,0.0"),
    ("world.csv", "7,0.0,0.0"),
    ("world.csv", "5,100.0,100.0,100.0"),  # a second row for landmark 5
    ("world.csv", "-3,0.0,0.0,0.0"),
    ("world.csv", "100000,nan,0.0,0.0"),
])
def test_read_sequence_malformed_field_is_format_error(tmp_path, name, row):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=10, density=[(0.0, 10.0)])
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    with open(d / name, "a") as f:
        f.write(row + "\n")
    with pytest.raises(FormatError) as e:
        read_sequence(d)
    assert e.value.path == str(d / name)
    assert e.value.line == len((d / name).read_text().splitlines())


def small_sequence_dir(tmp_path, n_frames=10):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=n_frames, density=[(0.0, 10.0)],
                      clutter=2)
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    return d


@pytest.mark.parametrize("name, row", [
    ("obs.csv", "9999,1,2.0,3.0"),
    ("obs.csv", "-4,1,2.0,3.0"),
    ("obs.csv", "10,-1,2.0,3.0"),
    ("stats.csv", "9999,7"),
    ("stats.csv", "-1,7"),
])
def test_read_sequence_frame_outside_sequence_is_format_error(tmp_path, name, row):
    d = small_sequence_dir(tmp_path)
    with open(d / name, "a") as f:
        f.write(row + "\n")
    with pytest.raises(FormatError, match="outside 0..9") as e:
        read_sequence(d)
    assert e.value.path == str(d / name)
    assert e.value.line == len((d / name).read_text().splitlines())


def test_read_sequence_repeated_stats_frame_is_format_error(tmp_path):
    d = small_sequence_dir(tmp_path)
    lines = (d / "stats.csv").read_text().splitlines()
    lines.insert(3, "7,5")  # line 4; frame 7's own row follows on line 10
    (d / "stats.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="second row for frame 7") as e:
        read_sequence(d)
    assert e.value.path == str(d / "stats.csv")
    assert e.value.line == 10


def test_read_sequence_non_monotone_gt_timestamps_is_format_error(tmp_path):
    d = small_sequence_dir(tmp_path)
    lines = (d / "gt.tum").read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    (d / "gt.tum").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="strictly increasing") as e:
        read_sequence(d)
    assert e.value.path == str(d / "gt.tum")
    assert e.value.line == 5


def test_read_sequence_odom_timestamps_differing_from_gt_is_format_error(tmp_path):
    # odometry rows pair with ground-truth rows by position: swapped odom.tum
    # rows are reported at the first row whose timestamp differs from gt.tum's
    d = small_sequence_dir(tmp_path)
    lines = (d / "odom.tum").read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    (d / "odom.tum").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="differs from gt.tum") as e:
        read_sequence(d)
    assert e.value.path == str(d / "odom.tum")
    assert e.value.line == 4


@pytest.mark.parametrize("frame, line", [(0, 2), (4, 6), (9, 10)])
def test_read_sequence_missing_stats_frame_is_format_error(tmp_path, frame, line):
    # reported at the row of the next frame, or at the last row when none follows
    d = small_sequence_dir(tmp_path)
    lines = (d / "stats.csv").read_text().splitlines()
    del lines[frame + 1]
    (d / "stats.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"no row for frame {frame}") as e:
        read_sequence(d)
    assert e.value.path == str(d / "stats.csv")
    assert e.value.line == line


def test_read_sequence_frames_slice_shared_columns(tmp_path):
    # one ids array and one two-column uv array back every frame; the parsed
    # four-column obs.csv table is not kept
    d = small_sequence_dir(tmp_path)
    seq = read_sequence(d)
    rows = len((d / "obs.csv").read_text().splitlines()) - 1
    ids_base = {id(r.detections.ids.base) for r in seq.records}
    uv_base = {id(r.detections.uv.base) for r in seq.records}
    assert len(ids_base) == len(uv_base) == 1
    assert seq.records[0].detections.ids.base.shape == (rows,)
    assert seq.records[0].detections.uv.base.shape == (rows, 2)


def test_world_fields_cover_world_config_in_order():
    # the text codec of the world.* config keys and of the meta entries
    assert list(WORLD_FIELDS) == [f.name for f in dataclasses.fields(WorldConfig)]


# sha256 of obs.csv and stats.csv as write_sequence(simulate_sequence(cfg))
# writes them; these bytes are what every stored or benchmarked sequence is.
PINNED_SEQUENCES = {
    "clutter_noise": (
        dict(waypoints=[(0, 0), (6, 0), (6, 4)], n_frames=30, density=[(0.0, 50.0)],
             clutter=20, pixel_noise=0.5, dr_sigma_t=0.004, dr_sigma_r_deg=0.1, seed=3),
        "e229acd064f67de03616b848d3342a7d6e1723b8a7ccf17b6eac726b84f340a7",
        "6a696446da8fd051d8089c5d7ea8e25bc0365e3236b5de6bb1602537f8815cd8"),
    "plain_dropouts": (
        dict(waypoints=[(0, 0), (8, 0)], n_frames=30, density=[(0.0, 50.0)], clutter=10,
             pixel_noise=0.3, dropouts=[Dropout(5, 9, 12), Dropout(15, 17, 0), Dropout(20, 22, 80)],
             seed=4),
        "bc863650f37c3c6305e19b6fcfcf98056324be3f6f49cbf416eb4521c6c0f815",
        "8ae7a3c4e8a9cbcdbdb78c2f8bed8ae83eb8093fefed077922904e6c3a95504f"),
    "clustered_dropout": (
        dict(waypoints=[(0, 0), (5, 0), (5, 3)], n_frames=30, density=[(0.0, 60.0)], clutter=5,
             pixel_noise=1.0, dropouts=[Dropout(4, 10, 8, clustered=True)], seed=5),
        "f7eb42ddaefe9999b847521b74e1e80330ec1c2b1033032103921775f4eb5dc9",
        "39542f8d6c6479efa49b970237d67c0dc0a074e5d024ac7bb8f6ae982b11ce51"),
    "detection_cap": (
        dict(waypoints=[(0, 0), (6, 0)], n_frames=20, density=[(0.0, 120.0)], detection_cap=40,
             clutter=30, pixel_noise=0.5, seed=6),
        "5a09e88847b0e91377230a85da5de62e2758783b4dd914ca608a9dae3208d715",
        "834c624434bba7789f9c5564d2fdc5c5618affb0cc21412247a1a798df5b9d5e"),
    "cap_filled_by_clutter": (
        dict(waypoints=[(0, 0), (6, 0)], n_frames=20, density=[(0.0, 20.0)], detection_cap=30,
             clutter=40, pixel_noise=0.2, seed=7),
        "f23f33524eb66a7b89ffb6236f33cc50aa3db6ef1f1180c540495352e67620e4",
        "daba443c165fe831768214d4baa3763d1fd83fb0f191e06a2ccddd06946a34c1"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SEQUENCES))
def test_simulated_sequence_bytes_are_pinned(tmp_path, name):
    kwargs, obs_sha, stats_sha = PINNED_SEQUENCES[name]
    write_sequence(simulate_sequence(WorldConfig(**kwargs)), tmp_path)
    assert hashlib.sha256((tmp_path / "obs.csv").read_bytes()).hexdigest() == obs_sha
    assert hashlib.sha256((tmp_path / "stats.csv").read_bytes()).hexdigest() == stats_sha


@pytest.mark.parametrize("clutter", [0, 5])
def test_read_sequence_header_only_tables(tmp_path, clutter):
    # no landmarks: world.csv and obs.csv are header-only; clutter shows
    # only in n_det
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=10, density=[(0.0, 0.0)],
                      clutter=clutter)
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    assert (d / "world.csv").read_text() == "landmark_id,x,y,z\n"
    assert (d / "obs.csv").read_text() == "frame_id,landmark_id,u,v\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = read_sequence(d)
    assert len(seq.world) == 0
    assert seq.world.ids.dtype == np.int64 and seq.world.positions.shape == (0, 3)
    for rec in seq.records:
        assert len(rec.detections) == 0 and rec.n_det == clutter


def test_read_sequence_calls_the_traced_readers(tmp_path, monkeypatch):
    # bench/tracing.py wraps these two names in drslam.simulator
    assert drslam.simulator.read_csv is drslam.fileio.read_csv
    assert drslam.simulator.read_tum is drslam.fileio.read_tum
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=12, density=[(0.0, 20.0)], clutter=3)
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    csv_rows, tum_paths = [], []

    def counted_csv(path, header):
        out = drslam.fileio.read_csv(path, header)
        csv_rows.append(len(out))
        return out

    def counted_tum(path):
        tum_paths.append(path)
        return drslam.fileio.read_tum(path)

    monkeypatch.setattr(drslam.simulator, "read_csv", counted_csv)
    monkeypatch.setattr(drslam.simulator, "read_tum", counted_tum)
    read_sequence(d)
    assert csv_rows == [len((d / name).read_text().splitlines()) - 1
                        for name in ("stats.csv", "obs.csv", "world.csv")]
    assert len(tum_paths) == 2


@st.composite
def world_configs(draw):
    n_frames = draw(st.integers(2, 12))
    length = draw(st.floats(1.0, 6.0))
    waypoints = [(0.0, 0.0), (length, 0.0)]
    if draw(st.booleans()):
        waypoints.append((length, draw(st.floats(1.0, 4.0))))
    d0 = draw(st.sampled_from([0.0, 15.0, 40.0]))
    density = [(0.0, d0)]
    if draw(st.booleans()):
        density.append((draw(st.floats(0.5, length)), draw(st.sampled_from([0.0, 25.0]))))
    dropouts = []
    if draw(st.booleans()):
        start = draw(st.integers(0, n_frames - 1))
        dropouts.append(Dropout(start, draw(st.integers(start, n_frames - 1)),
                                draw(st.sampled_from([0, 3, 8])), draw(st.booleans())))
    return WorldConfig(
        waypoints=waypoints, n_frames=n_frames, density=density,
        clutter=draw(st.integers(0, 6)), pixel_noise=draw(st.sampled_from([0.0, 0.4, 2.0])),
        dr_sigma_t=draw(st.sampled_from([0.0, 0.003])),
        dr_sigma_r_deg=draw(st.sampled_from([0.0, 0.1])),
        dropouts=dropouts, depth_max=draw(st.sampled_from([5.0, 8.0])),
        seed=draw(st.integers(0, 2 ** 16)))


def interleave_frames(obs_csv: Path, rng) -> None:
    """Shuffle the rows of obs.csv across frames, keeping each frame's own row order."""
    header, *rows = obs_csv.read_text().splitlines()
    by_frame = {}
    for row in rows:
        by_frame.setdefault(row.split(",")[0], []).append(row)
    queues = {f: iter(r) for f, r in by_frame.items()}
    order = rng.permutation([row.split(",")[0] for row in rows])
    obs_csv.write_text("\n".join([header] + [next(queues[f]) for f in order]) + "\n")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(world_configs(), st.integers(0, 2 ** 32 - 1))
def test_sequence_round_trip_property(cfg, shuffle_seed):
    seq = simulate_sequence(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        write_sequence(seq, a)
        back = read_sequence(a)
        assert len(back.records) == len(seq.records)
        for sim, rec in zip(seq.records, back.records):
            assert_same_detections(rec.detections, sim.detections)
            assert list(rec.detections) == list(sim.detections)
            assert all(type(j) is int and type(u) is float and type(v) is float
                       for j, u, v in rec.detections)
            assert np.all(sim.detections.ids >= 0)
            assert rec.n_det == sim.n_det
            for p, q in ((sim.gt_pose, rec.gt_pose), (sim.odom_pose, rec.odom_pose)):
                assert p.q.tobytes() == q.q.tobytes() and p.t.tobytes() == q.t.tobytes()
        assert_same_world(back.world, seq.world)
        assert config_from_meta(back.meta) == cfg

        write_sequence(back, b)
        for name in ("gt.tum", "odom.tum", "obs.csv", "stats.csv", "world.csv", "meta"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        interleave_frames(a / "obs.csv", np.random.default_rng(shuffle_seed))
        shuffled = read_sequence(a)
        for r, q in zip(shuffled.records, back.records):
            assert_same_detections(r.detections, q.detections)
        assert [len(r.detections) for r in shuffled.records] == \
            [len(r.detections) for r in back.records]


def test_read_sequence_truncated_meta(tmp_path):
    cfg = WorldConfig(waypoints=[(0, 0), (5, 0)], n_frames=10, density=[(0.0, 10.0)])
    d = tmp_path / "seq"
    write_sequence(simulate_sequence(cfg), d)
    (d / "meta").write_text("fps 30\n")
    with pytest.raises(FormatError):
        read_sequence(d)


def test_simulated_and_read_back_sequences_carry_the_same_increments(tmp_path):
    # the simulator and read_sequence derive each DR increment from the
    # odometry poses the same way, so a sequence run in memory and the same
    # sequence read back from disk are the same input, bit for bit
    config = parse_config(resolve_config_path("two_lap"))
    seq = simulate_sequence(config.world_config(seed=0))
    write_sequence(seq, tmp_path)
    back = read_sequence(tmp_path)
    assert back.records[0].dr_delta is None and seq.records[0].dr_delta is None
    for a, b in zip(seq.records, back.records):
        for pose_a, pose_b in ((a.odom_pose, b.odom_pose), (a.dr_delta, b.dr_delta)):
            if pose_a is not None:
                assert pose_a.q.tobytes() == pose_b.q.tobytes()
                assert pose_a.t.tobytes() == pose_b.t.tobytes()
    runs = [run_pipeline(dataclasses.replace(s, records=s.records[:120]),
                         config.pipeline_params(), config.mode) for s in (seq, back)]
    trajectories = [np.array([[ts, *pose.q, *pose.t] for ts, pose in run.frame_trajectory()])
                    for run in runs]
    assert len(trajectories[0]) == 120
    assert trajectories[0].tobytes() == trajectories[1].tobytes()


@pytest.mark.parametrize("scenario, overrides", [
    ("corridor_gap", {}), ("corridor_gap", {"detection_cap": 300}), ("two_lap", {})])
def test_truncated_simulation_is_a_prefix_of_the_full_one(scenario, overrides):
    # corridor_gap draws clutter and blacks out frames 295-324, and with a
    # cap of 300 caps every other frame's detections; two_lap has clustered
    # drop-outs. Records [0, stop) are those of the whole run, bit for bit,
    # and so are the world and the meta.
    config = dataclasses.replace(parse_config(resolve_config_path(scenario)).world_config(seed=0),
                                 **overrides)
    full = simulate_sequence(config)
    if overrides:
        assert sum(r.n_det == 300 for r in full.records) > 500
    assert len(full.records) == config.n_frames
    poses, arcs = generate_trajectory(config)
    for stop in (1, 270, 360, config.n_frames):
        # the truncated trajectory is built to stop only, a prefix of the whole
        part_poses, part_arcs = generate_trajectory(config, stop)
        assert len(part_poses) == stop and part_arcs.tobytes() == arcs[:stop].tobytes()
        for got, want in zip(part_poses, poses):
            assert got.q.tobytes() == want.q.tobytes() and got.t.tobytes() == want.t.tobytes()
        part = simulate_sequence(config, stop=stop)
        assert_same_records(part.records, full.records[:stop])
        assert part.meta == full.meta and part.camera == full.camera
        assert_same_world(part.world, full.world)


@pytest.mark.parametrize("stop", [0, -1, 11])
def test_simulate_rejects_a_stop_outside_the_frames(stop):
    with pytest.raises(ValueError, match=f"stop frame {stop} is outside 1..10"):
        simulate_sequence(WorldConfig(n_frames=10), stop=stop)
