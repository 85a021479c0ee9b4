import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import drslam.optimizer
import drslam.pipeline
from drslam.optimizer import reprojection_rows
from drslam.cli import resolve_config_path
from drslam.config import parse_config
from drslam.errors import Diverged, FormatError
from drslam.geometry import CameraIntrinsics, Pose, Z_MIN, compose, exp_se3, inverse
from drslam.pipeline import (
    K_MAX,
    LOOP_COOLDOWN,
    LOOP_GAP_MIN,
    LOST_FRAMES,
    MAX_LOCAL_KEYFRAMES,
    Frame,
    KeyFrame,
    Pipeline,
    PipelineParams,
    PointTable,
    SlamMap,
    associate_features,
    decide_keyframe,
    load_map,
    predict_pose,
    run_pipeline,
    save_map,
)
from drslam.simulator import DEFAULT_CAMERA, Detections, Dropout, WorldConfig, simulate_sequence
from drslam.weighting import TrackingStats

PARAMS = PipelineParams()


def make_frame(fid=0, pose=None, n_det=100, n_trk=50, ts=None):
    return Frame(fid, fid / 30.0 if ts is None else ts,
                 pose or Pose.identity(), TrackingStats(n_det, n_trk),
                 quality=0.5, dr=None, tracked_ok=True)


def as_detections(rows) -> Detections:
    """Detections from (id, u, v) rows, in row order."""
    return Detections(np.array([j for j, _, _ in rows], dtype=np.int64),
                      np.array([(u, v) for _, u, v in rows], dtype=float).reshape(-1, 2))


def observed(slam_map, k):
    """Keyframe k's rows of the map's observation table as (point id, u, v),
    in observation order."""
    rows = slam_map.observations[slam_map.observations["pose"] == k]
    return list(zip(rows["landmark"].tolist(), *rows["uv"].T.tolist()))


def observed_ids(slam_map, k):
    return [j for j, _, _ in observed(slam_map, k)]


def straight_sequence(n_frames=120, seed=0, **kw):
    cfg = WorldConfig(waypoints=[(0, 0), (8, 0)], n_frames=n_frames,
                      density=[(0.0, 70.0)], clutter=300, pixel_noise=0.5,
                      dr_sigma_t=0.002, dr_sigma_r_deg=0.05, depth_max=5.0,
                      seed=seed, **kw)
    return simulate_sequence(cfg)


def test_predict_pose_identity_delta(rng):
    prev = make_frame(pose=exp_se3(rng.normal(scale=0.2, size=6)))
    pred = predict_pose(prev, Pose.identity())
    assert np.allclose(pred.matrix(), prev.pose.matrix(), atol=1e-15)


def test_predict_pose_chain_composition(rng):
    pose = Pose.identity()
    chain = Pose.identity()
    for _ in range(20):
        delta = exp_se3(rng.normal(scale=0.05, size=6))
        pose = predict_pose(make_frame(pose=pose), delta)
        chain = compose(chain, delta)
    assert np.allclose(pose.matrix(), chain.matrix(), atol=1e-12)


def simple_map_points(positions):
    """A point table of the positions, point j at row j, all created by keyframe 0."""
    return PointTable(np.arange(len(positions)), np.array(positions, float).reshape(-1, 3),
                      np.zeros(len(positions), dtype=np.int64))


def test_associate_perfect_prediction_matches_all():
    pose = Pose.identity()
    pts = [(0.5, 0.2, 3.0), (-0.4, 0.1, 2.5), (0.1, -0.3, 4.0)]
    points = simple_map_points(pts)
    detections = []
    for j, p in enumerate(pts):
        y = np.asarray(p)
        detections.append((j, DEFAULT_CAMERA.fx * y[0] / y[2] + DEFAULT_CAMERA.cx,
                           DEFAULT_CAMERA.fy * y[1] / y[2] + DEFAULT_CAMERA.cy))
    detections.append((7, 100.0, 100.0))  # an id without a map point never matches
    obs, n_trk, n_cand = associate_features(as_detections(detections), points, pose, 15.0,
                                            DEFAULT_CAMERA)
    assert n_trk == n_cand == 3
    assert sorted(j for j, _, _ in obs) == [0, 1, 2]


def test_associate_offset_beyond_radius_matches_nothing():
    pts = [(0.5, 0.2, 3.0), (-0.4, 0.1, 2.5)]
    points = simple_map_points(pts)
    detections = []
    for j, p in enumerate(pts):
        y = np.asarray(p)
        detections.append((j, DEFAULT_CAMERA.fx * y[0] / y[2] + DEFAULT_CAMERA.cx,
                           DEFAULT_CAMERA.fy * y[1] / y[2] + DEFAULT_CAMERA.cy))
    off = Pose(np.array([1.0, 0, 0, 0]), np.array([0.5, 0.0, 0.0]))  # ~80 px shift
    obs, n_trk, n_cand = associate_features(as_detections(detections), points, off, 15.0,
                                            DEFAULT_CAMERA)
    assert n_trk == 0 and list(obs) == [] and n_cand == 2


def test_associate_half_radius_offset_matches_exhaustive_oracle(rng):
    # oracle: per map point, explicit projection + distance test of its own id
    radius = 15.0
    for _ in range(20):
        pts = [(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(2, 6))
               for _ in range(40)]
        points = simple_map_points(pts)
        detections = []
        for j, p in enumerate(pts):
            y = np.asarray(p)
            detections.append((j, DEFAULT_CAMERA.fx * y[0] / y[2] + DEFAULT_CAMERA.cx,
                               DEFAULT_CAMERA.fy * y[1] / y[2] + DEFAULT_CAMERA.cy))
        shift = rng.normal(size=3)
        shift = shift / np.linalg.norm(shift) * rng.uniform(0.01, 0.08)
        predicted = Pose(np.array([1.0, 0, 0, 0]), shift)
        obs, n_trk, _ = associate_features(as_detections(detections), points, predicted,
                                           radius, DEFAULT_CAMERA)
        expected = set()
        rot = predicted.rotation_matrix
        for j, p in enumerate(pts):
            y = rot.T @ (np.asarray(p) - predicted.t)
            if y[2] <= 0.05:
                continue
            u = DEFAULT_CAMERA.fx * y[0] / y[2] + DEFAULT_CAMERA.cx
            v = DEFAULT_CAMERA.fy * y[1] / y[2] + DEFAULT_CAMERA.cy
            if not (-radius <= u < DEFAULT_CAMERA.width + radius
                    and -radius <= v < DEFAULT_CAMERA.height + radius):
                continue
            du, dv = detections[j][1], detections[j][2]
            if (du - u) ** 2 + (dv - v) ** 2 <= radius ** 2:
                expected.add(j)
        assert {j for j, _, _ in obs} == expected
        assert n_trk == len(expected)


def associate_oracle(detections, points, predicted, search_radius, camera):
    """Per-detection reference: the first row of each landmark id, gated one
    point at a time; returns the matches, their count and the count of
    detected map points in front of the near plane."""
    det_by_id = {}
    for j, u, v in detections:
        if j >= 0 and j not in det_by_id:
            det_by_id[j] = (u, v)
    position_of = dict(zip(points.ids.tolist(), points.positions))
    ids = [j for j in det_by_id if j in position_of]
    if not ids:
        return [], 0, 0
    positions = np.array([position_of[j] for j in ids])
    rot = predicted.rotation_matrix
    cam = (positions - predicted.t) @ rot
    observations = []
    n_cand = 0
    for j, (x, y, z) in zip(ids, cam):
        if z <= 0.05:
            continue
        n_cand += 1
        u = camera.fx * x / z + camera.cx
        v = camera.fy * y / z + camera.cy
        if not (-search_radius <= u < camera.width + search_radius
                and -search_radius <= v < camera.height + search_radius):
            continue
        du, dv = det_by_id[j]
        if (du - u) ** 2 + (dv - v) ** 2 <= search_radius ** 2:
            observations.append((j, du, dv))
    return observations, len(observations), n_cand


# fx = fy = 512 and depths that are powers of two make projections of the
# drawn targets exact, so rows land exactly on the gate and margin bounds
CAMERA_512 = CameraIntrinsics(fx=512.0, fy=512.0, cx=320.0, cy=240.0, width=640, height=480)
NEAR_PLANE_DEPTHS = [0.05, float(np.nextafter(0.05, 1.0)), float(np.nextafter(0.05, 0.0)),
                     0.0, -1.0, 0.5, 1.0, 2.0, 4.0]


@st.composite
def association_cases(draw):
    radius = draw(st.sampled_from([15.0, 40.0]))
    k = radius / 5.0
    offsets = st.sampled_from([
        (0.0, 0.0), (3 * k, 4 * k), (-4 * k, 3 * k), (radius, 0.0), (0.0, -radius),
        (3 * k, float(np.nextafter(4 * k, np.inf))), (radius + 0.5, 0.0),
    ]) | st.tuples(st.floats(-2 * radius, 2 * radius), st.floats(-2 * radius, 2 * radius))
    u_targets = st.sampled_from([-radius - 0.5, -radius, -radius + 0.5, 0.0, 320.0, 639.5,
                                 640.0 + radius - 0.5, 640.0 + radius, 640.0 + radius + 0.5]) \
        | st.floats(-80.0, 720.0)
    v_targets = st.sampled_from([-radius - 0.5, -radius, 0.0, 240.0, 480.0 + radius - 0.5,
                                 480.0 + radius, 480.0 + radius + 0.5]) | st.floats(-80.0, 560.0)
    ids, positions, rows = [], [], []
    for j in range(draw(st.integers(0, 10))):
        z = draw(st.sampled_from(NEAR_PLANE_DEPTHS))
        u, v = draw(u_targets), draw(v_targets)
        position = np.array([(u - CAMERA_512.cx) * z / CAMERA_512.fx,
                             (v - CAMERA_512.cy) * z / CAMERA_512.fy, z])
        if draw(st.integers(0, 4)):          # some detected landmarks are not map points
            ids.append(j)
            positions.append(position)
        for _ in range(draw(st.integers(0, 2))):   # duplicate ids
            du, dv = draw(offsets)
            rows.append((j, u + du, v + dv))
    rows += [(-1, draw(st.floats(0.0, 640.0)), draw(st.floats(0.0, 480.0)))
             for _ in range(draw(st.integers(0, 4)))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    kind = draw(st.sampled_from(["identity", "shift", "turn"]))
    if kind == "identity":
        predicted = Pose.identity()
    elif kind == "shift":
        predicted = Pose(np.array([1.0, 0.0, 0.0, 0.0]),
                         np.array([draw(st.sampled_from([0.0, 0.25, -0.5])) for _ in range(3)]))
    else:
        predicted = exp_se3(np.array([draw(st.floats(-0.2, 0.2)) for _ in range(6)]))
    points = PointTable(np.array(ids, dtype=np.int64), np.array(positions).reshape(-1, 3),
                        np.zeros(len(ids), dtype=np.int64))
    return as_detections(rows), points, predicted, radius


@settings(max_examples=400, deadline=None, derandomize=True)
@given(association_cases())
def test_associate_matches_per_detection_oracle(case):
    detections, points, predicted, radius = case
    matches, n_trk, n_cand = associate_features(detections, points, predicted, radius,
                                                CAMERA_512)
    expected, n_expected, n_cand_expected = associate_oracle(detections, points, predicted,
                                                             radius, CAMERA_512)
    assert n_trk == n_expected == len(matches)
    assert n_cand == n_cand_expected
    assert matches.ids.dtype == np.int64 and matches.uv.dtype == np.float64
    assert matches.ids.tolist() == [j for j, _, _ in expected]
    assert matches.uv.tobytes() == np.array([(u, v) for _, u, v in expected],
                                            dtype=float).reshape(-1, 2).tobytes()
    assert list(matches) == expected


def test_associate_gate_and_near_plane_bounds():
    r = 15.0

    def point(u, v, z):
        return np.array([(u - 320.0) * z / 512.0, (v - 240.0) * z / 512.0, z])

    positions = {
        0: point(100.0, 100.0, 1.0),          # detection exactly on the gate circle
        1: point(100.0, 200.0, 1.0),          # just beyond it
        2: point(200.0, 100.0, 0.05),         # on the near plane
        3: point(200.0, 200.0, float(np.nextafter(0.05, 1.0))),
        4: point(-r, 300.0, 2.0),             # projects onto the margin
        5: point(-r - 2.0 ** -6, 300.0, 2.0),  # just outside it
        6: point(300.0, 300.0, 1.0),          # duplicate id: the first row decides
    }
    points = PointTable(np.array(list(positions)), np.array(list(positions.values())),
                        np.zeros(len(positions), dtype=np.int64))
    rows = [(6, 330.0, 300.0), (0, 109.0, 112.0), (-1, 100.0, 100.0),
            (1, 109.0, float(np.nextafter(212.0, np.inf))), (2, 200.0, 100.0),
            (3, 200.0, 200.0), (4, -r, 300.0), (5, -r - 2.0 ** -6, 300.0), (6, 300.0, 300.0)]
    matches, n_trk, n_cand = associate_features(as_detections(rows), points, Pose.identity(), r,
                                                CAMERA_512)
    assert list(matches) == [(0, 109.0, 112.0), (3, 200.0, 200.0), (4, -r, 300.0)]
    assert n_trk == 3
    assert n_cand == 6                        # every detected point but the one on the near plane


def true_depth(position, gt_pose):
    """Depth of a world position in the camera at gt_pose."""
    return (gt_pose.rotation_matrix.T @ (position - gt_pose.t))[2]


def test_keyframe_observes_matches_then_new_points_in_detection_order(monkeypatch):
    seq = straight_sequence(n_frames=60)
    for rec in seq.records:
        # repeat the first landmark rows at the end: only the first row of an id counts
        ids, uv = rec.detections.ids, rec.detections.uv
        rec.detections = Detections(np.concatenate([ids, ids[:5]]),
                                    np.concatenate([uv, uv[:5] + 3.0]))
    insert = Pipeline._insert_keyframe
    seen = []

    def recorded(self, frame, record, matches):
        before = set(self.slam_map.points.ids.tolist())
        kf = insert(self, frame, record, matches)
        points = self.slam_map.points
        assert np.all(np.diff(points.ids) > 0)
        created = [j for j in points.ids.tolist() if j not in before]
        assert points.created_kf[np.isin(points.ids, created)].tolist() == [kf.id] * len(created)
        seen.append((before, created, record, matches, observed(self.slam_map, kf.id)))
        return kf

    monkeypatch.setattr(Pipeline, "_insert_keyframe", recorded)
    pipe = Pipeline(PARAMS, seq.camera, seq.world, "adaptive")
    for rec in seq.records:
        pipe.process(rec)
    assert len(seen) >= 3 and sum(len(m) for _, _, _, m, _ in seen) > 0
    for before, created, record, matches, observations in seen:
        first = {}
        for j, u, v in record.detections:
            if j >= 0:
                first.setdefault(j, (j, u, v))
        new = [first[j] for j in first
               if j not in before and true_depth(seq.world[j], record.gt_pose) > Z_MIN]
        assert all(j in before for j in matches.ids.tolist())
        assert observations == list(matches) + new
        assert created == sorted(j for j, _, _ in new)


def test_decide_keyframe_rules():
    last = KeyFrame(0, 0, 0.0, Pose.identity(), n_trk=60, quality=1.0)
    below = make_frame(fid=5, n_trk=40)
    assert not decide_keyframe(below, last)
    gap = make_frame(fid=K_MAX, n_trk=40)
    assert decide_keyframe(gap, last)
    overlap = make_frame(fid=5, n_trk=int(60 * 0.4))
    assert decide_keyframe(overlap, last)
    far = make_frame(fid=5, n_trk=40,
                     pose=Pose(np.array([1.0, 0, 0, 0]), np.array([0.6, 0, 0])))
    assert decide_keyframe(far, last)


def test_pipeline_first_and_second_keyframe_covisibility():
    seq = straight_sequence(n_frames=40)
    pipe = Pipeline(PARAMS, seq.camera, seq.world, "adaptive")
    for rec in seq.records:
        pipe.process(rec)
    m = pipe.slam_map
    assert len(m.keyframes) >= 2
    assert m.covisibility.get(0, {}) != {}
    for a, edges in m.covisibility.items():
        for b, c in edges.items():
            assert m.covisibility[b][a] == c  # symmetry
    shared = m.covisibility[0].get(1, 0)
    manual = len(set(observed_ids(m, 0)) & set(observed_ids(m, 1)))
    assert shared == manual and shared > 0


def test_pipeline_one_pose_per_frame_all_modes():
    seq = straight_sequence(n_frames=60, dropouts=[Dropout(20, 30, 0)])
    for mode in ("vision-only", "da-only", "fixed-dr", "adaptive", "dr-only"):
        res = run_pipeline(seq, PARAMS, mode)
        assert len(res.frames) == len(seq.records)
        for f in res.frames:
            assert np.all(np.isfinite(f.pose.t))
            assert np.all(np.isfinite(f.pose.q))


def test_textureless_frames_adaptive_follows_dr_prediction():
    seq = straight_sequence(n_frames=60, dropouts=[Dropout(25, 40, 0)])
    res = run_pipeline(seq, PARAMS, "adaptive")
    frames = {f.id: f for f in res.frames}
    for fid in range(26, 41):
        f, prev = frames[fid], frames[fid - 1]
        assert f.quality == 0.0
        predicted = compose(prev.pose, f.dr)
        assert np.linalg.norm(f.pose.t - predicted.t) < 1e-9
        assert f.tracked_ok  # DR keeps the solve constrained


def test_textureless_gap_vision_only_loses_track():
    seq = straight_sequence(n_frames=60, dropouts=[Dropout(25, 40, 0)])
    res = run_pipeline(seq, PARAMS, "vision-only")
    assert res.track_lost_frame is not None
    assert 25 <= res.track_lost_frame <= 25 + LOST_FRAMES
    assert res.tracking_ratio() < 1.0
    assert len(res.frames) == 60  # poses still emitted after loss


def test_adaptive_track_lost_unreachable():
    seq = straight_sequence(n_frames=80, dropouts=[Dropout(10, 70, 0)])
    res = run_pipeline(seq, PARAMS, "adaptive")
    assert res.track_lost_frame is None
    assert res.tracking_ratio() == 1.0


def test_zero_observation_keyframe_gets_dr_edge():
    seq = straight_sequence(n_frames=80, dropouts=[Dropout(20, 60, 0)])
    res = run_pipeline(seq, PARAMS, "adaptive")
    m = res.slam_map
    empty_kfs = [k for k in m.keyframes if not observed(m, k) and k > 0]
    assert empty_kfs, "blackout should create zero-observation keyframes"
    k = empty_kfs[0]
    assert m.connection_count(k) == 0
    assert (k - 1, k) in m.dr_edges
    # keyframe quality 0 puts the raw weight at the alpha_max branch
    assert m.dr_edges[(k - 1, k)] > 0.5 * PARAMS.bounds.alpha_max


def test_loop_oracle_never_fires_on_straight_line():
    seq = straight_sequence(n_frames=120)
    res = run_pipeline(seq, PARAMS, "adaptive")
    assert res.gba_events == []
    assert res.slam_map.loop_edges == []


def closed_loop_sequence(seed=0, laps=1):
    c = 0.7
    w, h = 3.4, 2.6
    wp = [(c, 0), (w - c, 0), (w, c), (w, h - c), (w - c, h), (c, h), (0, h - c), (0, c)]
    cfg = WorldConfig(waypoints=wp, closed=True, n_frames=440 * laps,
                      density=[(0.0, 70.0)], clutter=300, pixel_noise=0.5,
                      dr_sigma_t=0.002, dr_sigma_r_deg=0.05, seed=seed)
    return simulate_sequence(cfg)


def test_loop_oracle_fires_on_closed_rectangle():
    seq = closed_loop_sequence()
    res = run_pipeline(seq, PARAMS, "adaptive")
    assert len(res.gba_events) >= 1
    ev = res.gba_events[0]
    assert ev.kf_to - ev.kf_from >= LOOP_GAP_MIN
    a, b, rel, scale = res.slam_map.loop_edges[0]
    gt_a = res.slam_map.keyframes[a].gt_pose
    gt_b = res.slam_map.keyframes[b].gt_pose
    assert np.allclose(rel.matrix(), compose(inverse(gt_a), gt_b).matrix(), atol=1e-12)


def test_ba_problems_answer_the_traced_sizes(monkeypatch):
    # bench/tracing.py wraps these two names in drslam.pipeline and reads len()
    # of the poses, landmarks, reprojection_factors and dr_factors of the Problem
    assert drslam.pipeline.solve_local_ba is drslam.optimizer.solve_local_ba
    assert drslam.pipeline.solve_global_ba is drslam.optimizer.solve_global_ba
    config = parse_config(resolve_config_path("two_lap"))
    seq = simulate_sequence(config.world_config())
    pipe = Pipeline(config.pipeline_params(), seq.camera, seq.world, "adaptive")
    sizes = {"local": [], "global": []}

    def sized(level, solve):
        def traced(problem, config=None):
            landmarks = set(problem.landmarks["id"].tolist())
            seen = sum(j in landmarks for k in problem.poses["id"].tolist()
                       for j in observed_ids(pipe.slam_map, k))
            sizes[level].append((len(problem.poses), len(problem.landmarks),
                                 len(problem.reprojection_factors), len(problem.dr_factors),
                                 seen))
            return solve(problem, config)
        return traced

    monkeypatch.setattr(drslam.pipeline, "solve_local_ba",
                        sized("local", drslam.optimizer.solve_local_ba))
    monkeypatch.setattr(drslam.pipeline, "solve_global_ba",
                        sized("global", drslam.optimizer.solve_global_ba))
    for record in seq.records:
        pipe.process(record)
        if pipe.gba_events:
            break
    assert pipe.gba_events, "no loop closure"
    assert len(sizes["local"]) >= 10 and len(sizes["global"]) == 1
    assert sizes["global"][0][0] == len(pipe.slam_map.keyframes)
    assert sizes["global"][0][3] >= len(pipe.slam_map.loop_edges) == 1
    for n_poses, n_landmarks, n_rows, _, seen in sizes["local"] + sizes["global"]:
        assert n_poses >= 2 and n_landmarks > 0
        assert n_rows == seen


def observer_walk(slam_map):
    """Point id -> the keyframes whose observations hold it, one keyframe at a time."""
    observers = {}
    for k in sorted(slam_map.keyframes):
        for j in observed_ids(slam_map, k):
            observers.setdefault(j, set()).add(k)
    return observers


def row_tuples(rows):
    return [(k, j, u, v) for k, j, (u, v) in zip(rows["pose"].tolist(), rows["landmark"].tolist(),
                                                 rows["uv"].tolist())]


def test_keyframe_point_relation_matches_observer_walk(monkeypatch):
    # two_lap seed 0 up to its loop closure culls points and runs one global BA;
    # at every keyframe insertion the covisibility counts, the local BA window
    # points, anchors and rows, the culled ids and the global BA live points
    # and rows must be what per-keyframe id sets give; three anchors at most,
    # so that the anchor ranking picks among more voters
    monkeypatch.setattr(drslam.pipeline, "MAX_ANCHOR_KEYFRAMES", 3)
    config = parse_config(resolve_config_path("two_lap"))
    seq = simulate_sequence(config.world_config())
    p = config.pipeline_params()
    pipe = Pipeline(p, seq.camera, seq.world, "adaptive")
    covisibility, expected, culled = {}, {}, []
    counts = {"insertions": 0, "local": 0, "global": 0, "capped": 0}
    local_ba, cull_points = Pipeline._local_ba, Pipeline._cull_points

    def ids_of(k):
        return observed_ids(pipe.slam_map, k)

    def checked_local_ba(self, new_kf):
        # runs right after new_kf's covisibility is stored, before culling
        counts["insertions"] += 1
        observers = observer_walk(self.slam_map)
        for k in self.slam_map.keyframes:
            shared = len(set(ids_of(k)) & set(ids_of(new_kf.id)))
            if k != new_kf.id and shared:
                covisibility.setdefault(k, {})[new_kf.id] = shared
                covisibility.setdefault(new_kf.id, {})[k] = shared
        assert self.slam_map.covisibility == covisibility
        by_count = sorted(covisibility.get(new_kf.id, {}).items(), key=lambda e: (-e[1], e[0]))
        window = {new_kf.id} | {k for k, _ in by_count[:MAX_LOCAL_KEYFRAMES]} | {
            k for k in range(new_kf.id - p.smoothing_halfwidth, new_kf.id)
            if k in self.slam_map.keyframes}
        points = {j for k in window for j in ids_of(k) if len(observers[j]) >= 2}
        votes = {}
        for j in points:
            for k in observers[j] - window:
                votes[k] = votes.get(k, 0) + 1
        anchors = {k for k, _ in sorted(votes.items(), key=lambda e: (-e[1], e[0]))
                   [:drslam.pipeline.MAX_ANCHOR_KEYFRAMES]}
        counts["capped"] += len(votes) > len(anchors)
        rows = []
        for k in sorted(window | anchors):
            rows += sorted((k, j, u, v) for j, u, v in observed(self.slam_map, k) if j in points)
        expected["local"] = (window, anchors, sorted(points), rows)
        local_ba(self, new_kf)

    def checked_local_solve(problem, config=None):
        window, anchors, points, rows = expected.pop("local")
        poses = set(problem.poses["id"].tolist())
        assert window <= poses and poses - window == anchors
        assert anchors <= set(problem.poses["id"][problem.poses["fixed"]].tolist())
        assert problem.landmarks["id"].tolist() == points
        assert row_tuples(problem.reprojection_factors) == rows
        counts["local"] += 1
        return drslam.optimizer.solve_local_ba(problem, config)

    def checked_cull(self, current_kf):
        observers = observer_walk(self.slam_map)
        points = self.slam_map.points
        doomed = {j for j, created in zip(points.ids.tolist(), points.created_kf.tolist())
                  if len(observers[j]) < 2 and current_kf - created >= 2}
        before = {k: observed(self.slam_map, k) for k in self.slam_map.keyframes}
        kept = [(j, x.tobytes(), c) for j, x, c in
                zip(points.ids.tolist(), points.positions, points.created_kf.tolist())
                if j not in doomed]
        cull_points(self, current_kf)
        points = self.slam_map.points
        assert list(zip(points.ids.tolist(), (x.tobytes() for x in points.positions),
                        points.created_kf.tolist())) == kept
        for k in self.slam_map.keyframes:
            assert observed(self.slam_map, k) == [o for o in before[k] if o[0] not in doomed]
        assert np.all(np.diff(self.slam_map.observations["pose"]) >= 0)
        culled.extend(doomed)

    def checked_global_solve(problem, config=None):
        observers = observer_walk(pipe.slam_map)
        live = [j for j in pipe.slam_map.points.ids.tolist() if len(observers[j]) >= 2]
        assert problem.landmarks["id"].tolist() == live
        assert row_tuples(problem.reprojection_factors) == [
            (k, j, u, v) for k in sorted(pipe.slam_map.keyframes)
            for j, u, v in observed(pipe.slam_map, k) if len(observers[j]) >= 2]
        counts["global"] += 1
        return drslam.optimizer.solve_global_ba(problem, config)

    monkeypatch.setattr(Pipeline, "_local_ba", checked_local_ba)
    monkeypatch.setattr(Pipeline, "_cull_points", checked_cull)
    monkeypatch.setattr(drslam.pipeline, "solve_local_ba", checked_local_solve)
    monkeypatch.setattr(drslam.pipeline, "solve_global_ba", checked_global_solve)
    for record in seq.records:
        pipe.process(record)
        if pipe.gba_events:
            break
    assert pipe.gba_events, "no loop closure"
    assert counts["global"] == 1 and culled and counts["capped"]
    assert counts["local"] == counts["insertions"] == len(pipe.slam_map.keyframes) - 1
    assert covisibility


def test_failed_global_ba_rolls_back_loop_edge_and_arms_cooldown(monkeypatch):
    attempts = []

    def diverging(problem, config=None):
        attempts.append(int(problem.poses["id"].max()))   # the keyframe that found the loop
        raise Diverged("forced failure")

    monkeypatch.setattr("drslam.pipeline.solve_global_ba", diverging)
    res = run_pipeline(closed_loop_sequence(), PARAMS, "adaptive")
    assert attempts, "no loop closure was attempted"
    assert res.slam_map.loop_edges == []
    assert res.gba_events == []
    assert res.gba_failed == len(attempts)
    assert all(b - a >= LOOP_COOLDOWN for a, b in zip(attempts, attempts[1:]))


def test_motion_only_fallbacks_are_counted(monkeypatch):
    solve_motion_only = drslam.pipeline.solve_motion_only
    calls = []

    def every_fifth_diverges(*args, **kwargs):
        calls.append(len(calls) + 1)
        if calls[-1] % 5 == 0:
            raise Diverged("forced failure")
        return solve_motion_only(*args, **kwargs)

    monkeypatch.setattr("drslam.pipeline.solve_motion_only", every_fifth_diverges)
    res = run_pipeline(straight_sequence(n_frames=60), PARAMS, "adaptive")
    assert len(calls) == 59
    assert res.motion_failed == 11
    # each fallback leaves its frame at the prediction, marked not tracked
    assert sum(not f.tracked_ok for f in res.frames) == res.motion_failed
    assert all(f.solver_iterations == 0 for f in res.frames if not f.tracked_ok)


def test_map_round_trip_empty(tmp_path):
    m = SlamMap()
    path = tmp_path / "empty.gwmap"
    save_map(m, path)
    back = load_map(path)
    assert back.keyframes == {} and len(back.points.ids) == 0


def pose_bytes(pose):
    return None if pose is None else (pose.q.tobytes(), pose.t.tobytes())


def same_float(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def assert_maps_equal(a: SlamMap, b: SlamMap):
    """Every field of every keyframe, point and edge, bit for bit."""
    assert sorted(a.keyframes) == sorted(b.keyframes)
    for k in a.keyframes:
        ka, kb = a.keyframes[k], b.keyframes[k]
        assert (ka.id, ka.frame_id, ka.n_trk) == (kb.id, kb.frame_id, kb.n_trk)
        assert ka.timestamp == kb.timestamp and ka.quality == kb.quality
        assert same_float(ka.lba_alpha, kb.lba_alpha)
        for field in ("pose", "dr_to_prev", "gt_pose"):
            assert pose_bytes(getattr(ka, field)) == pose_bytes(getattr(kb, field)), field
    oa, ob = a.observations, b.observations
    assert (oa.dtype, oa.shape, oa.tobytes()) == (ob.dtype, ob.shape, ob.tobytes())
    for column in ("ids", "positions", "created_kf"):
        ca, cb = getattr(a.points, column), getattr(b.points, column)
        assert (ca.dtype, ca.shape, ca.tobytes()) == (cb.dtype, cb.shape, cb.tobytes()), column
    assert a.covisibility == b.covisibility
    assert a.dr_edges == b.dr_edges
    assert [(i, j, pose_bytes(rel), scale) for i, j, rel, scale in a.loop_edges] == \
        [(i, j, pose_bytes(rel), scale) for i, j, rel, scale in b.loop_edges]


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def poses(draw):
    rotation = exp_se3(np.array([0.0] * 3 + [draw(st.floats(-3.0, 3.0)) for _ in range(3)]))
    return Pose(rotation.q, np.array([draw(finite) for _ in range(3)]))


@st.composite
def slam_maps(draw):
    """Small maps: keyframes with drawn observations, each of a point at most
    once, points, covisibility, DR and loop edges, each loop edge of its own
    keyframe pair."""
    m = SlamMap()
    kf_ids = sorted(draw(st.sets(st.integers(0, 40), max_size=5)))
    point_ids = draw(st.sets(st.integers(0, 12), max_size=8))
    for k in kf_ids:
        rows = draw(st.lists(st.tuples(st.integers(0, 12), finite, finite), max_size=4,
                             unique_by=lambda row: row[0]))
        m.observations = np.concatenate([m.observations, reprojection_rows(
            k, [j for j, _, _ in rows], [(u, v) for _, u, v in rows])])
        m.keyframes[k] = KeyFrame(
            k, draw(st.integers(0, 10 ** 6)), draw(finite), draw(poses()),
            n_trk=draw(st.integers(0, 1000)), quality=draw(finite),
            lba_alpha=draw(st.just(float("nan")) | finite),
            dr_to_prev=draw(st.none() | poses()), gt_pose=draw(st.none() | poses()))
    positions, created = [], []
    for _ in sorted(point_ids):
        positions.append([draw(finite) for _ in range(3)])
        created.append(draw(st.integers(0, 40)))
    m.points = PointTable(np.array(sorted(point_ids), dtype=np.int64),
                          np.array(positions, dtype=float).reshape(-1, 3),
                          np.array(created, dtype=np.int64))
    if len(kf_ids) >= 2:
        pairs = st.lists(st.sampled_from(kf_ids), min_size=2, max_size=2, unique=True)
        for a, b in draw(st.lists(pairs, max_size=4)):
            m.add_covisibility(a, b, draw(st.integers(1, 500)))
        for a, b in draw(st.lists(pairs, max_size=3)):
            m.dr_edges[(a, b)] = draw(finite)
        for a, b in draw(st.lists(pairs, max_size=2, unique_by=tuple)):
            m.loop_edges.append((a, b, draw(poses()), draw(finite)))
    return m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(slam_maps())
def test_map_round_trip_property(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.gwmap"
        save_map(m, path)
        assert_maps_equal(m, load_map(path))


def test_map_round_trip_real_run(tmp_path):
    seq = straight_sequence(n_frames=200)
    res = run_pipeline(seq, PARAMS, "adaptive")
    assert len(res.slam_map.keyframes) >= 10
    path = tmp_path / "run.gwmap"
    save_map(res.slam_map, path)
    assert_maps_equal(res.slam_map, load_map(path))


def test_map_rewrite_of_corridor_run_is_byte_identical(tmp_path):
    config = parse_config(resolve_config_path("corridor_gap"))
    seq = simulate_sequence(config.world_config())
    res = run_pipeline(seq, config.pipeline_params(), "adaptive")
    assert len(res.slam_map.points.ids) > 0
    save_map(res.slam_map, tmp_path / "run.gwmap")
    save_map(load_map(tmp_path / "run.gwmap"), tmp_path / "again.gwmap")
    assert (tmp_path / "again.gwmap").read_bytes() == (tmp_path / "run.gwmap").read_bytes()


def test_map_load_truncated_raises(tmp_path):
    seq = straight_sequence(n_frames=50)
    res = run_pipeline(seq, PARAMS, "adaptive")
    path = tmp_path / "run.gwmap"
    save_map(res.slam_map, path)
    text = path.read_text().splitlines()
    (tmp_path / "bad.gwmap").write_text("\n".join(
        line[:20] if i == 2 else line for i, line in enumerate(text)) + "\n")
    with pytest.raises(FormatError):
        load_map(tmp_path / "bad.gwmap")
    (tmp_path / "nomagic.gwmap").write_text("not a map\n")
    with pytest.raises(FormatError):
        load_map(tmp_path / "nomagic.gwmap")
    point = text[text.index("[points]") + 1]
    (tmp_path / "twice.gwmap").write_text("\n".join(text + ["[points]", point]) + "\n")
    with pytest.raises(FormatError, match=r"duplicate \[points\] entry") as error:
        load_map(tmp_path / "twice.gwmap")
    assert error.value.line == len(text) + 2


def saved_map_lines(tmp_path):
    """The lines of a saved straight-line run's map."""
    res = run_pipeline(straight_sequence(n_frames=50), PARAMS, "adaptive")
    save_map(res.slam_map, tmp_path / "run.gwmap")
    return (tmp_path / "run.gwmap").read_text().splitlines()


LOOP_EDGE = "0 5 100 0 0 0 0 0 0 1"


@pytest.mark.parametrize("section, edit, message", [
    ("[keyframes]", None, r"duplicate \[keyframes\] entry 0"),
    ("[keyframe_dr]", None, r"duplicate \[keyframe_dr\] entry 1"),
    ("[keyframe_gt]", None, r"duplicate \[keyframe_gt\] entry 0"),
    ("[observations]", None, r"duplicate \[observations\] entry 0 \d+"),
    ("[covisibility]", None, r"duplicate \[covisibility\] entry 0 1"),
    ("[covisibility]", "swap", r"duplicate \[covisibility\] entry 1 0"),
    ("[dredges]", None, r"duplicate \[dredges\] entry 0 1"),
    ("[loopedges]", LOOP_EDGE, r"duplicate \[loopedges\] entry 0 5")],
    ids=["keyframe", "keyframe_dr", "keyframe_gt", "observation", "covisibility",
         "covisibility_swapped", "dredge", "loopedge"])
def test_map_load_rejects_a_repeated_entry_on_its_line(tmp_path, section, edit, message):
    # the section's first data line given twice: the copy, at file line i + 2
    # for list index i of the original, is rejected; a covisibility pair is the
    # same entry in either order, and the straight run closes no loop, so its
    # map is given one loop edge first
    text = saved_map_lines(tmp_path)
    i = text.index(section) + 1
    if edit == LOOP_EDGE:
        text.insert(i, LOOP_EDGE)
        assert load_map(write_lines(tmp_path / "loop.gwmap", text)).loop_edges[0][:2] == (0, 5)
    copy = text[i]
    if edit == "swap":
        a, b, count = copy.split()
        copy = f"{b} {a} {count}"
    with pytest.raises(FormatError, match=message) as error:
        load_map(write_lines(tmp_path / "twice.gwmap", text[:i + 1] + [copy] + text[i + 1:]))
    assert error.value.line == i + 2


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_repeat_determinism_identical_outputs():
    seq = straight_sequence(n_frames=100, seed=17)
    res1 = run_pipeline(seq, PARAMS, "adaptive")
    res2 = run_pipeline(seq, PARAMS, "adaptive")
    for a, b in zip(res1.frames, res2.frames):
        assert np.array_equal(a.pose.t, b.pose.t)
        assert np.array_equal(a.pose.q, b.pose.q)


def test_gap_drift_bounded_by_dr_random_walk():
    g = 16
    sigma_t = 0.004
    cfg = WorldConfig(waypoints=[(0, 0), (8, 0)], n_frames=90,
                      density=[(0.0, 70.0)], clutter=300, pixel_noise=0.5,
                      dr_sigma_t=sigma_t, dr_sigma_r_deg=0.05, depth_max=5.0,
                      dropouts=[Dropout(40, 40 + g - 1, 0)], seed=2)
    seq = simulate_sequence(cfg)
    res = run_pipeline(seq, PARAMS, "adaptive")
    fa = res.frames[39]
    fb = res.frames[39 + g]
    est_rel = np.linalg.inv(fa.pose.matrix()) @ fb.pose.matrix()
    gt_rel = np.linalg.inv(fa.gt_pose.matrix()) @ fb.gt_pose.matrix()
    drift = np.linalg.norm(est_rel[:3, 3] - gt_rel[:3, 3])
    assert drift <= 3.0 * math.sqrt(g) * sigma_t


def test_dr_only_emits_cadence_keyframes():
    seq = straight_sequence(n_frames=60)
    res = run_pipeline(seq, PARAMS, "dr-only")
    assert len(res.slam_map.keyframes) == 1 + (59 // K_MAX)
    assert len(res.slam_map.points.ids) == 0


def test_lba_edge_weights_respect_bounds():
    seq = straight_sequence(n_frames=120, dropouts=[Dropout(40, 70, 0)])
    res = run_pipeline(seq, PARAMS, "adaptive")
    assert res.slam_map.dr_edges
    for alpha in res.slam_map.dr_edges.values():
        assert PARAMS.bounds.alpha_min - 1e-12 <= alpha <= PARAMS.bounds.alpha_max + 1e-12


def test_lba_rejects_nonpositive_fixed_weight():
    import dataclasses
    seq = straight_sequence(n_frames=40)
    params = dataclasses.replace(PARAMS, fixed_alpha=0.0)
    with pytest.raises(ValueError):
        run_pipeline(seq, params, "fixed-dr")
