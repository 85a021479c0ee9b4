"""Synthetic sequence generation and sequence directory I/O.

A sequence holds per-frame ground truth, detections from an ideal pinhole
camera over a landmark field with a controllable visible-density profile,
and noisy dead-reckoning increments. Clutter (detections of no landmark) is
drawn, ranked in the drop-out and cap selection and counted in each frame's
``n_det``, but only landmark detections are kept. Sequences round-trip
losslessly through a directory layout of TUM and CSV files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpec, FormatError
from .fileio import (csv_line, fmt, fmt_bool, int_column, parse_bool, read_csv, read_tum,
                     tum_row_line, write_csv, write_tum)
from .geometry import CameraIntrinsics, Pose, compose, exp_se3, inverse, se3_compose, se3_inverse

DEFAULT_CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)

META_MAGIC = "GWSEQ v1"


@dataclass(frozen=True)
class Dropout:
    """Frame range [start, end] with the detection count forced to n_det.

    With ``clustered`` the surviving detections are the ones closest to an
    off-center image anchor, which makes the remaining geometry degenerate
    the way a single low-texture wall patch is.
    """

    start: int
    end: int
    n_det: int = 0
    clustered: bool = False


@dataclass
class WorldConfig:
    waypoints: list = field(default_factory=lambda: [(0.0, 0.0), (10.0, 0.0)])
    closed: bool = False
    n_frames: int = 300
    fps: float = 30.0
    density: list = field(default_factory=lambda: [(0.0, 80.0)])  # (arc start [m], visible count)
    detection_cap: int = 800
    clutter: int = 0
    pixel_noise: float = 0.0            # [px]
    dr_sigma_t: float = 0.0             # [m/frame, per axis]
    dr_sigma_r_deg: float = 0.0         # [deg/frame, per axis]
    dr_bias_t: tuple = (0.0, 0.0, 0.0)  # [m/frame, camera frame]
    dr_bias_r_deg: tuple = (0.0, 0.0, 0.0)
    dropouts: list = field(default_factory=list)
    depth_min: float = 0.3
    depth_max: float = 8.0
    seed: int = 0

    def __post_init__(self):
        for fields, valid, message in (
                (("detection_cap",), self.detection_cap > 0, "detection cap must be positive"),
                (("clutter",), self.clutter >= 0, "clutter count must be nonnegative"),
                (("density",), all(d >= 0 for _, d in self.density),
                 "density values must be nonnegative"),
                (("pixel_noise", "dr_sigma_t", "dr_sigma_r_deg"),
                 not (self.pixel_noise < 0 or self.dr_sigma_t < 0 or self.dr_sigma_r_deg < 0),
                 "noise standard deviations must be nonnegative"),
                (("fps",), 0 < self.fps < math.inf, "frame rate must be finite and positive"),
                (("n_frames",), self.n_frames >= 1, "a sequence needs at least one frame"),
                (("depth_min", "depth_max"), 0 <= self.depth_min < self.depth_max < math.inf,
                 "depth range must satisfy 0 <= depth_min < depth_max < inf"),
                (("seed",), self.seed >= 0, "seed must be nonnegative")):
            if not valid:
                raise WorldConfigError(message, fields)


class WorldConfigError(ValueError):
    """A WorldConfig value out of range; fields names the fields checked.
    fields has a default so that the error unpickles, as it must to come
    back from a worker process."""

    def __init__(self, message: str, fields: tuple = ()):
        super().__init__(message)
        self.fields = fields


def _float_pairs(sep: str):
    """(parse, format) of a ';'-separated list of float pairs, each written a<sep>b."""
    def parse(s: str):
        out = []
        for part in s.split(";"):
            a, b = part.split(sep)
            out.append((float(a), float(b)))
        return out

    def render(pairs) -> str:
        return ";".join(f"{fmt(a)}{sep}{fmt(b)}" for a, b in pairs)

    return parse, render


def _parse_vec3(s: str):
    x, y, z = (float(v) for v in s.split(","))
    return (x, y, z)


def _fmt_vec3(v):
    return ",".join(fmt(x) for x in v)


def _parse_dropouts(s: str):
    if not s.strip():
        return []
    out = []
    for part in s.split(";"):
        bits = part.split(":")
        if len(bits) not in (3, 4):
            raise ValueError(f"dropout needs start:end:n_det[:clustered], got {part!r}")
        clustered = bool(int(bits[3])) if len(bits) == 4 else False
        out.append(Dropout(int(bits[0]), int(bits[1]), int(bits[2]), clustered))
    return out


def _fmt_dropouts(d):
    return ";".join(f"{x.start}:{x.end}:{x.n_det}:{int(x.clustered)}" for x in d)


# WorldConfig field -> (parse, format) of its text, in field order. The
# ``world.*`` configuration keys and the entries of a sequence's ``meta``
# are both read and written through this table.
WORLD_FIELDS = {
    "waypoints": _float_pairs(","),
    "closed": (parse_bool, fmt_bool),
    "n_frames": (int, str),
    "fps": (float, fmt),
    "density": _float_pairs(":"),
    "detection_cap": (int, str),
    "clutter": (int, str),
    "pixel_noise": (float, fmt),
    "dr_sigma_t": (float, fmt),
    "dr_sigma_r_deg": (float, fmt),
    "dr_bias_t": (_parse_vec3, _fmt_vec3),
    "dr_bias_r_deg": (_parse_vec3, _fmt_vec3),
    "dropouts": (_parse_dropouts, _fmt_dropouts),
    "depth_min": (float, fmt),
    "depth_max": (float, fmt),
    "seed": (int, str),
}


@dataclass(frozen=True, eq=False)
class Detections:
    """One frame's landmark detections, rows in detection order.

    ``ids`` (N,) int64 holds each row's landmark id (>= 0) and ``uv``
    (N, 2) float64 its pixel. Iterating yields ``(id, u, v)`` rows as a
    Python int and two floats.
    """

    ids: np.ndarray
    uv: np.ndarray

    @classmethod
    def empty(cls) -> Detections:
        return cls(np.empty(0, dtype=np.int64), np.empty((0, 2)))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return zip(self.ids.tolist(), *self.uv.T.tolist())

    def take(self, rows) -> Detections:
        """The rows selected by an index array or boolean mask, in that order."""
        return Detections(self.ids[rows], self.uv[rows])


@dataclass
class SimFrameRecord:
    frame_id: int
    timestamp: float
    gt_pose: Pose | None
    detections: Detections
    dr_delta: Pose | None               # relative increment to previous frame
    odom_pose: Pose | None              # absolute DR-integrated pose
    n_det: int                          # detections, clutter included


@dataclass
class Sequence:
    records: list
    world: dict                         # landmark_id -> position (3,)
    camera: CameraIntrinsics
    meta: dict


def _density_at(density, s: float) -> float:
    value = density[0][1]
    for start, d in density:
        if s >= start:
            value = d
        else:
            break
    return value


def _yaw_pose(position: np.ndarray, yaw: float) -> Pose:
    # camera: +z forward along the tangent, +y down (world -z up)
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([
        [s, 0.0, c],
        [-c, 0.0, s],
        [0.0, -1.0, 0.0],
    ])
    T = np.eye(4)
    T[:3, :3] = rot
    T[:3, 3] = position
    return Pose.from_matrix(T)


def _path(config: WorldConfig):
    """The waypoint polyline: its points, back to the first when closed, each
    segment's vector and length, and the arc length at each point."""
    points = [np.array([x, y, 0.0]) for x, y in config.waypoints]
    if config.closed and np.linalg.norm(points[0] - points[-1]) > 1e-12:
        points.append(points[0].copy())
    if len(points) < 2:
        raise DegenerateSpec("need at least two waypoints")
    seg_vecs = [b - a for a, b in zip(points, points[1:])]
    seg_lens = [float(np.linalg.norm(v)) for v in seg_vecs]
    if any(l < 1e-12 for l in seg_lens):
        raise DegenerateSpec("coincident consecutive waypoints")
    return points, seg_vecs, seg_lens, np.concatenate([[0.0], np.cumsum(seg_lens)])


def generate_trajectory(config: WorldConfig):
    """Constant-speed poses along the waypoint polyline, yaw on the tangent.

    Returns (poses, arc positions). Closed specs revisit the start exactly.
    """
    points, seg_vecs, seg_lens, cum = _path(config)
    total = cum[-1]
    n = config.n_frames
    poses, arcs = [], []
    for i in range(n):
        s = total * i / (n - 1) if n > 1 else 0.0
        k = int(np.searchsorted(cum, s, side="right")) - 1
        k = min(k, len(seg_vecs) - 1)
        frac = (s - cum[k]) / seg_lens[k]
        pos = points[k] + frac * seg_vecs[k]
        yaw = math.atan2(seg_vecs[k][1], seg_vecs[k][0])
        poses.append(_yaw_pose(pos, yaw))
        arcs.append(s)
    return poses, np.array(arcs)


def _camera_points(pose: Pose, positions: np.ndarray) -> np.ndarray:
    return (positions - pose.t) @ pose.rotation_matrix


def _visible_mask(cam_pts: np.ndarray, k: CameraIntrinsics, zmin: float, zmax: float):
    z = cam_pts[:, 2]
    ok = (z > zmin) & (z < zmax)
    u = np.full(len(cam_pts), -1.0)
    v = np.full(len(cam_pts), -1.0)
    u[ok] = k.fx * cam_pts[ok, 0] / z[ok] + k.cx
    v[ok] = k.fy * cam_pts[ok, 1] / z[ok] + k.cy
    ok &= (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
    return ok, u, v


def populate_landmarks(config: WorldConfig,
                       camera: CameraIntrinsics = DEFAULT_CAMERA) -> np.ndarray:
    """Landmark field whose expected frustum count matches the density profile.

    Points are sampled at uniform spatial density d / V_frustum so a camera
    frustum inside the populated region sees d points in expectation. With a
    single profile value the fill covers the bounding box of the whole
    trajectory inflated by the frustum reach (exact for any heading); with a
    piecewise profile the fill is a tube per density region around the path,
    which keeps steps localized in arc length. Placement draws from its own
    stream keyed to the world seed.
    """
    local = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1a2b]))
    tan_x = 0.5 * camera.width / camera.fx
    tan_y = 0.5 * camera.height / camera.fy
    frustum_volume = 4.0 * tan_x * tan_y * (config.depth_max ** 3 - config.depth_min ** 3) / 3.0
    half_w = tan_x * config.depth_max
    half_h = tan_y * config.depth_max

    if len(config.density) == 1:
        d = config.density[0][1]
        if d <= 0:
            return np.zeros((0, 3))
        reach = config.depth_max * math.sqrt(1.0 + tan_x * tan_x)
        xy = np.array(config.waypoints, dtype=float)
        lo = xy.min(axis=0) - reach
        hi = xy.max(axis=0) + reach
        volume = float((hi[0] - lo[0]) * (hi[1] - lo[1]) * 2 * half_h)
        count = int(round(d / frustum_volume * volume))
        xs = local.uniform(lo[0], hi[0], count)
        ys = local.uniform(lo[1], hi[1], count)
        zs = local.uniform(-half_h, half_h, count)
        return np.column_stack([xs, ys, zs])

    points, seg_vecs, seg_lens, cum = _path(config)
    segments = [(s0, s1, a, vec / length)
                for s0, s1, a, vec, length in zip(cum, cum[1:], points, seg_vecs, seg_lens)]
    arc = cum[-1]
    if not config.closed:
        # phantom extension so end-of-path frustums stay populated
        s0, s1, a, direction = segments[-1]
        segments[-1] = (s0, s1 + config.depth_max, a, direction)
        arc += config.depth_max

    breaks = sorted(s for s, _ in config.density)
    edges = sorted(set(breaks) | {0.0, arc} | {s0 for s0, *_ in segments} | {s1 for _, s1, *_ in segments})
    positions = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-12 or hi > arc + 1e-9:
            continue
        d = _density_at(config.density, lo)
        if d <= 0:
            continue
        seg = next(s for s in segments if s[0] - 1e-9 <= lo < s[1] + 1e-9 and hi <= s[1] + 1e-9)
        _, _, origin, direction = seg
        lateral = np.array([-direction[1], direction[0], 0.0])
        volume = (hi - lo) * (2 * half_w) * (2 * half_h)
        count = int(round(d / frustum_volume * volume))
        along = local.uniform(lo, hi, count)
        off_w = local.uniform(-half_w, half_w, count)
        off_h = local.uniform(-half_h, half_h, count)
        base = origin + (along - seg[0])[:, None] * direction
        positions.append(base + off_w[:, None] * lateral + off_h[:, None] * np.array([0.0, 0.0, 1.0]))
    if not positions:
        return np.zeros((0, 3))
    return np.vstack(positions)


def squared_distance(uv: np.ndarray, center) -> np.ndarray:
    """Squared pixel distance of each row of uv (N, 2) from center (u, v), scalars or (N,)."""
    # float_power rounds each square as a Python float's ``** 2`` (libm pow)
    # does, which keeps drop-out ranks, gate decisions and so the pinned
    # sequence bytes and run outputs; an array's ``** 2`` is x * x, which
    # differs from it in the last bit for about one value in a thousand
    return np.float_power(uv[:, 0] - center[0], 2) + np.float_power(uv[:, 1] - center[1], 2)


def _select_detections(dets: Detections, n_keep: int, clustered: bool,
                       camera: CameraIntrinsics, landmarks=None) -> Detections:
    """Deterministic subset when a drop-out forces the detection count down.

    Plain drop-outs keep the most central detections. Clustered drop-outs
    keep a tight 3D neighborhood (one wall patch): seeded by the detection
    nearest an off-center anchor, then grown by landmark-space distance, so
    the surviving geometry is nearly degenerate for pose estimation. Ties
    go to the lower landmark id; clutter fills up in detection order.
    """
    rows = np.flatnonzero(dets.ids >= 0)
    ids = dets.ids[rows]
    if clustered and landmarks is not None and len(rows):
        anchor = (0.2 * camera.width, 0.5 * camera.height)
        seed = ids[np.lexsort((ids, squared_distance(dets.uv[rows], anchor)))[0]]
        key = np.sum((landmarks[ids] - landmarks[seed]) ** 2, axis=1)
    else:
        key = squared_distance(dets.uv[rows], (camera.cx, camera.cy))
    ranked = rows[np.lexsort((ids, key))][:n_keep]
    clutter = np.flatnonzero(dets.ids < 0)[:n_keep - len(ranked)]
    return dets.take(np.concatenate([ranked, clutter]))


def simulate_frame(gt_pose: Pose, prev_gt: Pose | None, landmarks: np.ndarray,
                   config: WorldConfig, rng, frame_id: int,
                   camera: CameraIntrinsics = DEFAULT_CAMERA) -> SimFrameRecord:
    detections = Detections.empty()
    if len(landmarks):
        cam = _camera_points(gt_pose, landmarks)
        ok, u, v = _visible_mask(cam, camera, config.depth_min, config.depth_max)
        ids = np.flatnonzero(ok)
        if len(ids):
            noise = rng.normal(scale=config.pixel_noise, size=(len(ids), 2)) \
                if config.pixel_noise > 0 else 0.0
            uv = np.column_stack([u[ids], v[ids]]) + noise
            detections = Detections(ids, uv).take(
                (uv[:, 0] >= 0) & (uv[:, 0] < camera.width)
                & (uv[:, 1] >= 0) & (uv[:, 1] < camera.height))
    if config.clutter:
        cu = rng.uniform(0.0, camera.width - 1e-6, config.clutter)
        cv = rng.uniform(0.0, camera.height - 1e-6, config.clutter)
        detections = Detections(
            np.concatenate([detections.ids, np.full(config.clutter, -1)]),
            np.concatenate([detections.uv, np.column_stack([cu, cv])]))

    active = None
    for d in config.dropouts:
        if d.start <= frame_id <= d.end:
            active = d
            break
    if active is not None:
        detections = _select_detections(detections, active.n_det, active.clustered,
                                        camera, landmarks)
    elif len(detections) > config.detection_cap:
        detections = _select_detections(detections, config.detection_cap, False, camera)

    dr_delta = None
    if prev_gt is not None:
        gt_delta = compose(inverse(prev_gt), gt_pose)
        eps = np.concatenate([
            np.asarray(config.dr_bias_t, float) + rng.normal(scale=config.dr_sigma_t, size=3),
            np.radians(config.dr_bias_r_deg) + rng.normal(scale=math.radians(config.dr_sigma_r_deg), size=3),
        ])
        dr_delta = compose(gt_delta, exp_se3(eps))

    return SimFrameRecord(
        frame_id=frame_id,
        timestamp=frame_id / config.fps,
        gt_pose=gt_pose,
        detections=detections.take(detections.ids >= 0),
        dr_delta=dr_delta,
        odom_pose=None,
        n_det=len(detections),
    )


def _odometry_increment(previous_q, previous_t, q, t) -> Pose:
    """The DR increment previous^-1 odom between two odometry poses, given as
    floats: compose(inverse(previous), odom), with the rotation the inverse
    forms. Both the simulator and read_sequence derive a record's increment
    here, so a sequence run in memory and read back from disk carry the same
    bytes."""
    q_inv, t_inv, rotation = se3_inverse(previous_q, previous_t)
    return Pose(*se3_compose(q_inv, t_inv, q, t, rotation))


def simulate_sequence(config: WorldConfig, camera: CameraIntrinsics = DEFAULT_CAMERA) -> Sequence:
    rng = np.random.default_rng(config.seed)
    trajectory = generate_trajectory(config)
    landmarks = populate_landmarks(config, camera)
    records = []
    prev = None
    for i, gt in enumerate(trajectory[0]):
        rec = simulate_frame(gt, prev, landmarks, config, rng, i, camera)
        if prev is None:
            rec.odom_pose = gt
        else:
            # the drawn increment moves the odometry; the record carries the
            # increment that read_sequence derives from the odometry poses
            previous = records[-1].odom_pose
            rec.odom_pose = compose(previous, rec.dr_delta)
            rec.dr_delta = _odometry_increment(previous.q.tolist(), previous.t.tolist(),
                                              rec.odom_pose.q.tolist(), rec.odom_pose.t.tolist())
        records.append(rec)
        prev = gt
    world = {int(j): landmarks[j] for j in range(len(landmarks))}
    meta = _config_meta(config, camera)
    return Sequence(records=records, world=world, camera=camera, meta=meta)


def _config_meta(config: WorldConfig, camera: CameraIntrinsics) -> dict:
    return {"format": META_MAGIC,
            **{name: render(getattr(config, name)) for name, (_, render) in WORLD_FIELDS.items()},
            "fx": fmt(camera.fx), "fy": fmt(camera.fy),
            "cx": fmt(camera.cx), "cy": fmt(camera.cy),
            "width": str(camera.width), "height": str(camera.height)}


def config_from_meta(meta: dict) -> WorldConfig:
    return WorldConfig(**{name: parse(meta[name]) for name, (parse, _) in WORLD_FIELDS.items()})


def camera_from_meta(meta: dict) -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=float(meta["fx"]), fy=float(meta["fy"]),
        cx=float(meta["cx"]), cy=float(meta["cy"]),
        width=int(meta["width"]), height=int(meta["height"]))


def write_sequence(seq: Sequence, path) -> None:
    os.makedirs(path, exist_ok=True)
    write_tum(os.path.join(path, "gt.tum"),
              [(r.timestamp, r.gt_pose) for r in seq.records])
    write_tum(os.path.join(path, "odom.tum"),
              [(r.timestamp, r.odom_pose) for r in seq.records])
    obs_rows = []
    for r in seq.records:
        obs_rows.extend((r.frame_id, j, float(u), float(v)) for j, u, v in r.detections)
    write_csv(os.path.join(path, "obs.csv"), ["frame_id", "landmark_id", "u", "v"], obs_rows)
    write_csv(os.path.join(path, "stats.csv"), ["frame_id", "n_det"],
              [(r.frame_id, r.n_det) for r in seq.records])
    write_csv(os.path.join(path, "world.csv"), ["landmark_id", "x", "y", "z"],
              [(j, float(p[0]), float(p[1]), float(p[2])) for j, p in sorted(seq.world.items())])
    with open(os.path.join(path, "meta"), "w") as f:
        for key, value in seq.meta.items():
            f.write(f"{key} = {value}\n")


def _read_meta(path) -> dict:
    meta = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError("expected 'key = value'", path=str(path), line=lineno)
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    if meta.get("format") != META_MAGIC:
        raise FormatError(f"bad meta magic: {meta.get('format')!r}", path=str(path), line=1)
    return meta


def _frame_ids(table: np.ndarray, path, n_frames: int) -> np.ndarray:
    """Column 0 of a sequence table as frame ids; FormatError outside 0..n_frames-1."""
    frames = int_column(table, 0, "frame_id", path)
    outside = np.flatnonzero((frames < 0) | (frames >= n_frames))
    if len(outside):
        row = int(outside[0])
        raise FormatError(f"frame_id {frames[row]} outside 0..{n_frames - 1}",
                          path=str(path), line=csv_line(path, row))
    return frames


def _detection_counts(stats: np.ndarray, path, n_obs: np.ndarray) -> list:
    """n_det of frames 0..len(n_obs)-1 from a stats table holding one row per
    frame, each count at least the frame's n_obs landmark detections.

    A repeated frame is reported at its second row; a missing frame at the
    row of the next frame present, or at the last line when none follows.
    """
    n_frames = len(n_obs)
    frames = _frame_ids(stats, path, n_frames)
    n_det = int_column(stats, 1, "n_det", path)
    order = np.argsort(frames, kind="stable")
    repeats = order[1:][np.diff(frames[order]) == 0]
    if len(repeats):
        row = int(repeats.min())
        raise FormatError(f"second row for frame {frames[row]}", path=str(path),
                          line=csv_line(path, row))
    if len(frames) < n_frames:
        missing = int(np.flatnonzero(np.bincount(frames, minlength=n_frames) == 0)[0])
        later = np.flatnonzero(frames > missing)
        row = int(later[np.argmin(frames[later])]) if len(later) else len(frames) - 1
        raise FormatError(f"no row for frame {missing}", path=str(path),
                          line=csv_line(path, row) if row >= 0 else 1)
    short = np.flatnonzero(n_det < n_obs[frames])
    if len(short):
        row = int(short[0])
        raise FormatError(f"n_det {n_det[row]} is below the {n_obs[frames[row]]} obs.csv rows "
                          f"of frame {frames[row]}", path=str(path), line=csv_line(path, row))
    counts = np.empty(n_frames, dtype=np.int64)
    counts[frames] = n_det
    return counts.tolist()


def read_sequence(path) -> Sequence:
    meta = _read_meta(os.path.join(path, "meta"))
    camera = camera_from_meta(meta)
    gt_path = os.path.join(path, "gt.tum")
    gt = read_tum(gt_path)
    gt_ts = np.array([ts for ts, _ in gt])
    back = np.flatnonzero(~(np.diff(gt_ts) > 0))
    if len(back):
        raise FormatError("timestamps must be strictly increasing", path=str(gt_path),
                          line=tum_row_line(gt_path, int(back[0]) + 1))
    odom_path = os.path.join(path, "odom.tum")
    odom = read_tum(odom_path)
    if len(gt) != len(odom):
        raise FormatError("gt.tum and odom.tum disagree on frame count", path=str(path))
    # odometry rows pair with ground-truth rows by position, so their
    # timestamps must be the same row for row
    off = np.flatnonzero(np.array([ts for ts, _ in odom]) != gt_ts)
    if len(off):
        row = int(off[0])
        raise FormatError(f"timestamp {odom[row][0]!r} differs from gt.tum's {gt[row][0]!r}",
                          path=str(odom_path), line=tum_row_line(odom_path, row))
    stats_path, obs_path, world_path = (
        os.path.join(path, name) for name in ("stats.csv", "obs.csv", "world.csv"))
    stats = read_csv(stats_path, ["frame_id", "n_det"])
    obs = read_csv(obs_path, ["frame_id", "landmark_id", "u", "v"])
    world_table = read_csv(world_path, ["landmark_id", "x", "y", "z"])
    world = dict(zip(int_column(world_table, 0, "landmark_id", world_path).tolist(),
                     world_table[:, 1:]))

    frames = _frame_ids(obs, obs_path, len(gt))
    ids = int_column(obs, 1, "landmark_id", obs_path)
    negative = np.flatnonzero(ids < 0)
    if len(negative):
        row = int(negative[0])
        raise FormatError(f"landmark_id {ids[row]} is negative", path=str(obs_path),
                          line=csv_line(obs_path, row))
    # Group rows by frame with a stable sort, so rows keep their file order
    # within a frame whatever the order of the frames in the file. Each frame
    # holds a slice of the sorted columns.
    order = np.argsort(frames, kind="stable")
    ids = ids[order]
    uv = obs[order, 2:]
    del obs
    bounds = np.searchsorted(frames[order], np.arange(len(gt) + 1))
    n_det = _detection_counts(stats, stats_path, np.diff(bounds))
    bounds = bounds.tolist()

    # DR increments of every frame after the first, from the floats of one
    # .tolist() of the odometry
    odom_q = np.array([p.q for _, p in odom]).tolist()
    odom_t = np.array([p.t for _, p in odom]).tolist()
    deltas = [None] + [_odometry_increment(q0, t0, q1, t1) for q0, t0, q1, t1 in
                       zip(odom_q, odom_t, odom_q[1:], odom_t[1:])]
    records = []
    for i, ((ts, gt_pose), (_, odom_pose)) in enumerate(zip(gt, odom)):
        a, b = bounds[i], bounds[i + 1]
        records.append(SimFrameRecord(
            frame_id=i, timestamp=ts, gt_pose=gt_pose,
            detections=Detections(ids[a:b], uv[a:b]),
            dr_delta=deltas[i], odom_pose=odom_pose, n_det=n_det[i]))
    return Sequence(records=records, world=world, camera=camera, meta=meta)
