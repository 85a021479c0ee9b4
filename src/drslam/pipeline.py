"""Hierarchical SLAM pipeline with adaptive dead-reckoning support.

Per-frame tracking (predict, associate, motion-only BA), keyframe management
with a covisibility graph, local bundle adjustment with smoothed DR edge
weights, oracle loop detection over simulated geometry, global bundle
adjustment with preserved edge weights, and map persistence.

Modes:
  vision-only  constant-velocity prediction, no DR anywhere, can lose track
  da-only      DR prediction for association only, no DR factors
  fixed-dr     DR factors everywhere at a constant weight (``fixed_alpha``)
  adaptive     DR factors weighted by the live quality score
  dr-only      integrated odometry, no visual processing
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import Diverged, FormatError, NoConstraints, SingularSystem
from .factors import HUBER_PIXEL_SCALE
from .fileio import fmt
from .geometry import CameraIntrinsics, Pose, Z_MIN, back_project, compose, inverse, project_points
from .optimizer import Problem, SolverConfig, solve_global_ba, solve_local_ba, solve_motion_only
from .simulator import Detections, squared_distance
from .weighting import (
    NominalDrInformation,
    QualityParams,
    TrackingStats,
    WeightBounds,
    compute_quality,
    dr_weight,
    keyframe_quality,
    scale_information,
    smooth_window_weights,
    update_c_ref,
)

MODES = ("vision-only", "da-only", "fixed-dr", "adaptive", "dr-only")

MAP_MAGIC = "GWMAP v1"
# Fields per data line of each map section, in file order.
MAP_FIELDS = {"keyframes": 13, "keyframe_dr": 8, "keyframe_gt": 8, "observations": 4,
              "points": 5, "covisibility": 3, "dredges": 3, "loopedges": 10}
# The keyframe pose sections and the KeyFrame attribute each holds.
POSE_SECTIONS = {"keyframe_dr": "dr_to_prev", "keyframe_gt": "gt_pose"}


@dataclass
class Frame:
    id: int
    timestamp: float
    pose: Pose
    stats: TrackingStats
    quality: float
    dr: Pose | None                  # DR increment from the previous frame, camera frame
    tracked_ok: bool
    alpha: float = float("nan")
    solver_iterations: int = 0
    gt_pose: Pose | None = None
    n_cand: int = 0                  # detected map points in front of the prediction


@dataclass
class KeyFrame:
    id: int
    frame_id: int
    timestamp: float
    pose: Pose
    observations: Detections         # map point ids and their pixels
    n_trk: int
    quality: float
    lba_alpha: float = float("nan")
    dr_to_prev: Pose | None = None   # composed frame deltas since previous keyframe
    gt_pose: Pose | None = None


@dataclass
class PointTable:
    """The map's points, rows in ascending id, found with np.searchsorted.

    ``ids`` (M,) int64 holds each row's point id, ``positions`` (M, 3)
    float64 its world position and ``created_kf`` (M,) int64 the keyframe
    that created it.
    """

    ids: np.ndarray
    positions: np.ndarray
    created_kf: np.ndarray

    @classmethod
    def empty(cls) -> PointTable:
        return cls(np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0, dtype=np.int64))

    def rows(self, ids) -> np.ndarray:
        """The rows of point ids (N,), each of which the table holds."""
        return np.searchsorted(self.ids, ids)

    def take(self, rows) -> PointTable:
        """The rows selected by an index array or boolean mask, in that order."""
        return PointTable(self.ids[rows], self.positions[rows], self.created_kf[rows])

    def insert(self, ids, positions, created_kf) -> PointTable:
        """The table with points ids (N,), none of them in it, at positions
        (N, 3), created by keyframe created_kf, one or (N,)."""
        ids = np.concatenate([self.ids, ids])
        order = np.argsort(ids, kind="stable")
        created_kf = np.concatenate([self.created_kf, np.broadcast_to(created_kf, len(positions))])
        return PointTable(ids[order], np.concatenate([self.positions, positions])[order],
                          created_kf[order])


@dataclass
class SlamMap:
    keyframes: dict = field(default_factory=dict)
    points: PointTable = field(default_factory=PointTable.empty)
    covisibility: dict = field(default_factory=dict)   # kf -> {kf: count}
    dr_edges: dict = field(default_factory=dict)       # (a, b) -> alpha
    loop_edges: list = field(default_factory=list)     # (a, b, relative Pose, info scale)

    def observation_table(self) -> tuple[np.ndarray, Detections]:
        """The map's one record of which keyframe sees which point: every
        keyframe's rows, keyframes ascending and each in observation order, as
        the keyframe id of each row and the rows' point ids and pixels."""
        parts = [self.keyframes[k].observations for k in sorted(self.keyframes)]
        kf = np.repeat(sorted(self.keyframes), [len(d) for d in parts])
        return kf, Detections(np.concatenate([d.ids for d in parts]),
                              np.concatenate([d.uv for d in parts]))

    def connection_count(self, kf_id: int) -> int:
        return max(self.covisibility.get(kf_id, {}).values(), default=0)

    def add_covisibility(self, a: int, b: int, count: int) -> None:
        if count <= 0 or a == b:
            return
        self.covisibility.setdefault(a, {})[b] = count
        self.covisibility.setdefault(b, {})[a] = count


@dataclass
class PipelineParams:
    quality: QualityParams = field(default_factory=QualityParams)
    bounds: WeightBounds = field(default_factory=WeightBounds)
    nominal: NominalDrInformation = field(default_factory=NominalDrInformation)
    pixel_std: float = 1.0
    huber_scale: float = HUBER_PIXEL_SCALE
    search_radius: float = 15.0
    min_inliers: int = 10
    lost_frames: int = 5
    fixed_alpha: float = 1.0
    k_max: int = 15
    overlap_ratio: float = 0.5
    d_max: float = 0.5
    kf_min_trk: int = 15
    kf_min_det: int = 50
    q_well: float = 0.8
    c_ref_init: float = 20.0
    c_ref_window: int = 10
    smoothing_halfwidth: int = 2
    max_local_keyframes: int = 10
    max_anchor_keyframes: int = 15
    loop_enabled: bool = True
    loop_radius: float = 0.5
    loop_gap_min: int = 30
    loop_info_scale: float = 100.0
    loop_cooldown: int = 30
    motion_solver: SolverConfig = field(default_factory=lambda: SolverConfig(max_iterations=10))
    ba_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(max_iterations=8, cost_tolerance=1e-6))
    gba_solver: SolverConfig = field(default_factory=SolverConfig)


def predict_pose(prev: Frame, dr: Pose) -> Pose:
    """DR motion model: compose the previous pose with the camera-frame increment."""
    return compose(prev.pose, dr)


def _first_landmark_rows(ids: np.ndarray) -> np.ndarray:
    """Rows, in detection order, of the first detection of each landmark id."""
    _, first = np.unique(ids, return_index=True)
    first.sort()
    return first


def associate_features(detections: Detections, points: PointTable, predicted: Pose,
                       search_radius: float, camera: CameraIntrinsics):
    """Match map points against the frame's detections by projection gating.

    A map point matches the first detection carrying its landmark identity
    (descriptor oracle) when that detection lies within ``search_radius`` of
    the point's projection under the predicted pose. Returns (matches,
    n_trk, n_cand): the matched detections in detection order, their count,
    and the count of candidates, the detected map points in front of the
    predicted camera.
    """
    rows = _first_landmark_rows(detections.ids)
    rows = rows[np.isin(detections.ids[rows], points.ids, assume_unique=True)]
    y, uv = project_points(camera, predicted.rotation_matrix, predicted.t,
                           points.positions[points.rows(detections.ids[rows])])
    front = y[:, 2] > Z_MIN
    rows, (u, v) = rows[front], uv[front].T
    hit = ((-search_radius <= u) & (u < camera.width + search_radius)
           & (-search_radius <= v) & (v < camera.height + search_radius)
           & (squared_distance(detections.uv[rows], (u, v)) <= search_radius ** 2))
    matches = detections.take(rows[hit])
    return matches, len(matches), len(rows)


def _seen_twice(ids: np.ndarray) -> np.ndarray:
    """The point ids, ascending, in at least two rows of an observation table,
    that is seen by at least two keyframes (a keyframe holds a point once)."""
    unique, counts = np.unique(ids, return_counts=True)
    return unique[counts >= 2]


def decide_keyframe(frame: Frame, last_kf: KeyFrame, params: PipelineParams) -> bool:
    return bool(frame.id - last_kf.frame_id >= params.k_max
                or (last_kf.n_trk > 0 and frame.stats.n_trk / last_kf.n_trk < params.overlap_ratio)
                or np.linalg.norm(frame.pose.t - last_kf.pose.t) > params.d_max)


@dataclass
class GbaEvent:
    frame_id: int
    kf_from: int
    kf_to: int
    pre_keyframes: list      # (timestamp, Pose) before global BA
    post_keyframes: list     # (timestamp, Pose) after global BA


@dataclass
class RunResult:
    mode: str
    frames: list
    slam_map: SlamMap
    track_lost_frame: int | None
    gba_events: list
    motion_failed: int       # frames left at the prediction (NoConstraints, Diverged, SingularSystem)
    lba_failed: int          # local BA windows left unrefined (Diverged, SingularSystem)
    gba_failed: int          # global BAs that failed and had their loop edge rolled back

    def frame_trajectory(self):
        return [(f.timestamp, f.pose) for f in self.frames]

    def keyframe_trajectory(self):
        return [(kf.timestamp, kf.pose) for _, kf in sorted(self.slam_map.keyframes.items())]

    def tracking_ratio(self) -> float:
        if not self.frames:
            return 0.0
        return sum(1 for f in self.frames if f.tracked_ok) / len(self.frames)


class Pipeline:
    """Single-owner sequential pipeline: track, map, close loops per frame."""

    def __init__(self, params: PipelineParams, camera: CameraIntrinsics,
                 world: dict | None = None, mode: str = "adaptive"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.params = params
        self.camera = camera
        world = world or {}
        # the depth oracle's true landmark positions, created by no keyframe
        self._world = PointTable.empty().insert(
            np.fromiter(world, dtype=np.int64, count=len(world)),
            np.array(list(world.values()), dtype=float).reshape(-1, 3), -1)
        self.mode = mode
        self.slam_map = SlamMap()
        self.frames: list[Frame] = []
        self.prev_frame: Frame | None = None
        self.prev_prev_pose: Pose | None = None
        self.acc_delta: Pose | None = Pose.identity()
        self.c_ref = params.c_ref_init
        self.lost_streak = 0
        self.track_lost_frame: int | None = None
        self.last_gba_kf: int | None = None
        self.gba_events: list[GbaEvent] = []
        self.motion_failed = 0
        self.lba_failed = 0
        self.gba_failed = 0
        self._next_kf_id = 0

    # ----- tracking -------------------------------------------------------

    def _predict(self, dr: Pose | None) -> Pose:
        prev = self.prev_frame
        if self.mode == "vision-only" or dr is None:
            if self.prev_prev_pose is None:
                return prev.pose
            cv = compose(inverse(self.prev_prev_pose), prev.pose)
            return compose(prev.pose, cv)
        return predict_pose(prev, dr)

    def _alpha_for_quality(self, q: float) -> float | None:
        if self.mode == "adaptive":
            return dr_weight(q, self.params.bounds)
        if self.mode == "fixed-dr":
            return self.params.fixed_alpha
        return None

    def _solve_motion(self, predicted, matches: Detections, dr, alpha):
        p = self.params
        points = self.slam_map.points.positions[self.slam_map.points.rows(matches.ids)]
        prior = None
        if alpha is not None and dr is not None:
            prior = (self.prev_frame.pose, dr, scale_information(alpha, p.nominal))
        return solve_motion_only(self.camera, predicted, points, matches.uv, p.pixel_std,
                                 p.huber_scale, prior, p.motion_solver)

    def process(self, record) -> Frame:
        dr = record.dr_delta
        if self.prev_frame is None:
            pose = record.gt_pose if record.gt_pose is not None else Pose.identity()
            stats = TrackingStats(record.n_det, 0)
            frame = Frame(record.frame_id, record.timestamp, pose, stats,
                          compute_quality(stats, self.params.quality), dr,
                          tracked_ok=True, gt_pose=record.gt_pose)
            self.frames.append(frame)
            if self.mode == "dr-only":
                self._bare_keyframe(frame)
            else:
                self._insert_keyframe(frame, record, Detections.empty())
            self.prev_frame = frame
            return frame

        predicted = self._predict(dr)

        if self.mode == "dr-only" or self.track_lost_frame is not None:
            # no visual processing: integrated odometry, or tracking lost for good
            stats = TrackingStats(record.n_det, 0)
            frame = Frame(record.frame_id, record.timestamp, predicted, stats,
                          compute_quality(stats, self.params.quality), dr,
                          tracked_ok=self.mode == "dr-only", gt_pose=record.gt_pose)
            self._finish_frame(frame, record)
            return frame

        matches, n_trk, n_cand = associate_features(
            record.detections, self.slam_map.points, predicted,
            self.params.search_radius, self.camera)
        stats = TrackingStats(record.n_det, n_trk)
        q = compute_quality(stats, self.params.quality)
        alpha = self._alpha_for_quality(q)

        tracked_ok = True
        iterations = 0
        try:
            pose, report = self._solve_motion(predicted, matches, dr, alpha)
            iterations = report.iterations
        except (NoConstraints, Diverged, SingularSystem):
            pose = predicted
            tracked_ok = False
            self.motion_failed += 1

        frame = Frame(record.frame_id, record.timestamp, pose, stats, q, dr, tracked_ok,
                      alpha=alpha if alpha is not None else float("nan"),
                      solver_iterations=iterations, gt_pose=record.gt_pose, n_cand=n_cand)

        if self.mode == "vision-only":
            self.lost_streak = self.lost_streak + 1 if n_trk < self.params.min_inliers else 0
            if self.lost_streak >= self.params.lost_frames:
                self.track_lost_frame = record.frame_id
                frame.tracked_ok = False

        self._finish_frame(frame, record, matches if self.track_lost_frame is None else None)
        return frame

    def _finish_frame(self, frame: Frame, record, matches: Detections | None = None) -> None:
        """Append the frame; with its matches, map it (the frame may become a keyframe)."""
        self.frames.append(frame)
        if self.acc_delta is not None and frame.dr is not None:
            self.acc_delta = compose(self.acc_delta, frame.dr)
        else:
            self.acc_delta = None if frame.dr is None else self.acc_delta
        self.prev_prev_pose = self.prev_frame.pose
        self.prev_frame = frame
        if self.mode == "dr-only":
            # trajectory snapshots only; no mapping in this mode
            last_kf = self.slam_map.keyframes[max(self.slam_map.keyframes)]
            if frame.id - last_kf.frame_id >= self.params.k_max:
                self._bare_keyframe(frame)
        elif matches is not None:
            last_kf = self.slam_map.keyframes[max(self.slam_map.keyframes)]
            # Few-but-nonzero matches on a degraded frame make a geometrically
            # risky keyframe. Blackout frames (zero matches, no geometry) and
            # frontier frames (plenty of fresh detections to triangulate) are
            # fine; only deny the degenerate low-texture case.
            risky = (0 < frame.stats.n_trk < self.params.kf_min_trk
                     and frame.stats.n_det < self.params.kf_min_det)
            if decide_keyframe(frame, last_kf, self.params) and not risky:
                self._insert_keyframe(frame, record, matches)

    # ----- mapping --------------------------------------------------------

    def _bare_keyframe(self, frame: Frame) -> KeyFrame:
        kf = KeyFrame(self._next_kf_id, frame.id, frame.timestamp, frame.pose,
                      observations=Detections.empty(), n_trk=0, quality=frame.quality,
                      gt_pose=frame.gt_pose)
        self._next_kf_id += 1
        self.slam_map.keyframes[kf.id] = kf
        return kf

    def _true_depths(self, ids: np.ndarray, gt_pose: Pose | None) -> np.ndarray:
        """RGB-D stand-in: the true depth (N,) of each of the distinct landmark
        ids in the actual camera, NaN where the landmark or the true pose is unknown."""
        depth = np.full(len(ids), np.nan)
        known = np.isin(ids, self._world.ids, assume_unique=True)
        if gt_pose is not None:
            y, _ = project_points(self.camera, gt_pose.rotation_matrix, gt_pose.t,
                                  self._world.positions[self._world.rows(ids[known])])
            depth[known] = y[:, 2]
        return depth

    def _insert_keyframe(self, frame: Frame, record, matches: Detections) -> KeyFrame:
        """Keyframe observing its matches, then new points from its other detections.

        Every match is a map point, so the first detection of each landmark
        not yet in the map is a candidate, in detection order; a candidate
        with a true depth in front of the near plane becomes a new point.
        """
        kf_id = self._next_kf_id
        self._next_kf_id += 1

        ids, uv = record.detections.ids, record.detections.uv
        rows = _first_landmark_rows(ids)
        rows = rows[~np.isin(ids[rows], self.slam_map.points.ids, assume_unique=True)]
        depth = self._true_depths(ids[rows], frame.gt_pose)
        front = depth > Z_MIN
        rows = rows[front]
        self.slam_map.points = self.slam_map.points.insert(
            ids[rows], back_project(self.camera, frame.pose.rotation_matrix, frame.pose.t,
                                    uv[rows], depth[front]), kf_id)
        observations = Detections(np.concatenate([matches.ids, ids[rows]]),
                                  np.concatenate([matches.uv, uv[rows]]))

        kf = KeyFrame(kf_id, frame.id, frame.timestamp, frame.pose, observations,
                      n_trk=frame.stats.n_trk, quality=frame.quality,
                      dr_to_prev=self.acc_delta if kf_id > 0 else None,
                      gt_pose=frame.gt_pose)
        self.slam_map.keyframes[kf_id] = kf

        table_kf, table = self.slam_map.observation_table()
        shared = np.unique(table_kf[np.isin(table.ids, observations.ids)], return_counts=True)
        for other, count in zip(*(a.tolist() for a in shared)):
            self.slam_map.add_covisibility(kf_id, other, count)   # skips kf_id itself

        self.acc_delta = Pose.identity()
        if kf_id > 0:
            self._local_ba(kf)
            self._cull_points(kf_id)
            self._update_c_ref()
            if self.params.loop_enabled:
                self._check_loop(kf)
        return kf

    def _edge_alphas(self, kf_ids) -> dict:
        """Per-keyframe DR weights for the window: quality, then smoothing."""
        p = self.params
        if self.mode in ("vision-only", "da-only"):
            return {}
        if self.mode == "fixed-dr":
            # the sweep protocol carries one constant weight through every stage
            return {k: min(p.fixed_alpha, p.bounds.alpha_max) for k in kf_ids}
        raw = []
        for k in sorted(kf_ids):
            q_ij = keyframe_quality(self.slam_map.connection_count(k), self.c_ref)
            raw.append((k, dr_weight(q_ij, p.bounds)))
        smoothed = {}
        # runs of consecutive keyframe ids, each smoothed on its own
        for _, run in groupby(enumerate(raw), key=lambda e: e[1][0] - e[0]):
            smoothed.update(smooth_window_weights([r for _, r in run], p.smoothing_halfwidth))
        lo, hi = p.bounds.alpha_min, p.bounds.alpha_max
        return {k: min(max(a, lo), hi) for k, a in smoothed.items()}

    def _local_ba(self, new_kf: KeyFrame) -> None:
        p = self.params
        covis = self.slam_map.covisibility.get(new_kf.id, {})
        ranked = sorted(covis.items(), key=lambda e: (-e[1], e[0]))[:p.max_local_keyframes]
        window = {new_kf.id} | {k for k, _ in ranked} | (
            set(range(new_kf.id - p.smoothing_halfwidth, new_kf.id)) & set(self.slam_map.keyframes))

        # the points the window sees that at least two keyframes see, and as
        # anchors the keyframes outside the window seeing most of them
        table_kf, table = self.slam_map.observation_table()
        in_window = np.isin(table_kf, list(window))
        points = np.intersect1d(_seen_twice(table.ids), table.ids[in_window])
        voters, votes = np.unique(table_kf[~in_window & np.isin(table.ids, points)],
                                  return_counts=True)
        anchors = set(voters[np.argsort(-votes, kind="stable")[:p.max_anchor_keyframes]].tolist())

        problem = Problem(intrinsics=self.camera, pixel_std=p.pixel_std,
                          huber_threshold=p.huber_scale)
        for k in sorted(window):
            problem.add_pose(k, self.slam_map.keyframes[k].pose, fixed=False)
        for k in sorted(anchors):
            problem.add_pose(k, self.slam_map.keyframes[k].pose, fixed=True)
        if not anchors:
            problem.poses[min(window)].fixed = True
        rows = self.slam_map.points.rows(points)
        problem.add_landmarks(points, self.slam_map.points.positions[rows])
        self._add_observations(problem, (table_kf, table), window | anchors, points, by_id=True)

        alphas = self._edge_alphas(window)
        in_problem = window | anchors
        for k in sorted(in_problem):
            if k - 1 not in in_problem or (k not in window and k - 1 not in window):
                continue
            delta = self.slam_map.keyframes[k].dr_to_prev
            if delta is None or not alphas:
                continue
            alpha = max(alphas.get(k - 1, p.bounds.alpha_min), alphas.get(k, p.bounds.alpha_min))
            self.slam_map.dr_edges[(k - 1, k)] = alpha
            problem.add_dr_edges(k - 1, k, [delta], scale_information(alpha, p.nominal))

        if len(problem.poses) < 2:
            return
        # Reprojection-only problems carry a similarity gauge, and a weak DR
        # chain barely stiffens the scale mode; two fixed poses anchor it.
        fixed = [k for k in sorted(problem.poses) if problem.poses[k].fixed]
        free = [k for k in sorted(problem.poses) if not problem.poses[k].fixed]
        for k in free[:max(0, 2 - len(fixed))]:
            problem.poses[k].fixed = True
        if all(v.fixed for v in problem.poses.values()) and not len(points):
            return
        try:
            solve_local_ba(problem, p.ba_solver)
        except (Diverged, SingularSystem):
            self.lba_failed += 1
            return
        for k in window:
            if not problem.poses[k].fixed:
                self.slam_map.keyframes[k].pose = problem.poses[k].pose
            if alphas:
                self.slam_map.keyframes[k].lba_alpha = alphas[k]
        self.slam_map.points.positions[rows] = problem.landmark_positions(points)

    def _add_observations(self, problem: Problem, observation_table, kf_ids, landmark_ids,
                          by_id: bool) -> None:
        """Adds the table's observations of the landmarks by the keyframes
        kf_ids as reprojection rows, keyframe by keyframe in ascending id.
        Each keyframe's rows are in ascending landmark id when by_id, else in
        observation order; the solver sums each pose's rows in that order."""
        table_kf, table = observation_table
        rows = np.flatnonzero(np.isin(table_kf, list(kf_ids)) & np.isin(table.ids, landmark_ids))
        if by_id:
            rows = rows[np.lexsort((table.ids[rows], table_kf[rows]))]
        problem.add_observations(table_kf[rows], table.ids[rows], table.uv[rows])

    def _cull_points(self, current_kf: int) -> None:
        """Drops each point fewer than two keyframes see, two keyframes after its creation."""
        table_kf, table = self.slam_map.observation_table()
        points = self.slam_map.points
        drop = ~np.isin(points.ids, _seen_twice(table.ids)) & (current_kf - points.created_kf >= 2)
        self.slam_map.points = points.take(~drop)
        doomed = points.ids[drop]
        for k in np.unique(table_kf[np.isin(table.ids, doomed)]).tolist():
            kf = self.slam_map.keyframes[k]
            kf.observations = kf.observations.take(~np.isin(kf.observations.ids, doomed))

    def _update_c_ref(self) -> None:
        recent = sorted(self.slam_map.keyframes)[-self.params.c_ref_window:]
        pairs = [(self.slam_map.keyframes[k].quality, self.slam_map.connection_count(k))
                 for k in recent]
        self.c_ref = update_c_ref(pairs, previous=self.c_ref, q_well=self.params.q_well)

    # ----- loop closing ---------------------------------------------------

    def _check_loop(self, new_kf: KeyFrame) -> None:
        if new_kf.gt_pose is None:
            return
        if self.last_gba_kf is not None and new_kf.id - self.last_gba_kf < self.params.loop_cooldown:
            return
        best = None
        for k in sorted(self.slam_map.keyframes):
            if new_kf.id - k < self.params.loop_gap_min:
                continue
            other = self.slam_map.keyframes[k]
            if other.gt_pose is None:
                continue
            dist = float(np.linalg.norm(other.gt_pose.t - new_kf.gt_pose.t))
            if dist <= self.params.loop_radius and (best is None or dist < best[1]):
                best = (k, dist)
        if best is None:
            return
        old_id = best[0]
        relative = compose(inverse(self.slam_map.keyframes[old_id].gt_pose), new_kf.gt_pose)
        self.slam_map.loop_edges.append((old_id, new_kf.id, relative, self.params.loop_info_scale))
        if not self._global_ba(old_id, new_kf.id):
            self.slam_map.loop_edges.pop()
        self.last_gba_kf = new_kf.id

    def _global_ba(self, loop_from: int, loop_to: int) -> bool:
        """Refine the whole map over every loop edge; False when the solve fails."""
        p = self.params
        kf_ids = sorted(self.slam_map.keyframes)
        pre = [(self.slam_map.keyframes[k].timestamp, self.slam_map.keyframes[k].pose)
               for k in kf_ids]

        problem = Problem(intrinsics=self.camera, pixel_std=p.pixel_std,
                          huber_threshold=p.huber_scale)
        for k in kf_ids:
            problem.add_pose(k, self.slam_map.keyframes[k].pose, fixed=(k == kf_ids[0]))
        # the live points, each seen by at least two keyframes, ascending
        table_kf, table = self.slam_map.observation_table()
        points = self.slam_map.points
        live = np.isin(points.ids, _seen_twice(table.ids))
        problem.add_landmarks(points.ids[live], points.positions[live])
        self._add_observations(problem, (table_kf, table), kf_ids, points.ids[live], by_id=False)
        for (a, b), alpha in sorted(self.slam_map.dr_edges.items()):
            delta = self.slam_map.keyframes[b].dr_to_prev
            if delta is not None and a in self.slam_map.keyframes:
                problem.add_dr_edges(a, b, [delta], scale_information(alpha, p.nominal))
        for a, b, relative, scale in self.slam_map.loop_edges:
            problem.add_dr_edges(a, b, [relative], scale_information(scale, p.nominal))

        try:
            solve_global_ba(problem, p.gba_solver)
        except (Diverged, SingularSystem):
            self.gba_failed += 1
            return False
        last = kf_ids[-1]
        correction = compose(problem.poses[last].pose, inverse(self.slam_map.keyframes[last].pose))
        for k in kf_ids:
            self.slam_map.keyframes[k].pose = problem.poses[k].pose
        points.positions[live] = problem.landmark_positions(points.ids[live])
        if self.prev_frame is not None:
            self.prev_frame.pose = compose(correction, self.prev_frame.pose)
            if self.prev_prev_pose is not None:
                self.prev_prev_pose = compose(correction, self.prev_prev_pose)
        post = [(self.slam_map.keyframes[k].timestamp, self.slam_map.keyframes[k].pose)
                for k in kf_ids]
        self.gba_events.append(GbaEvent(
            frame_id=self.frames[-1].id if self.frames else -1,
            kf_from=loop_from, kf_to=loop_to,
            pre_keyframes=pre, post_keyframes=post))
        return True

    def result(self) -> RunResult:
        return RunResult(mode=self.mode, frames=self.frames, slam_map=self.slam_map,
                         track_lost_frame=self.track_lost_frame,
                         gba_events=self.gba_events, motion_failed=self.motion_failed,
                         lba_failed=self.lba_failed, gba_failed=self.gba_failed)


def run_pipeline(sequence, params: PipelineParams, mode: str) -> RunResult:
    pipeline = Pipeline(params, sequence.camera, sequence.world, mode)
    for record in sequence.records:
        pipeline.process(record)
    return pipeline.result()


# ----- map persistence ----------------------------------------------------


def _pose_text(pose: Pose) -> str:
    """The pose fields tx ty tz qx qy qz qw, as _parse_pose reads them."""
    w, x, y, z = pose.q
    return " ".join(fmt(v) for v in (*pose.t, x, y, z, w))


def save_map(slam_map: SlamMap, path) -> None:
    """Versioned structured text; see the README for the section layout."""
    keyframes = [slam_map.keyframes[k] for k in sorted(slam_map.keyframes)]
    lines = [MAP_MAGIC, "[keyframes]"]
    for kf in keyframes:
        lines.append(f"{kf.id} {kf.frame_id} {fmt(kf.timestamp)} {_pose_text(kf.pose)} "
                     f"{fmt(kf.lba_alpha)} {kf.n_trk} {fmt(kf.quality)}")
    for section, attr in POSE_SECTIONS.items():
        lines.append(f"[{section}]")
        lines += [f"{kf.id} {_pose_text(getattr(kf, attr))}" for kf in keyframes
                  if getattr(kf, attr) is not None]
    lines.append("[observations]")
    for kf in keyframes:
        for j, u, v in kf.observations:
            lines.append(f"{kf.id} {j} {fmt(u)} {fmt(v)}")
    lines.append("[points]")
    points = slam_map.points
    for j, position, created in zip(points.ids.tolist(), points.positions.tolist(),
                                    points.created_kf.tolist()):
        lines.append(f"{j} {' '.join(fmt(x) for x in position)} {created}")
    lines.append("[covisibility]")
    for a in sorted(slam_map.covisibility):
        for b in sorted(slam_map.covisibility[a]):
            if a < b:
                lines.append(f"{a} {b} {slam_map.covisibility[a][b]}")
    lines.append("[dredges]")
    for (a, b) in sorted(slam_map.dr_edges):
        lines.append(f"{a} {b} {fmt(slam_map.dr_edges[(a, b)])}")
    lines.append("[loopedges]")
    for a, b, rel, scale in slam_map.loop_edges:
        lines.append(f"{a} {b} {fmt(scale)} {_pose_text(rel)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_pose(parts) -> Pose:
    tx, ty, tz, x, y, z, w = (float(p) for p in parts)
    return Pose(np.array([w, x, y, z]), np.array([tx, ty, tz]))


def load_map(path) -> SlamMap:
    slam_map = SlamMap()
    observations = {}                # keyframe id -> (point ids, pixels)
    points = ([], [], [])            # point ids, positions, creating keyframes
    section = None
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != MAP_MAGIC:
        raise FormatError(f"bad map magic: expected {MAP_MAGIC!r}", path=str(path), line=1)
    try:
        for lineno, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise FormatError("unterminated section header", path=str(path), line=lineno)
                section = line[1:-1]
                if section not in MAP_FIELDS:
                    raise FormatError(f"unknown section {section!r}", path=str(path), line=lineno)
                continue
            if section is None:
                raise FormatError("data line before any section", path=str(path), line=lineno)
            parts = line.split()
            if len(parts) != MAP_FIELDS[section]:
                raise FormatError(f"expected {MAP_FIELDS[section]} fields, got {len(parts)}",
                                  path=str(path), line=lineno)
            if section == "keyframes":
                kf = KeyFrame(
                    id=int(parts[0]), frame_id=int(parts[1]), timestamp=float(parts[2]),
                    pose=_parse_pose(parts[3:10]), observations=Detections.empty(),
                    n_trk=int(parts[11]), quality=float(parts[12]), lba_alpha=float(parts[10]))
                slam_map.keyframes[kf.id] = kf
            elif section in POSE_SECTIONS:
                setattr(slam_map.keyframes[int(parts[0])], POSE_SECTIONS[section],
                        _parse_pose(parts[1:]))
            elif section == "observations":
                ids, uv = observations.setdefault(slam_map.keyframes[int(parts[0])].id, ([], []))
                ids.append(int(parts[1]))
                uv.append((float(parts[2]), float(parts[3])))
            elif section == "points":
                points[0].append(int(parts[0]))
                points[1].append([float(x) for x in parts[1:4]])
                points[2].append(int(parts[4]))
            elif section == "covisibility":
                slam_map.add_covisibility(int(parts[0]), int(parts[1]), int(parts[2]))
            elif section == "dredges":
                slam_map.dr_edges[(int(parts[0]), int(parts[1]))] = float(parts[2])
            else:
                slam_map.loop_edges.append((int(parts[0]), int(parts[1]),
                                            _parse_pose(parts[3:]), float(parts[2])))
    except (ValueError, KeyError, IndexError) as e:
        raise FormatError(f"malformed map entry: {e}", path=str(path), line=lineno) from e
    for k, (ids, uv) in observations.items():
        slam_map.keyframes[k].observations = Detections(np.array(ids, dtype=np.int64),
                                                        np.array(uv, dtype=float))
    slam_map.points = PointTable.empty().insert(
        np.array(points[0], dtype=np.int64), np.array(points[1], dtype=float).reshape(-1, 3),
        np.array(points[2], dtype=np.int64))
    if np.any(np.diff(slam_map.points.ids) == 0):
        raise FormatError("duplicate point id", path=str(path))
    return slam_map
