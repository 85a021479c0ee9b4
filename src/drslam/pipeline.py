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
from .fileio import fmt, parse_poses, pose_text
from .geometry import CameraIntrinsics, Pose, Z_MIN, back_project, compose, inverse, project_points
from .optimizer import (REPROJECTION_ROW, Problem, SolverConfig, reprojection_rows, solve_global_ba,
                        solve_local_ba, solve_motion_only)
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
# The sections whose lines are each the entry of one id; the others' are of two.
ENTRY_OF_ONE_ID = ("keyframes", *POSE_SECTIONS, "points")


# The estimator's fixed settings; PipelineParams holds the ones runs vary.
# Tracking: the association gate around each map point's predicted pixel [px];
# vision-only mode loses track for good after LOST_FRAMES frames in a row with
# fewer than MIN_INLIERS matches.
SEARCH_RADIUS = 15.0
MIN_INLIERS = 10
LOST_FRAMES = 5
# Keyframes: a frame becomes one K_MAX frames after the last keyframe, when its
# matches fall below OVERLAP_RATIO of the last keyframe's, or once it is more
# than D_MAX [m] away; KF_MIN_TRK and KF_MIN_DET mark a risky frame, which does not.
K_MAX = 15
OVERLAP_RATIO = 0.5
D_MAX = 0.5
KF_MIN_TRK = 15
KF_MIN_DET = 50
# Local BA: the new keyframe's most covisible keyframes join its window, and
# the keyframes outside it that see most of its points are fixed anchors.
MAX_LOCAL_KEYFRAMES = 10
MAX_ANCHOR_KEYFRAMES = 15
# Loop closing (ground-truth oracle): a keyframe at least LOOP_GAP_MIN keyframes
# older and within LOOP_RADIUS [m] closes a loop, with an edge weighted
# LOOP_INFO_SCALE as a DR edge is by its alpha; none is tried within
# LOOP_COOLDOWN keyframes of the last global BA.
LOOP_RADIUS = 0.5
LOOP_GAP_MIN = 30
LOOP_INFO_SCALE = 100.0
LOOP_COOLDOWN = 30


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
    # the one record of which keyframe sees which point: (N,) REPROJECTION_ROW of keyframe
    # id, point id and pixel, keyframes ascending, each keyframe's in observation order
    observations: np.ndarray = field(default_factory=lambda: np.empty(0, REPROJECTION_ROW))
    covisibility: dict = field(default_factory=dict)   # kf -> {kf: count}
    dr_edges: dict = field(default_factory=dict)       # (a, b) -> alpha
    loop_edges: list = field(default_factory=list)     # (a, b, relative Pose, info scale)

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
    fixed_alpha: float = 1.0
    q_well: float = 0.8
    c_ref_init: float = 20.0
    c_ref_window: int = 10
    smoothing_halfwidth: int = 2
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
    """The point ids, ascending, in at least two rows of the observation
    table, that is seen by at least two keyframes (each sees a point once)."""
    unique, counts = np.unique(ids, return_counts=True)
    return unique[counts >= 2]


def decide_keyframe(frame: Frame, last_kf: KeyFrame) -> bool:
    return bool(frame.id - last_kf.frame_id >= K_MAX
                or (last_kf.n_trk > 0 and frame.stats.n_trk / last_kf.n_trk < OVERLAP_RATIO)
                or np.linalg.norm(frame.pose.t - last_kf.pose.t) > D_MAX)


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
                                 HUBER_PIXEL_SCALE, prior, p.motion_solver)

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
            record.detections, self.slam_map.points, predicted, SEARCH_RADIUS, self.camera)
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
            self.lost_streak = self.lost_streak + 1 if n_trk < MIN_INLIERS else 0
            if self.lost_streak >= LOST_FRAMES:
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
            if frame.id - last_kf.frame_id >= K_MAX:
                self._bare_keyframe(frame)
        elif matches is not None:
            last_kf = self.slam_map.keyframes[max(self.slam_map.keyframes)]
            # Few-but-nonzero matches on a degraded frame make a geometrically
            # risky keyframe. Blackout frames (zero matches, no geometry) and
            # frontier frames (plenty of fresh detections to triangulate) are
            # fine; only deny the degenerate low-texture case.
            risky = 0 < frame.stats.n_trk < KF_MIN_TRK and frame.stats.n_det < KF_MIN_DET
            if decide_keyframe(frame, last_kf) and not risky:
                self._insert_keyframe(frame, record, matches)

    # ----- mapping --------------------------------------------------------

    def _bare_keyframe(self, frame: Frame) -> KeyFrame:
        """A new keyframe at the frame, observing no point, in the map."""
        kf = KeyFrame(self._next_kf_id, frame.id, frame.timestamp, frame.pose, n_trk=0,
                      quality=frame.quality, gt_pose=frame.gt_pose)
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
        kf = self._bare_keyframe(frame)
        kf_id = kf.id
        kf.n_trk, kf.dr_to_prev = frame.stats.n_trk, self.acc_delta if kf_id > 0 else None
        ids, uv = record.detections.ids, record.detections.uv
        rows = _first_landmark_rows(ids)
        rows = rows[~np.isin(ids[rows], self.slam_map.points.ids, assume_unique=True)]
        depth = self._true_depths(ids[rows], frame.gt_pose)
        front = depth > Z_MIN
        rows = rows[front]
        self.slam_map.points = self.slam_map.points.insert(
            ids[rows], back_project(self.camera, frame.pose.rotation_matrix, frame.pose.t,
                                    uv[rows], depth[front]), kf_id)
        seen = np.concatenate([matches.ids, ids[rows]])
        table = self.slam_map.observations = np.concatenate([
            self.slam_map.observations,
            reprojection_rows(kf_id, seen, np.concatenate([matches.uv, uv[rows]]))])
        shared = np.unique(table["pose"][np.isin(table["landmark"], seen)], return_counts=True)
        for other, count in zip(*(a.tolist() for a in shared)):
            self.slam_map.add_covisibility(kf_id, other, count)   # skips kf_id itself

        self.acc_delta = Pose.identity()
        if kf_id > 0:
            self._local_ba(kf)
            self._cull_points(kf_id)
            self._update_c_ref()
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
        ranked = sorted(covis.items(), key=lambda e: (-e[1], e[0]))[:MAX_LOCAL_KEYFRAMES]
        window = {new_kf.id} | {k for k, _ in ranked} | (
            set(range(new_kf.id - p.smoothing_halfwidth, new_kf.id)) & set(self.slam_map.keyframes))

        # the points the window sees that at least two keyframes see, and as
        # anchors the keyframes outside the window seeing most of them
        table = self.slam_map.observations
        in_window = np.isin(table["pose"], list(window))
        points = np.intersect1d(_seen_twice(table["landmark"]), table["landmark"][in_window])
        voters, votes = np.unique(table["pose"][~in_window & np.isin(table["landmark"], points)],
                                  return_counts=True)
        anchors = voters[np.argsort(-votes, kind="stable")[:MAX_ANCHOR_KEYFRAMES]]
        kf_ids = np.union1d(list(window), anchors)
        if len(kf_ids) < 2:
            return
        # Anchors are fixed. A reprojection-only problem's similarity gauge, which a weak DR
        # chain barely stiffens, needs two fixed poses: the lowest window ids make up the count.
        fixed = np.isin(kf_ids, anchors)
        fixed[np.flatnonzero(~fixed)[:max(0, 2 - np.count_nonzero(fixed))]] = True

        # a DR edge from each keyframe's predecessor in the problem, one of the
        # two in the window, at the larger of their weights
        alphas, edges, lo = self._edge_alphas(window), [], p.bounds.alpha_min
        for k in kf_ids[1:].tolist() if alphas else ():
            delta = self.slam_map.keyframes[k].dr_to_prev
            if k - 1 in kf_ids and (k in window or k - 1 in window) and delta is not None:
                alpha = max(alphas.get(k - 1, lo), alphas.get(k, lo))
                self.slam_map.dr_edges[(k - 1, k)] = alpha
                edges.append((k - 1, k, delta, alpha))

        if fixed.all() and not len(points):
            return
        problem = self._ba_problem(kf_ids, fixed, points, True, edges)
        try:
            solve_local_ba(problem, p.ba_solver)
        except (Diverged, SingularSystem):
            self.lba_failed += 1
            return
        self._apply_ba(problem)
        if alphas:
            for k in window:
                self.slam_map.keyframes[k].lba_alpha = alphas[k]

    def _ba_problem(self, kf_ids, fixed, point_ids, by_id: bool, edges) -> Problem:
        """The BA problem over keyframes kf_ids, those under the mask fixed
        held fixed, points point_ids (both ascending) and DR edges (from, to,
        increment, weight), a row per observation of the points by the
        keyframes: keyframe by keyframe, each keyframe's in ascending point id
        when by_id, else in observation order, the order the solver sums them."""
        p, slam_map = self.params, self.slam_map
        problem = Problem(intrinsics=self.camera, pixel_std=p.pixel_std)
        problem.add_poses(kf_ids, [slam_map.keyframes[k].pose for k in kf_ids.tolist()], fixed)
        problem.add_landmarks(point_ids, slam_map.points.positions[slam_map.points.rows(point_ids)])
        table = slam_map.observations
        rows = table[np.isin(table["pose"], kf_ids) & np.isin(table["landmark"], point_ids)]
        if by_id:
            rows = rows[np.lexsort((rows["landmark"], rows["pose"]))]
        problem.add_observations(rows["pose"], rows["landmark"], rows["uv"])
        if edges:
            a, b, deltas, weights = zip(*edges)
            problem.add_dr_edges(a, b, deltas, [scale_information(w, p.nominal) for w in weights])
        return problem

    def _apply_ba(self, problem: Problem) -> None:
        """Moves the free poses' keyframes and the landmarks' points to their solved values."""
        free = problem.poses[~problem.poses["fixed"]]
        for k, q, t in zip(free["id"].tolist(), free["q"], free["t"]):
            self.slam_map.keyframes[k].pose = Pose(q, t)
        points = self.slam_map.points
        points.positions[points.rows(problem.landmarks["id"])] = problem.landmarks["position"]

    def _cull_points(self, current_kf: int) -> None:
        """Drops each point fewer than two keyframes see, two keyframes after
        its creation, with its observations."""
        table, points = self.slam_map.observations, self.slam_map.points
        drop = ~np.isin(points.ids, _seen_twice(table["landmark"])) & (
            current_kf - points.created_kf >= 2)
        self.slam_map.points = PointTable(points.ids[~drop], points.positions[~drop],
                                          points.created_kf[~drop])
        self.slam_map.observations = table[~np.isin(table["landmark"], points.ids[drop])]

    def _update_c_ref(self) -> None:
        recent = sorted(self.slam_map.keyframes)[-self.params.c_ref_window:]
        pairs = [(self.slam_map.keyframes[k].quality, self.slam_map.connection_count(k))
                 for k in recent]
        self.c_ref = update_c_ref(pairs, previous=self.c_ref, q_well=self.params.q_well)

    # ----- loop closing ---------------------------------------------------

    def _check_loop(self, new_kf: KeyFrame) -> None:
        if new_kf.gt_pose is None:
            return
        if self.last_gba_kf is not None and new_kf.id - self.last_gba_kf < LOOP_COOLDOWN:
            return
        best = None
        for k in sorted(self.slam_map.keyframes):
            if new_kf.id - k < LOOP_GAP_MIN:
                continue
            other = self.slam_map.keyframes[k]
            if other.gt_pose is None:
                continue
            dist = float(np.linalg.norm(other.gt_pose.t - new_kf.gt_pose.t))
            if dist <= LOOP_RADIUS and (best is None or dist < best[1]):
                best = (k, dist)
        if best is None:
            return
        old_id = best[0]
        relative = compose(inverse(self.slam_map.keyframes[old_id].gt_pose), new_kf.gt_pose)
        self.slam_map.loop_edges.append((old_id, new_kf.id, relative, LOOP_INFO_SCALE))
        if not self._global_ba(old_id, new_kf.id):
            self.slam_map.loop_edges.pop()
        self.last_gba_kf = new_kf.id

    def _global_ba(self, loop_from: int, loop_to: int) -> bool:
        """Refine the whole map over every loop edge; False when the solve fails."""
        keyframes = self.slam_map.keyframes
        kf_ids = np.array(sorted(keyframes))
        pre = [(keyframes[k].timestamp, keyframes[k].pose) for k in kf_ids.tolist()]
        # the first keyframe fixed; the live points, each seen by at least two
        # keyframes, ascending
        edges = [(a, b, keyframes[b].dr_to_prev, alpha)
                 for (a, b), alpha in sorted(self.slam_map.dr_edges.items())
                 if keyframes[b].dr_to_prev is not None and a in keyframes]
        problem = self._ba_problem(kf_ids, kf_ids == kf_ids[0],
                                   _seen_twice(self.slam_map.observations["landmark"]), False,
                                   edges + self.slam_map.loop_edges)
        try:
            solve_global_ba(problem, self.params.gba_solver)
        except (Diverged, SingularSystem):
            self.gba_failed += 1
            return False
        last, before = keyframes[kf_ids[-1]], keyframes[kf_ids[-1]].pose
        self._apply_ba(problem)
        correction = compose(last.pose, inverse(before))
        if self.prev_frame is not None:
            self.prev_frame.pose = compose(correction, self.prev_frame.pose)
            if self.prev_prev_pose is not None:
                self.prev_prev_pose = compose(correction, self.prev_prev_pose)
        post = [(keyframes[k].timestamp, keyframes[k].pose) for k in kf_ids.tolist()]
        self.gba_events.append(GbaEvent(frame_id=self.frames[-1].id if self.frames else -1,
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


def save_map(slam_map: SlamMap, path) -> None:
    """Versioned structured text; see the README for the section layout."""
    keyframes = [slam_map.keyframes[k] for k in sorted(slam_map.keyframes)]
    lines = [MAP_MAGIC, "[keyframes]"]
    for kf in keyframes:
        lines.append(f"{kf.id} {kf.frame_id} {fmt(kf.timestamp)} {pose_text(kf.pose)} "
                     f"{fmt(kf.lba_alpha)} {kf.n_trk} {fmt(kf.quality)}")
    for section, attr in POSE_SECTIONS.items():
        lines.append(f"[{section}]")
        lines += [f"{kf.id} {pose_text(getattr(kf, attr))}" for kf in keyframes
                  if getattr(kf, attr) is not None]
    lines.append("[observations]")
    obs = slam_map.observations
    for k, j, (u, v) in zip(obs["pose"].tolist(), obs["landmark"].tolist(), obs["uv"].tolist()):
        lines.append(f"{k} {j} {fmt(u)} {fmt(v)}")
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
        lines.append(f"{a} {b} {fmt(scale)} {pose_text(rel)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_map(path) -> SlamMap:
    slam_map = SlamMap()
    observations = []                # (keyframe id, point id, pixel)
    points = ([], [], [])            # point ids, positions, creating keyframes
    seen = set()                     # (section, the ids the line is the entry of)
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
            # a line is the entry of a keyframe or point id, or of a pair of ids:
            # keyframe and point, or two keyframes, in either order for covisibility
            ids = tuple(int(x) for x in parts[:1 if section in ENTRY_OF_ONE_ID else 2])
            entry = (section, tuple(sorted(ids)) if section == "covisibility" else ids)
            if entry in seen:
                raise FormatError(f"duplicate [{section}] entry {' '.join(map(str, ids))}",
                                  path=str(path), line=lineno)
            seen.add(entry)
            if section == "keyframes":
                kf = KeyFrame(
                    id=ids[0], frame_id=int(parts[1]), timestamp=float(parts[2]),
                    pose=parse_poses(parts[3:10])[0], n_trk=int(parts[11]),
                    quality=float(parts[12]), lba_alpha=float(parts[10]))
                slam_map.keyframes[kf.id] = kf
            elif section in POSE_SECTIONS:
                setattr(slam_map.keyframes[ids[0]], POSE_SECTIONS[section],
                        parse_poses(parts[1:])[0])
            elif section == "observations":
                observations.append((slam_map.keyframes[ids[0]].id, ids[1],
                                     (float(parts[2]), float(parts[3]))))
            elif section == "points":
                points[0].append(ids[0])
                points[1].append([float(x) for x in parts[1:4]])
                points[2].append(int(parts[4]))
            elif section == "covisibility":
                slam_map.add_covisibility(*ids, int(parts[2]))
            elif section == "dredges":
                slam_map.dr_edges[ids] = float(parts[2])
            else:
                slam_map.loop_edges.append((*ids, parse_poses(parts[3:])[0], float(parts[2])))
    except (ValueError, KeyError, IndexError) as e:
        raise FormatError(f"malformed map entry: {e}", path=str(path), line=lineno) from e
    table = np.array(observations, dtype=REPROJECTION_ROW)
    slam_map.observations = table[np.argsort(table["pose"], kind="stable")]
    slam_map.points = PointTable.empty().insert(
        np.array(points[0], dtype=np.int64), np.array(points[1], dtype=float).reshape(-1, 3),
        np.array(points[2], dtype=np.int64))
    return slam_map
