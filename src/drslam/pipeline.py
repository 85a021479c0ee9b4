"""Hierarchical SLAM pipeline with adaptive dead-reckoning support.

Every frame takes one path through ``Pipeline.process``: its start pose (the
first frame's odometry pose, every later frame's prediction), association and
motion-only BA when the frame gets visual processing, one ``Frame``, then
mapping, where it may become a keyframe. Around that path: covisibility
counted from the map's observations, local bundle adjustment with smoothed DR
edge weights, loop detection, global bundle adjustment with the edge weights
local BA last set, and map persistence. A run counts its failed and capped
solves in one table keyed by ``SOLVE_COUNTS``.

Ground truth reaches the estimator through two oracles only, both fed by
``_insert_keyframe``: the depth oracle gives a new point its true depth, from
the sequence's world (its ``PointTable``, read in place, never copied)
projected into the keyframe record's true pose, and the loop oracle picks and
constrains a loop from the true poses of the keyframes.

Modes:
  vision-only  constant-velocity prediction, no DR anywhere, can lose track
  da-only      DR prediction for association only, no DR factors
  fixed-dr     DR factors everywhere at a constant weight (``fixed_alpha``)
  adaptive     DR factors weighted by the live quality score
  dr-only      integrated odometry, no visual processing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .errors import Diverged, FormatError, NoConstraints, SingularSystem
from .fileio import fmt, parse_poses, pose_text
from .geometry import CameraIntrinsics, Pose, Z_MIN, back_project, compose, inverse, project_points
from .optimizer import (REPROJECTION_ROW, Problem, SolverConfig, reprojection_rows, solve_global_ba,
                        solve_local_ba, solve_motion_only)
from .simulator import Detections, PointTable, squared_distance
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
# Solve outcomes a run counts, in the order metrics.csv lists them: per level,
# failed solves (a frame left at its prediction, a local BA window left
# unrefined, a global BA rolled back with its loop edge), then solves that
# ended on their iteration cap, then the observations local and global BA
# left at or behind the near plane of their keyframe, which the map drops.
SOLVE_COUNTS = ("motion_failed", "lba_failed", "gba_failed",
                "motion_capped", "lba_capped", "gba_capped", "behind_dropped")

MAP_MAGIC = "GWMAP v3"
# Per map section, in file order: the fields of a data line, how many of them
# lead with the ids the line is the entry of, and how many of those are keyframes.
MAP_SECTIONS = {"keyframes": (13, 1, 0), "keyframe_dr": (9, 1, 1), "observations": (4, 2, 1),
                "points": (5, 1, 0), "loopedges": (10, 2, 2)}


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
# LM settings of tracking, local BA and global BA: each level's iteration cap
# and cost tolerance. A run sets only the initial damping, which the three
# share (PipelineParams.initial_damping). Tracking stops at local BA's 1e-6:
# near the optimum a relative cost decrease d at cost c moves the pose by
# about sqrt(2 d c) sigma, under 0.01 sigma at d = 1e-6 and c = 30, so a
# tighter tolerance only polishes the pose below its noise. Global BA keeps
# 1e-8, the fit criterion 08 measures.
MOTION_SOLVER = SolverConfig(max_iterations=10, cost_tolerance=1e-6)
BA_SOLVER = SolverConfig(max_iterations=8, cost_tolerance=1e-6)
GBA_SOLVER = SolverConfig(max_iterations=20, cost_tolerance=1e-8)


@dataclass
class Frame:
    id: int
    timestamp: float
    pose: Pose
    stats: TrackingStats
    quality: float
    tracked_ok: bool
    alpha: float = float("nan")
    solver_iterations: int = 0
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
    dr_alpha: float = float("nan")   # weight of the DR edge from keyframe id - 1, set by local BA


@dataclass
class SlamMap:
    """Keyframes (each carrying its DR edge's weight), points, observations and
    loop edges: only what cannot be derived; covisibility is counted from the
    observations."""

    keyframes: dict = field(default_factory=dict)
    points: PointTable = field(default_factory=PointTable.empty)
    # the one record of which keyframe sees which point: (N,) REPROJECTION_ROW of keyframe
    # id, point id and pixel, keyframes ascending, each keyframe's in observation order
    observations: np.ndarray = field(default_factory=lambda: np.empty(0, REPROJECTION_ROW))
    loop_edges: list = field(default_factory=list)     # (a, b, relative Pose, info scale)

    def shared_counts(self, kf_ids) -> np.ndarray:
        """Per keyframe of kf_ids (K,), per keyframe id, the count of points the
        two share (their covisibility), (K, n) for n past the largest id;
        a keyframe's own entry is 0. One pass over the observations for all
        of kf_ids."""
        table = self.observations
        poses, points = table["pose"], table["landmark"]
        kf_ids = np.asarray(kf_ids)
        n = max(int(kf_ids.max()), int(poses.max(initial=-1))) + 1
        slot = np.full(n, -1)
        slot[kf_ids] = np.arange(len(kf_ids))
        row_slot = slot[poses]
        mine = row_slot >= 0
        if not mine.any():
            return np.zeros((len(kf_ids), n), dtype=np.int64)
        # the points kf_ids see, the keyframes of kf_ids that see each, and
        # each observation's point among them (len(ids): none of them)
        ids, column = np.unique(points[mine], return_inverse=True)
        sees = np.zeros((len(kf_ids), len(ids) + 1), dtype=bool)
        sees[row_slot[mine], column] = True
        rank = np.searchsorted(ids, points)
        rank[ids.take(rank, mode="clip") != points] = len(ids)
        which, rows = np.nonzero(sees[:, rank])
        counts = np.bincount(which * n + poses[rows], minlength=len(kf_ids) * n).reshape(-1, n)
        counts[np.arange(len(kf_ids)), kf_ids] = 0
        return counts

    def connection_counts(self, kf_ids) -> list:
        """Per keyframe of kf_ids, its largest covisibility count."""
        return self.shared_counts(kf_ids).max(axis=1).tolist()


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
    initial_damping: float = 1e-4

    def __post_init__(self):
        self.solvers()      # SolverConfig's range check of the damping
        for name in ("pixel_std", "fixed_alpha", "c_ref_init"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not self.c_ref_window >= 1:
            raise ValueError("c_ref_window must be at least 1")
        if not self.smoothing_halfwidth >= 0:
            raise ValueError("smoothing_halfwidth must be nonnegative")
        if not 0 <= self.q_well <= 1:
            raise ValueError("q_well must be in [0, 1], the range of Q")

    def solvers(self) -> tuple:
        """The LM settings of tracking, local BA and global BA at this run's damping."""
        return tuple(replace(level, initial_damping=self.initial_damping)
                     for level in (MOTION_SOLVER, BA_SOLVER, GBA_SOLVER))


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
    predicted camera. A frame without detections (a blackout) returns at
    once, with its own empty detections as the matches.
    """
    if not len(detections):
        return detections, 0, 0
    rows = _first_landmark_rows(detections.ids)
    at, held = points.lookup(detections.ids[rows])
    rows = rows[held]
    y, uv = project_points(camera, predicted.rotation_matrix, predicted.t,
                           points.positions[at[held]])
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
    counts: dict             # solve outcomes, keyed by SOLVE_COUNTS in its order

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
                 world: PointTable | None = None, mode: str = "adaptive"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if world is not None and not np.all(np.diff(world.ids) > 0):
            raise ValueError("world landmark ids must be strictly ascending")
        self.params = params
        self.camera = camera
        # the depth oracle's true landmark positions: the caller's table, read in place
        self._world = PointTable.empty() if world is None else world
        self.mode = mode
        self.slam_map = SlamMap()
        self.frames: list[Frame] = []
        self.prev_prev_pose: Pose | None = None
        self.acc_delta: Pose | None = Pose.identity()
        self.c_ref = params.c_ref_init
        self.lost_streak = 0
        self.track_lost_frame: int | None = None
        self.last_gba_kf: int | None = None
        self.gba_events: list[GbaEvent] = []
        self.counts = dict.fromkeys(SOLVE_COUNTS, 0)
        self._next_kf_id = 0
        self._motion_solver, self._ba_solver, self._gba_solver = params.solvers()
        self._kf_truth: list[Pose] = []   # the loop oracle's true pose per keyframe id

    # ----- tracking and mapping, one frame at a time -----------------------

    def _predict(self, dr: Pose | None) -> Pose:
        prev = self.frames[-1].pose
        if self.mode == "vision-only" or dr is None:
            if self.prev_prev_pose is None:
                return prev
            return compose(prev, compose(inverse(self.prev_prev_pose), prev))
        return compose(prev, dr)

    def _alpha_for_quality(self, q: float) -> float | None:
        if self.mode == "adaptive":
            return dr_weight(q, self.params.bounds)
        if self.mode == "fixed-dr":
            return self.params.fixed_alpha
        return None

    def process(self, record) -> Frame:
        """Track the record's frame, then map it: the same steps for every frame.

        The first frame starts at its odometry pose, which fixes the frame
        the run is reported in, every later one at its prediction. A frame
        after the first gets visual processing, association then the
        motion-only solve, unless the mode is dr-only or track is lost for
        good. The frame then joins the trajectory and may become a keyframe.
        """
        p, dr, first = self.params, record.dr_delta, not self.frames
        pose = record.odom_pose if first else self._predict(dr)
        visual = not first and self.mode != "dr-only" and self.track_lost_frame is None
        matches, n_trk, n_cand = Detections.empty(), 0, 0
        if visual:
            matches, n_trk, n_cand = associate_features(
                record.detections, self.slam_map.points, pose, SEARCH_RADIUS, self.camera)
        stats = TrackingStats(record.n_det, n_trk)
        q = compute_quality(stats, p.quality)
        alpha = self._alpha_for_quality(q) if visual else None
        tracked_ok, iterations = self.track_lost_frame is None, 0
        if visual:
            prior = None
            if alpha is not None and dr is not None:
                prior = (self.frames[-1].pose, dr, scale_information(alpha, p.nominal))
            points = self.slam_map.points.positions[self.slam_map.points.rows(matches.ids)]
            try:
                pose, report = solve_motion_only(self.camera, pose, points, matches.uv,
                                                 p.pixel_std, prior, self._motion_solver)
                iterations = report.iterations
                self.counts["motion_capped"] += _capped(report)
            except (NoConstraints, Diverged, SingularSystem):
                tracked_ok = False      # left at the prediction
                self.counts["motion_failed"] += 1
            if self.mode == "vision-only":
                self.lost_streak = self.lost_streak + 1 if n_trk < MIN_INLIERS else 0
                if self.lost_streak >= LOST_FRAMES:
                    self.track_lost_frame = record.frame_id
                    tracked_ok = False

        frame = Frame(record.frame_id, record.timestamp, pose, stats, q, tracked_ok,
                      alpha=alpha if alpha is not None else float("nan"),
                      solver_iterations=iterations, n_cand=n_cand)
        if self.acc_delta is not None:
            self.acc_delta = None if dr is None else compose(self.acc_delta, dr)
        self.prev_prev_pose = None if first else self.frames[-1].pose
        self.frames.append(frame)
        last_kf = None if first else self.slam_map.keyframes[self._next_kf_id - 1]
        # Few-but-nonzero matches on a degraded frame make a geometrically
        # risky keyframe. Blackout frames (zero matches, no geometry) and
        # frontier frames (plenty of fresh detections to triangulate) are
        # fine; only deny the degenerate low-texture case.
        risky = 0 < n_trk < KF_MIN_TRK and record.n_det < KF_MIN_DET
        if self.mode == "dr-only":
            # trajectory snapshots only; no mapping in this mode
            if first or frame.id - last_kf.frame_id >= K_MAX:
                self._bare_keyframe(frame)
        elif first or (self.track_lost_frame is None and not risky
                       and decide_keyframe(frame, last_kf)):
            self._insert_keyframe(frame, record, matches)
        return frame

    # ----- mapping --------------------------------------------------------

    def _bare_keyframe(self, frame: Frame) -> KeyFrame:
        """A new keyframe at the frame, observing no point, in the map."""
        kf = KeyFrame(self._next_kf_id, frame.id, frame.timestamp, frame.pose, n_trk=0,
                      quality=frame.quality)
        self._next_kf_id += 1
        self.slam_map.keyframes[kf.id] = kf
        return kf

    def _true_depths(self, ids: np.ndarray, gt_pose: Pose) -> np.ndarray:
        """RGB-D stand-in (the depth oracle): the true depth (N,) of each of the
        distinct landmark ids in the camera at gt_pose, NaN where the world
        lacks the landmark."""
        depth = np.full(len(ids), np.nan)
        at, known = self._world.lookup(ids)
        y, _ = project_points(self.camera, gt_pose.rotation_matrix, gt_pose.t,
                              self._world.positions[at[known]])
        depth[known] = y[:, 2]
        return depth

    def _insert_keyframe(self, frame: Frame, record, matches: Detections) -> KeyFrame:
        """Keyframe observing its matches, then new points from its other detections.

        Every match is a map point, so the first detection of each landmark
        not yet in the map is a candidate, in detection order; a candidate
        with a true depth in front of the near plane becomes a new point.
        The record's true pose feeds the two oracles and nothing else.
        """
        kf = self._bare_keyframe(frame)
        kf_id = kf.id
        self._kf_truth.append(record.gt_pose)
        kf.n_trk, kf.dr_to_prev = frame.stats.n_trk, self.acc_delta if kf_id > 0 else None
        ids, uv = record.detections.ids, record.detections.uv
        rows = _first_landmark_rows(ids)
        rows = rows[~np.isin(ids[rows], self.slam_map.points.ids, assume_unique=True)]
        depth = self._true_depths(ids[rows], record.gt_pose)
        front = depth > Z_MIN
        rows = rows[front]
        self.slam_map.points = self.slam_map.points.insert(
            ids[rows], back_project(self.camera, frame.pose.rotation_matrix, frame.pose.t,
                                    uv[rows], depth[front]), kf_id)
        seen = np.concatenate([matches.ids, ids[rows]])
        table = self.slam_map.observations = np.concatenate([
            self.slam_map.observations,
            reprojection_rows(kf_id, seen, np.concatenate([matches.uv, uv[rows]]))])

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
            return dict.fromkeys(kf_ids, p.fixed_alpha)
        kf_ids = sorted(kf_ids)
        raw = [(k, dr_weight(keyframe_quality(count, self.c_ref), p.bounds))
               for k, count in zip(kf_ids, self.slam_map.connection_counts(kf_ids))]
        smoothed = {}
        # runs of consecutive keyframe ids, each smoothed on its own
        for _, run in groupby(enumerate(raw), key=lambda e: e[1][0] - e[0]):
            smoothed.update(smooth_window_weights([r for _, r in run], p.smoothing_halfwidth))
        lo, hi = p.bounds.alpha_min, p.bounds.alpha_max
        return {k: min(max(a, lo), hi) for k, a in smoothed.items()}

    def _local_ba(self, new_kf: KeyFrame) -> None:
        p = self.params
        (counts,) = self.slam_map.shared_counts([new_kf.id])
        covisible = np.flatnonzero(counts)
        ranked = covisible[np.argsort(-counts[covisible], kind="stable")[:MAX_LOCAL_KEYFRAMES]]
        window = {new_kf.id} | set(ranked.tolist()) | (
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
            kf = self.slam_map.keyframes[k]
            if k - 1 in kf_ids and (k in window or k - 1 in window) and kf.dr_to_prev is not None:
                kf.dr_alpha = max(alphas.get(k - 1, lo), alphas.get(k, lo))
                edges.append((k - 1, k, kf.dr_to_prev, kf.dr_alpha))

        if fixed.all() and not len(points):
            return
        problem = self._ba_problem(kf_ids, fixed, points, True, edges)
        try:
            self.counts["lba_capped"] += _capped(solve_local_ba(problem, self._ba_solver))
        except (Diverged, SingularSystem):
            self.counts["lba_failed"] += 1
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
        """Moves the free poses' keyframes and the landmarks' points to their
        solved values, then drops each of the problem's observations whose
        point lies there at or behind Z_MIN in its keyframe (the depth check
        ORB-SLAM2 makes after local BA). The solver gives such a row an IRLS
        weight of 0, so it cannot pull its point back in front, while its
        clamped cost still moves and stalls every later BA that carries it."""
        poses, landmarks, rows = problem.poses, problem.landmarks, problem.reprojection_factors
        keyframes = self.slam_map.keyframes
        free = poses[~poses["fixed"]]
        for k, q, t in zip(free["id"].tolist(), free["q"], free["t"]):
            keyframes[k].pose = Pose(q, t)
        points = self.slam_map.points
        points.positions[points.rows(landmarks["id"])] = landmarks["position"]
        solved = [keyframes[k].pose for k in poses["id"].tolist()]
        slot = np.searchsorted(poses["id"], rows["pose"])
        positions = landmarks["position"][np.searchsorted(landmarks["id"], rows["landmark"])]
        y, _ = project_points(self.camera, np.array([p.rotation_matrix for p in solved])[slot],
                              np.array([p.t for p in solved])[slot], positions)
        behind = rows[y[:, 2] <= Z_MIN]
        if len(behind):
            table = self.slam_map.observations
            keep = np.ones(len(table), dtype=bool)
            for k, j in zip(behind["pose"].tolist(), behind["landmark"].tolist()):
                keep &= (table["pose"] != k) | (table["landmark"] != j)
            self.slam_map.observations = table[keep]
            self.counts["behind_dropped"] += len(behind)

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
        pairs = [(self.slam_map.keyframes[k].quality, count)
                 for k, count in zip(recent, self.slam_map.connection_counts(recent))]
        self.c_ref = update_c_ref(pairs, previous=self.c_ref, q_well=self.params.q_well)

    # ----- loop closing ---------------------------------------------------

    def _check_loop(self, new_kf: KeyFrame) -> None:
        """The loop oracle: the keyframe nearest new_kf's true position among
        those at least LOOP_GAP_MIN older, within LOOP_RADIUS, closes a loop
        with their exact true relative pose."""
        if self.last_gba_kf is not None and new_kf.id - self.last_gba_kf < LOOP_COOLDOWN:
            return
        here = self._kf_truth[new_kf.id]
        older = self._kf_truth[:max(0, new_kf.id - LOOP_GAP_MIN + 1)]
        dist, old_id = min(((float(np.linalg.norm(truth.t - here.t)), k)
                            for k, truth in enumerate(older)), default=(math.inf, None))
        if dist > LOOP_RADIUS:
            return
        relative = compose(inverse(older[old_id]), here)
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
        # keyframes, ascending; each DR edge a local BA weighted
        edges = [(k - 1, k, keyframes[k].dr_to_prev, keyframes[k].dr_alpha)
                 for k in kf_ids.tolist() if not np.isnan(keyframes[k].dr_alpha)]
        problem = self._ba_problem(kf_ids, kf_ids == kf_ids[0],
                                   _seen_twice(self.slam_map.observations["landmark"]), False,
                                   edges + self.slam_map.loop_edges)
        try:
            self.counts["gba_capped"] += _capped(solve_global_ba(problem, self._gba_solver))
        except (Diverged, SingularSystem):
            self.counts["gba_failed"] += 1
            return False
        last, before = keyframes[kf_ids[-1]], keyframes[kf_ids[-1]].pose
        self._apply_ba(problem)
        correction, frame = compose(last.pose, inverse(before)), self.frames[-1]
        frame.pose = compose(correction, frame.pose)
        self.prev_prev_pose = compose(correction, self.prev_prev_pose)
        post = [(keyframes[k].timestamp, keyframes[k].pose) for k in kf_ids.tolist()]
        self.gba_events.append(GbaEvent(frame_id=frame.id,
                                        kf_from=loop_from, kf_to=loop_to,
                                        pre_keyframes=pre, post_keyframes=post))
        return True

    def result(self) -> RunResult:
        return RunResult(mode=self.mode, frames=self.frames, slam_map=self.slam_map,
                         track_lost_frame=self.track_lost_frame,
                         gba_events=self.gba_events, counts=self.counts)


def _capped(report) -> bool:
    """Whether a solve ended on its iteration cap."""
    return report.termination == "max_iterations"


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
    lines.append("[keyframe_dr]")
    lines += [f"{kf.id} {fmt(kf.dr_alpha)} {pose_text(kf.dr_to_prev)}" for kf in keyframes
              if kf.dr_to_prev is not None]
    lines.append("[observations]")
    obs = slam_map.observations
    for k, j, (u, v) in zip(obs["pose"].tolist(), obs["landmark"].tolist(), obs["uv"].tolist()):
        lines.append(f"{k} {j} {fmt(u)} {fmt(v)}")
    lines.append("[points]")
    points = slam_map.points
    for j, position, created in zip(points.ids.tolist(), points.positions.tolist(),
                                    points.created_kf.tolist()):
        lines.append(f"{j} {' '.join(fmt(x) for x in position)} {created}")
    lines.append("[loopedges]")
    for a, b, rel, scale in slam_map.loop_edges:
        lines.append(f"{a} {b} {fmt(scale)} {pose_text(rel)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_map(path) -> SlamMap:
    slam_map = SlamMap()
    observations, observation_lines = [], []   # (keyframe id, point id, pixel), its file line
    points = ([], [], [])            # point ids, positions, creating keyframes
    seen = set()                     # (section, the ids the line is the entry of)
    section = None

    def pose(fields):
        return parse_poses(fields, path, lambda _: lineno)[0]

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
                if section not in MAP_SECTIONS:
                    raise FormatError(f"unknown section {section!r}", path=str(path), line=lineno)
                continue
            if section is None:
                raise FormatError("data line before any section", path=str(path), line=lineno)
            parts = line.split()
            n_fields, n_ids, n_keyframes = MAP_SECTIONS[section]
            if len(parts) != n_fields:
                raise FormatError(f"expected {n_fields} fields, got {len(parts)}",
                                  path=str(path), line=lineno)
            ids = tuple(int(x) for x in parts[:n_ids])
            if (section, ids) in seen:
                raise FormatError(f"duplicate [{section}] entry {' '.join(map(str, ids))}",
                                  path=str(path), line=lineno)
            seen.add((section, ids))
            for k in ids[:n_keyframes]:
                if k not in slam_map.keyframes:
                    raise FormatError(f"[{section}] entry names keyframe {k}, not in [keyframes]",
                                      path=str(path), line=lineno)
            if section == "keyframes":
                kf = KeyFrame(
                    id=ids[0], frame_id=int(parts[1]), timestamp=float(parts[2]),
                    pose=pose(parts[3:10]), n_trk=int(parts[11]),
                    quality=float(parts[12]), lba_alpha=float(parts[10]))
                slam_map.keyframes[kf.id] = kf
            elif section == "keyframe_dr":
                kf = slam_map.keyframes[ids[0]]
                kf.dr_alpha, kf.dr_to_prev = float(parts[1]), pose(parts[2:])
            elif section == "observations":
                observations.append((*ids, (float(parts[2]), float(parts[3]))))
                observation_lines.append(lineno)
            elif section == "points":
                points[0].append(ids[0])
                points[1].append([float(x) for x in parts[1:4]])
                points[2].append(int(parts[4]))
            else:
                slam_map.loop_edges.append((*ids, pose(parts[3:]), float(parts[2])))
    except ValueError as e:
        raise FormatError(f"malformed map entry: {e}", path=str(path), line=lineno) from e
    table = np.array(observations, dtype=REPROJECTION_ROW)
    unknown = np.flatnonzero(~np.isin(table["landmark"], points[0]))
    if len(unknown):
        raise FormatError(f"[observations] entry names point {table['landmark'][unknown[0]]}, "
                          "not in [points]", path=str(path), line=observation_lines[unknown[0]])
    slam_map.observations = table[np.argsort(table["pose"], kind="stable")]
    slam_map.points = PointTable.empty().insert(
        np.array(points[0], dtype=np.int64), np.array(points[1], dtype=float).reshape(-1, 3),
        np.array(points[2], dtype=np.int64))
    return slam_map
