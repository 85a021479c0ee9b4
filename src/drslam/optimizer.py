"""Levenberg-Marquardt bundle adjustment over pose and landmark variables.

One LM loop drives two linearizers. The Problem linearizer serves local BA
(window of keyframes plus their landmarks) and global BA (everything, first
keyframe fixed), over a Problem of structured arrays: poses and landmarks in
ascending id, reprojection rows and DR edges. The motion-only linearizer
serves tracking: one free pose against fixed map points given as arrays in
match order, with at most one DR edge from the fixed previous pose, and a 6x6
system. A point of either is stacked arrays (pose quaternions and
translations, landmark positions); a retraction moves all free poses with one
batched exp and compose, and Pose objects are built only for the result. Both
evaluate residuals once per point through the factors kernels, and the loop
linearizes each accepted point from the residuals its cost check computed
there, DR edges with the log's angle terms that came with their residuals.
The Problem linearizer folds each DR edge's fixed part delta^-1 from^-1 per
evaluation; the motion-only linearizer, whose from pose is fixed, folds it
once per solve, with its rotation, and its point carries the pose's rotation
matrix, formed once per point for both the residuals there and the retraction
from there. Both fold with the same kernels, so their arithmetic is the same
bit for bit. Visual rows are whitened by one pixel std and carry a Huber
kernel; DR edges carry a diagonal precision, alpha times the nominal one, and
each residual entry and Jacobian row is whitened by the square root of its
precision entry; they carry no kernel. The Problem linearizer evaluates every
reprojection row in one kernel call, each row with its pose's rotation and
translation gathered by the row's pose slot, and scatters the rows' blocks
into the system with np.add.at; every DR edge is linearized in one batched
call. The BA linear solve eliminates landmarks by Schur complement; the
pose-landmark coupling is kept as one dense block, O(F*L) memory for F free
poses and L free landmarks, and the Schur complement is formed from it in
chunks of landmarks, each a product over the poses that observe it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Diverged, NoConstraints, NotPositiveDefinite, SingularSystem
from .factors import (
    HUBER_PIXEL_SCALE,
    dr_fold,
    dr_jacobians,
    dr_residuals,
    huber,
    reprojection_jacobians,
    reprojection_residuals,
)
from .geometry import (CameraIntrinsics, Pose, Z_MIN, quat_to_rotation, se3_adjoint, se3_compose,
                       se3_exp, se3_inverse)


# One reprojection row: the observing pose id, the landmark id and the pixel.
REPROJECTION_ROW = np.dtype([("pose", np.int64), ("landmark", np.int64), ("uv", np.float64, (2,))])
# One DR edge: the from and to pose ids, the measured increment from -> to
# (unit quaternion and translation) and the diagonal of its information.
DR_EDGE = np.dtype([("from", np.int64), ("to", np.int64), ("q", np.float64, (4,)),
                    ("t", np.float64, (3,)), ("precision", np.float64, (6,))])
# One pose and one landmark variable: the id, the value and whether it is held fixed.
POSE_VARIABLE = np.dtype([("id", np.int64), ("q", np.float64, (4,)), ("t", np.float64, (3,)),
                          ("fixed", np.bool_)], align=True)
LANDMARK_VARIABLE = np.dtype([("id", np.int64), ("position", np.float64, (3,)),
                              ("fixed", np.bool_)], align=True)


def reprojection_rows(pose_ids, landmark_ids, uv) -> np.ndarray:
    """Reprojection rows (N,) of pose and landmark ids (N,), or one each, and pixels (N, 2)."""
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    rows = np.empty(len(uv), REPROJECTION_ROW)
    rows["pose"], rows["landmark"], rows["uv"] = pose_ids, landmark_ids, uv
    return rows


def _merged(variables: np.ndarray, name: str, ids, fixed, **columns) -> np.ndarray:
    """The variables with new ones of ids, fixed flags and value columns, in
    ascending id; raises KeyError on an id given twice."""
    added = np.empty(len(next(iter(columns.values()))), variables.dtype)
    added["id"], added["fixed"] = ids, fixed
    for column, values in columns.items():
        added[column] = values
    merged = np.concatenate([variables, added])
    merged = merged[np.argsort(merged["id"], kind="stable")]
    repeated = merged["id"][1:][np.diff(merged["id"]) == 0]
    if len(repeated):
        raise KeyError(f"{name} {repeated[0]} given twice")
    return merged


@dataclass
class Problem:
    intrinsics: CameraIntrinsics | None = None
    poses: np.ndarray = field(                         # (P,) POSE_VARIABLE, ascending id
        default_factory=lambda: np.empty(0, POSE_VARIABLE))
    landmarks: np.ndarray = field(                     # (L,) LANDMARK_VARIABLE, ascending id
        default_factory=lambda: np.empty(0, LANDMARK_VARIABLE))
    reprojection_factors: np.ndarray = field(          # (N,) REPROJECTION_ROW
        default_factory=lambda: np.empty(0, REPROJECTION_ROW))
    dr_factors: np.ndarray = field(                    # (E,) DR_EDGE
        default_factory=lambda: np.empty(0, DR_EDGE))
    pixel_std: float = 1.0                             # isotropic, every row [px]
    huber_threshold: float = HUBER_PIXEL_SCALE         # every row, whitened units

    def add_poses(self, pose_ids, poses, fixed=False):
        """Adds poses: ids (N,) and N Poses, or one id and Pose, fixed one flag
        or (N,). Raises KeyError on an id given twice."""
        poses = [poses] if isinstance(poses, Pose) else poses
        self.poses = _merged(self.poses, "pose", pose_ids, fixed,
                             q=np.reshape([p.q for p in poses], (-1, 4)),
                             t=np.reshape([p.t for p in poses], (-1, 3)))

    def add_landmarks(self, lm_ids, positions, fixed=False):
        """Adds landmarks: ids (N,) and positions (N, 3), or one id and
        position, fixed one flag or (N,). Raises KeyError on an id given twice."""
        self.landmarks = _merged(self.landmarks, "landmark", lm_ids, fixed,
                                 position=np.reshape(positions, (-1, 3)))

    def add_observations(self, pose_ids, landmark_ids, uv):
        """Appends reprojection rows, as reprojection_rows takes them."""
        self.reprojection_factors = np.concatenate([self.reprojection_factors,
                                                    reprojection_rows(pose_ids, landmark_ids, uv)])

    def add_dr_edges(self, from_ids, to_ids, deltas, precisions):
        """Appends DR edges: pose ids (E,), or one id for every edge, increments
        (E Poses) and precisions (E, 6), or one precision for every edge."""
        edges = np.empty(len(deltas), DR_EDGE)
        edges["from"], edges["to"] = from_ids, to_ids
        edges["precision"] = np.reshape(precisions, (-1, 6))
        edges["q"] = np.array([d.q for d in deltas]).reshape(-1, 4)
        edges["t"] = np.array([d.t for d in deltas]).reshape(-1, 3)
        self.dr_factors = np.concatenate([self.dr_factors, edges])

    def validate(self):
        _check_pixel_model(self.pixel_std, self.huber_threshold)
        if not all(np.all(np.diff(v["id"]) > 0) for v in (self.poses, self.landmarks)):
            raise ValueError("pose and landmark ids must be unique and ascending")
        rows, edges, poses = self.reprojection_factors, self.dr_factors, self.poses["id"]
        for kind, ids, name, known in (
                ("reprojection row", rows["pose"], "pose", poses),
                ("reprojection row", rows["landmark"], "landmark", self.landmarks["id"]),
                ("DR edge", np.concatenate([edges["from"], edges["to"]]), "pose", poses)):
            unknown = ids[~np.isin(ids, known)]
            if len(unknown):
                raise KeyError(f"{kind} references unknown {name} {unknown[0]}")


def _check_pixel_model(pixel_std, huber_threshold):
    if not all(np.ndim(v) == 0 and v > 0 for v in (pixel_std, huber_threshold)):
        raise ValueError("pixel std and Huber threshold must be positive scalars")


@dataclass
class SolverConfig:
    """The LM settings that differ between tracking, local BA and global BA."""
    max_iterations: int = 20
    initial_damping: float = 1e-4
    cost_tolerance: float = 1e-8


# The LM settings every solve shares: the damping factor after a rejected and
# after an accepted step, the largest damping tried before giving up on an
# iteration, and the step below which the solve has converged.
DAMPING_UP = 10.0
DAMPING_DOWN = 0.5
MAX_DAMPING = 1e10
STEP_TOLERANCE = 1e-10


@dataclass
class SolverReport:
    iterations: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    termination: str = "empty"
    min_pose_eigenvalue: float = float("nan")
    evaluations: int = 0            # cost evaluations, the starting point included
    rejected_steps: int = 0         # candidate steps that raised the cost
    final_damping: float = float("nan")
    free_poses: int = 0             # problem size
    free_landmarks: int = 0
    reprojection_rows: int = 0
    dr_edges: int = 0


class NormalEquations:
    """Gauss-Newton system in pose/landmark block form.

    Hpp is the dense pose-pose block (6F x 6F), Hll the block-diagonal
    landmark block stored as (L, 3, 3), and Hpl the pose-landmark coupling
    kept dense as (F, 6, L, 3), for F free poses and L free landmarks. The
    dense coupling costs O(F*L) memory, most of it zeros on a long map, and
    needs no observer bookkeeping: the blocks of all reprojection rows are
    added into it at once by their pose and landmark indices, repeated
    pose-landmark pairs included, and schur_solve reads its structure from
    the nonzero blocks.
    """

    def __init__(self, n_pose_free: int, n_lm_free: int):
        self.n_pose_free = n_pose_free
        self.n_lm_free = n_lm_free
        self.Hpp = np.zeros((6 * n_pose_free, 6 * n_pose_free))
        self.bp = np.zeros(6 * n_pose_free)
        self.Hll = np.zeros((n_lm_free, 3, 3))
        self.bl = np.zeros((n_lm_free, 3))
        self.Hpl = np.zeros((n_pose_free, 6, n_lm_free, 3))


def min_pose_eigenvalue(neq: NormalEquations) -> float:
    """Smallest eigenvalue of the pose-pose block (conditioning diagnostic)."""
    if neq.n_pose_free == 0:
        return float("nan")
    return _min_eigenvalue(neq.Hpp)


def _min_eigenvalue(hpp: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (hpp + hpp.T)).min())


# Landmarks per product in the Schur complement: large enough that a local BA
# window takes a few products, small enough that on a long map each product
# spans a few keyframes.
LANDMARK_CHUNK = 64


def schur_solve(neq: NormalEquations, damping: float = 0.0) -> np.ndarray:
    """Landmark-eliminated step, identical to the solve of the full system.

    Forms the reduced camera system S = Hpp - W C^-1 W^T, with W the dense
    coupling and C the damped landmark block. Returns the concatenated
    (pose, landmark) step vector. Raises SingularSystem when the reduced
    camera system cannot be factorized.
    """
    n_p, n_l = 6 * neq.n_pose_free, neq.n_lm_free
    s = neq.Hpp.copy()
    s.flat[::n_p + 1] += damping
    bs = neq.bp.copy()
    if n_l:
        try:
            cinv = np.linalg.inv(neq.Hll + damping * np.eye(3))
        except np.linalg.LinAlgError as e:
            raise SingularSystem("landmark block singular under damping") from e
        w = neq.Hpl.reshape(n_p, n_l, 3)
    if n_p and n_l:
        # S -= W C^-1 W^T and bs -= W C^-1 bl over chunks of landmarks taken in
        # order of their first observer, each over the rows of the free poses
        # that observe the chunk: a landmark is seen from a few keyframes close
        # in time, so on a long map a chunk has few rows. einsum, not BLAS: a
        # BLAS product rounds differently with one thread than with several,
        # and the step must not depend on the thread setting.
        seen = (w != 0).reshape(neq.n_pose_free, 6, 3 * n_l).any(axis=1)
        seen = seen.reshape(neq.n_pose_free, n_l, 3).any(axis=2)
        order = np.argsort(seen.argmax(axis=0), kind="stable")
        for a in range(0, n_l, LANDMARK_CHUNK):
            lms = order[a:a + LANDMARK_CHUNK]
            poses = np.flatnonzero(seen[:, lms].any(axis=1))
            if not len(poses):
                continue
            rows = (6 * poses[:, None] + np.arange(6)).ravel()
            w_c = w[rows].take(lms, axis=1)
            y_c = (w_c.transpose(1, 0, 2) @ cinv[lms]).transpose(1, 0, 2).reshape(len(rows), -1)
            w_c = w_c.reshape(len(rows), -1)
            s[np.ix_(rows, rows)] -= np.einsum("pk,qk->pq", y_c, w_c)
            bs[rows] -= np.einsum("pk,k->p", y_c, neq.bl[lms].reshape(-1))
    if n_p:
        try:
            dp = np.linalg.solve(s, bs)
        except np.linalg.LinAlgError as e:
            raise SingularSystem("reduced camera system is singular") from e
    else:
        dp = np.zeros(0)
    if not n_l:
        return dp
    rhs = neq.bl - np.einsum("p,plk->lk", dp, w)
    dl = np.einsum("ljk,lk->lj", cinv, rhs)
    return np.concatenate([dp, dl.reshape(-1)])


class _Linearizer:
    """Caches the factor structure of a Problem for repeated evaluation.

    A point is the triple (pose quaternions (P, 4), pose translations
    (P, 3), landmark positions (L, 3)) in slot and row order; point holds the
    problem's variables. Its system is a NormalEquations, solved by
    schur_solve. size is the problem size the solve reports.
    """

    def __init__(self, problem: Problem):
        problem.validate()
        self.k = problem.intrinsics
        # Poses and landmarks in the problem's ascending id; a pose's position
        # is its slot, a landmark's its row.
        poses, landmarks = problem.poses, problem.landmarks
        self.pose_ids, self.fixed = poses["id"], poses["fixed"]
        self.free_index, self.n_pose_free = _free_index(self.fixed)
        self.free_slots = np.flatnonzero(~self.fixed)
        self.lm_ids, self.lm_fixed = landmarks["id"], landmarks["fixed"]
        self.lm_free_index, self.n_lm_free = _free_index(self.lm_fixed)

        # Per row: the observing pose's slot and free index (-1: fixed), the
        # landmark's row and free index, and the pixel.
        rows = problem.reprojection_factors
        self.row_slot = np.searchsorted(self.pose_ids, rows["pose"])
        self.row_pose_free = self.free_index[self.row_slot]
        self.row_lm = np.searchsorted(self.lm_ids, rows["landmark"])
        self.row_lm_free = self.lm_free_index[self.row_lm]
        self.uv = rows["uv"]
        self.inv_std, self.huber_k = 1.0 / problem.pixel_std, problem.huber_threshold
        # DR edges: pose slots, inverted increments, Ad(delta^-1), square
        # roots of the precisions, and the free-pose index of each side (-1: fixed).
        edges = problem.dr_factors
        self.dr_from = np.searchsorted(self.pose_ids, edges["from"])
        self.dr_to = np.searchsorted(self.pose_ids, edges["to"])
        self.dr_delta_inv_q, self.dr_delta_inv_t, self.dr_delta_inv_adjoint, self.dr_sqrt_p = \
            _dr_edge_arrays(edges["q"], edges["t"], edges["precision"])
        self.dr_from_free = self.free_index[self.dr_from]
        self.dr_to_free = self.free_index[self.dr_to]

        # contiguous copies of the variables' columns
        self.point = (poses["q"].copy(), poses["t"].copy(), landmarks["position"].copy())
        self.size = dict(free_poses=self.n_pose_free, free_landmarks=self.n_lm_free,
                         reprojection_rows=len(self.uv), dr_edges=len(self.dr_from))

    def retract(self, point, step):
        q, t, lm_pos = point
        n = self.n_pose_free
        if n:
            q, t, free = q.copy(), t.copy(), self.free_slots
            q[free], t[free] = se3_compose(q[free], t[free], *se3_exp(step[:6 * n].reshape(n, 6)))
        if self.n_lm_free:
            lm_pos = lm_pos.copy()
            lm_pos[~self.lm_fixed] += step[6 * n:].reshape(-1, 3)
        return q, t, lm_pos

    def residuals(self, point):
        """Cost at the point and the per-row residuals linearize reuses."""
        q, t, lm_pos = point
        rotations = quat_to_rotation(q)[self.row_slot]
        cost, visual = _visual_residuals(self.k, rotations, t[self.row_slot], lm_pos[self.row_lm],
                                         self.uv, self.inv_std, self.huber_k)
        dr = None
        if len(self.dr_from):
            left = dr_fold(q[self.dr_from], t[self.dr_from], self.dr_delta_inv_q,
                           self.dr_delta_inv_t)
            dr = _dr_whitened_residuals(*left, q[self.dr_to], t[self.dr_to], self.dr_sqrt_p)
            cost += dr[-1]
        return cost, (visual, rotations, dr)

    def linearize(self, point, cache) -> NormalEquations:
        """Normal equations at the point, from the residuals computed there;
        np.add.at scatters the rows' blocks in row order."""
        visual, rotations, dr = cache
        neq = NormalEquations(self.n_pose_free, self.n_lm_free)
        active, jp, j_lm, rw = _visual_jacobians(self.k, visual, self.inv_std, rotations)
        pose_free, lm_free = self.row_pose_free[active], self.row_lm_free[active]
        on_pose, on_lm = pose_free >= 0, lm_free >= 0
        hpp, gp = _row_blocks(jp[on_pose], rw[on_pose])
        n = self.n_pose_free
        np.add.at(neq.Hpp.reshape(n, 6, n, 6),
                  (pose_free[on_pose], slice(None), pose_free[on_pose]), hpp)
        np.add.at(neq.bp.reshape(n, 6), pose_free[on_pose], -gp)
        hll, gl = _row_blocks(j_lm[on_lm], rw[on_lm])
        np.add.at(neq.Hll, lm_free[on_lm], hll)
        np.add.at(neq.bl, lm_free[on_lm], -gl)
        both = on_pose & on_lm
        np.add.at(neq.Hpl, (pose_free[both], slice(None), lm_free[both]),
                  np.einsum("nij,nik->njk", jp[both], j_lm[both]))
        if dr is not None:
            self._linearize_dr(dr, neq)
        return neq

    def _linearize_dr(self, dr, neq: NormalEquations) -> None:
        """Adds the normal equations of every DR edge."""
        log, rw, _ = dr
        near_pi = log[1]
        # near-pi edges stay in the cost but are inactive for Jacobians; the
        # angle is tested again at the next linearization
        f_sel = ~near_pi & (self.dr_from_free >= 0)
        t_sel = ~near_pi & (self.dr_to_free >= 0)
        jw_from, jw_to = _dr_whitened_jacobians(log, self.dr_delta_inv_adjoint, self.dr_sqrt_p,
                                                f_sel, t_sel)
        jw = np.concatenate([jw_from, jw_to])
        idx = np.concatenate([self.dr_from_free[f_sel], self.dr_to_free[t_sel]])
        jwt = jw.transpose(0, 2, 1)
        # diagonal blocks J^T J and gradients of both sides, then the blocks
        # coupling the two poses of every edge with both sides free
        blocks = [jwt @ jw]
        rows, cols = [idx], [idx]
        both = f_sel & t_sel
        if both.any():
            jf, jt = jw_from[both[f_sel]], jw_to[both[t_sel]]
            a, b = self.dr_from_free[both], self.dr_to_free[both]
            cross = jf.transpose(0, 2, 1) @ jt
            blocks += [cross, cross.transpose(0, 2, 1)]
            rows += [a, b]
            cols += [b, a]
        n = self.n_pose_free
        np.add.at(neq.Hpp.reshape(n, 6, n, 6),
                  (np.concatenate(rows), slice(None), np.concatenate(cols)),
                  np.concatenate(blocks))
        rw_rows = np.concatenate([rw[f_sel], rw[t_sel]])
        np.add.at(neq.bp.reshape(n, 6), idx, -(jwt @ rw_rows[:, :, None])[:, :, 0])

    def step(self, neq: NormalEquations, damping: float) -> np.ndarray:
        return schur_solve(neq, damping)

    def min_pose_eigenvalue(self, neq: NormalEquations) -> float:
        return min_pose_eigenvalue(neq)


class _PoseLinearizer:
    """Motion-only BA: one free pose against fixed points, and at most one DR
    edge from a fixed previous pose.

    A point is the pose as one row (quaternion (1, 4), translation (1, 3))
    with its rotation matrix (1, 3, 3), formed once per point by retract and
    used by both the residuals there and the next retraction; its system is
    the 6x6 pair (H, b). Rows are the matched points (N, 3) and pixels
    (N, 2) in match order, with one inverse pixel std and one Huber threshold
    for every row. The DR edge's fixed part is folded once per solve, with
    its rotation. The arithmetic and its order are those of _Linearizer on
    the equivalent one-free-pose Problem: the rows' blocks summed in row
    order first, then the DR edge.
    """

    # The DR edge's from side is fixed and its to side free, as a
    # _Linearizer selects them for an edge whose angle is not near pi; as
    # slices, which select the same rows at less cost than masks.
    _FROM_ROWS = slice(0, 0)
    _TO_ROWS = slice(None)

    def __init__(self, camera: CameraIntrinsics, points, uv, inv_std, huber_threshold, dr):
        self.k = camera
        self.points, self.uv = points, uv
        self.inv_std, self.huber_k = inv_std, huber_threshold
        self.dr_sqrt_p = None
        if dr is not None:
            previous, delta, precision = dr
            delta_inv_q, delta_inv_t, self.delta_inv_adjoint, self.dr_sqrt_p = \
                _dr_edge_arrays(delta.q[None], delta.t[None], np.reshape(precision, (1, 6)))
            self.left_q, self.left_t = dr_fold(previous.q[None], previous.t[None], delta_inv_q,
                                               delta_inv_t)
            self.left_rotation = quat_to_rotation(self.left_q)
        self.size = dict(free_poses=1, free_landmarks=0, reprojection_rows=len(points),
                         dr_edges=int(dr is not None))

    def retract(self, point, step):
        q, t, rotation = point
        q, t = se3_compose(q, t, *se3_exp(step[None]), rotation)
        return q, t, quat_to_rotation(q)

    def residuals(self, point):
        """Cost at the pose and the per-row residuals linearize reuses."""
        q, t, rotation = point
        cost = 0.0
        visual = dr = None
        if len(self.points):
            cost, visual = _visual_residuals(self.k, rotation[0], t[0], self.points, self.uv,
                                             self.inv_std, self.huber_k)
        if self.dr_sqrt_p is not None:
            dr = _dr_whitened_residuals(self.left_q, self.left_t, q, t, self.dr_sqrt_p,
                                        self.left_rotation)
            cost += dr[-1]
        return cost, (visual, dr)

    def linearize(self, point, cache):
        """The 6x6 system (H, b) at the pose, from the residuals computed there."""
        visual, dr = cache
        H = np.zeros((6, 6))
        b = np.zeros(6)
        if visual is not None:
            _, jp, _, rw = _visual_jacobians(self.k, visual, self.inv_std)
            hpp, gp = _row_blocks(jp, rw)
            H += hpp.sum(axis=0)
            b -= gp.sum(axis=0)
        if dr is not None:
            log, rw, _ = dr
            if log[1][0]:     # near pi: inactive, as in _Linearizer
                return H, b
            _, jw = _dr_whitened_jacobians(log, self.delta_inv_adjoint, self.dr_sqrt_p,
                                           self._FROM_ROWS, self._TO_ROWS)
            jwt = jw.transpose(0, 2, 1)
            H += (jwt @ jw)[0]
            b -= (jwt @ rw[:, :, None])[0, :, 0]
        return H, b

    def step(self, system, damping: float) -> np.ndarray:
        """The damped step, with the diagonal add that schur_solve makes."""
        H, b = system
        s = H.copy()
        s.flat[::7] += damping
        try:
            return np.linalg.solve(s, b)
        except np.linalg.LinAlgError as e:
            raise SingularSystem("motion-only system is singular") from e

    def min_pose_eigenvalue(self, system) -> float:
        return _min_eigenvalue(system[0])


def _free_index(fixed: np.ndarray):
    """Index of each variable among the free ones (-1 where fixed), and the
    number of free variables."""
    free = ~fixed
    return np.where(fixed, -1, np.cumsum(free) - 1), int(np.count_nonzero(free))


def _dr_edge_arrays(q, t, precisions):
    """Per DR edge of increments (q (E, 4), t (E, 3)): inverted increment
    (quaternion, translation), Ad(delta^-1) and the square root of the
    precision (E, 6). Raises NotPositiveDefinite when a precision entry is
    not finite and positive."""
    if not np.all(np.isfinite(precisions) & (precisions > 0)):
        raise NotPositiveDefinite("DR precision entries must be finite and positive")
    inv_q, inv_t = se3_inverse(q, t)
    return inv_q, inv_t, se3_adjoint(inv_q, inv_t), np.sqrt(precisions)


def _visual_residuals(k, rotation, translation, points, observed, inv_std, huber_k):
    """Huber cost of reprojection rows, and their camera-frame points,
    whitened residuals and IRLS weights."""
    y, r = reprojection_residuals(k, rotation, translation, points, observed)
    rw = r * inv_std
    rho, w = huber(np.linalg.norm(rw, axis=1), huber_k)
    return float(np.sum(rho)), (y, rw, w)


def _visual_jacobians(k, visual, inv_std: float, rotations=None):
    """IRLS-weighted Jacobians and residuals of the rows in front of the near
    plane: (active, jp, j_landmark, rw), j_landmark only given the rows'
    rotations."""
    y, rw, w = visual
    active = y[:, 2] > Z_MIN
    if not active.all():
        y, rw, w = y[active], rw[active], w[active]
        rotations = None if rotations is None else rotations[active]
    j_pose, j_lm = reprojection_jacobians(k, y, rotations)
    sqrt_w = np.sqrt(w)
    scale = (inv_std * sqrt_w)[:, None, None]
    return active, j_pose * scale, None if j_lm is None else j_lm * scale, rw * sqrt_w[:, None]


def _row_blocks(j, r):
    """Per-row blocks J^T J (N, k, k) and gradients J^T r (N, k) of
    Jacobians j (N, 2, k) and residuals r (N, 2)."""
    return np.einsum("nij,nik->njk", j, j), np.einsum("nij,ni->nj", j, r)


def _dr_whitened_residuals(left_q, left_t, to_q, to_t, sqrt_p, left_rotation=None):
    """DR edges' dr_residuals output (residuals, near-pi mask, angle terms),
    whitened residuals and cost; each residual entry is scaled by the square
    root of its precision entry."""
    log = dr_residuals(left_q, left_t, to_q, to_t, left_rotation)
    rw = log[0] * sqrt_p
    return log, rw, 0.5 * float(np.sum(rw * rw))


def _dr_whitened_jacobians(log, delta_inv_adjoint, sqrt_p, from_rows, to_rows):
    """dr_jacobians of the edges' from and to sides, at the dr_residuals
    output log, each Jacobian row scaled by the square root of its precision
    entry."""
    r, _, theta, c = log
    j_from, j_to = dr_jacobians(r, theta, c, delta_inv_adjoint, from_rows, to_rows)
    return j_from * sqrt_p[from_rows, :, None], j_to * sqrt_p[to_rows, :, None]


def _levenberg_marquardt(lin, point, config: SolverConfig):
    """The one LM loop; returns the final point and the report.

    lin is a linearizer over points of its own kind: residuals(point) gives
    the cost and a cache of per-row residuals, linearize(point, cache) the
    system at the point, step(system, damping) the damped step (or raises
    SingularSystem), retract(point, step) the moved point, and
    min_pose_eigenvalue(system) the conditioning diagnostic. Residuals are
    evaluated once per point: an accepted candidate is linearized from the
    residuals its cost check computed.
    """
    lam = config.initial_damping
    report = SolverReport(termination="max_iterations")
    accepted_any = False
    cost, cache = lin.residuals(point)
    report.evaluations = 1
    system = lin.linearize(point, cache)
    report.initial_cost = cost
    for it in range(1, config.max_iterations + 1):
        report.iterations = it
        accepted = False
        best_overshoot = math.inf
        step = None
        while lam <= MAX_DAMPING:
            try:
                step = lin.step(system, lam)
            except SingularSystem:
                lam *= DAMPING_UP
                continue
            candidate = lin.retract(point, step)
            new_cost, new_cache = lin.residuals(candidate)
            report.evaluations += 1
            if new_cost <= cost:
                point, cache = candidate, new_cache
                lam = max(lam * DAMPING_DOWN, 1e-15)
                accepted = True
                accepted_any = True
                break
            report.rejected_steps += 1
            best_overshoot = min(best_overshoot, new_cost - cost)
            lam *= DAMPING_UP
        if not accepted:
            # Float-level stall at an optimum counts as convergence, not failure.
            if accepted_any or best_overshoot <= 1e-12 * max(cost, 1e-12):
                report.termination = "stalled"
                break
            raise Diverged("no damping value produced a cost decrease")
        decrease = cost - new_cost
        cost = new_cost
        system = lin.linearize(point, cache)
        if decrease <= config.cost_tolerance * max(cost, 1e-30):
            report.termination = "cost_tolerance"
            break
        if np.max(np.abs(step)) < STEP_TOLERANCE:
            report.termination = "step_tolerance"
            break
    report.final_cost = cost
    report.final_damping = lam
    report.min_pose_eigenvalue = lin.min_pose_eigenvalue(system)
    return point, report


def solve(problem: Problem, config: SolverConfig | None = None) -> SolverReport:
    """LM over a Problem; updates the problem's free variables in place."""
    config = config or SolverConfig()
    lin = _Linearizer(problem)
    if lin.n_pose_free == 0 and lin.n_lm_free == 0:
        return SolverReport(termination="no_free_variables", **lin.size)
    (q, t, lm_pos), report = _levenberg_marquardt(lin, lin.point, config)
    for s in lin.free_slots.tolist():
        pose = Pose(q[s], t[s])    # canonical, as a keyframe holds it
        problem.poses["q"][s], problem.poses["t"][s] = pose.q, pose.t
    problem.landmarks["position"] = lm_pos
    return replace(report, **lin.size)


def solve_motion_only(camera: CameraIntrinsics, pose: Pose, points, uv, pixel_std: float,
                      huber_threshold: float, dr, config: SolverConfig):
    """Motion-only BA: refine one pose against fixed map points.

    points (N, 3) are the matched map points and uv (N, 2) their pixels, in
    match order; pixel_std and huber_threshold are positive scalars that hold
    for every row. dr is None or one DR edge (previous, delta, precision) from
    the fixed previous pose, its precision (6,) already scaled by its weight.
    Starts at pose, the prediction, and runs LM under config; returns (pose,
    report). Raises NoConstraints when there is no row and no DR edge.
    """
    _check_pixel_model(pixel_std, huber_threshold)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    if n == 0 and dr is None:
        raise NoConstraints("the pose has no visual and no DR constraint")
    lin = _PoseLinearizer(camera, points, np.asarray(uv, dtype=float).reshape(n, 2),
                          1.0 / pixel_std, huber_threshold, dr)
    q = pose.q[None]
    (q, t, _), report = _levenberg_marquardt(lin, (q, pose.t[None], quat_to_rotation(q)), config)
    return Pose(q[0], t[0]), replace(report, **lin.size)


def solve_local_ba(problem: Problem, config: SolverConfig | None = None) -> SolverReport:
    """Window refinement; keyframes outside the window act as gauge anchors."""
    if len(problem.poses) < 2:
        raise ValueError("local BA needs at least two keyframes")
    return solve(problem, config)


def solve_global_ba(problem: Problem, config: SolverConfig | None = None) -> SolverReport:
    """Full-map refinement triggered by loop closure; first keyframe fixed."""
    return solve(problem, config)
