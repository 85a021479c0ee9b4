"""Levenberg-Marquardt bundle adjustment over pose and landmark variables.

One LM loop drives two linearizers. The Problem linearizer serves local BA (a
window of keyframes and their landmarks) and global BA (the whole map, its
first keyframe fixed) over a Problem of structured arrays: poses and
landmarks in ascending id, reprojection rows and DR edges. The motion-only
linearizer serves tracking: one free pose against fixed map points in match
order, at most one DR edge from the fixed previous pose, and a 6x6 system.
The loop evaluates residuals once per point and linearizes a point only when
an iteration steps from it; the point a solve ends at is linearized only if
its report's min_pose_eigenvalue is read.

Both linearizers hold their DR edges in one _DREdges, which runs the factors
kernels per edge on Python floats. Visual rows, whitened by one pixel std and
carrying a Huber kernel, stay batched, as do the normal equations and the
Schur solve. Each free pose's visual block and gradient are one reduction
over its rows; landmark and coupling blocks are formed per row; each kind is
added into the system with one np.bincount, which sums every entry's
contributions in order: the visual blocks, then every free from side of the
DR edges in edge order, then every free to side, then the blocks coupling an
edge's two sides. The BA solve eliminates landmarks by Schur complement over
a dense pose-landmark coupling, O(F*L) memory for F free poses and L free
landmarks, in chunks of landmarks. Products whose size grows with the
problem are einsum, not BLAS, so that the step does not depend on the thread
setting.

What depends on the problem's structure alone is built once per solve: the
DR edges' fixed parts and side layout, the bincount targets of every block
and the Schur chunk index. Once per linearization the blocks are formed and
summed on those targets. Once per damping tried, the landmark blocks are
inverted in closed form and eliminated, and the reduced camera system is
solved.

A factor that cannot be linearized stays in the cost and adds exact zeros
to the system: a visual row at or behind the near plane takes an IRLS
weight of 0, a DR edge whose angle is near pi a zero Jacobian. Every
linearization of a solve thus runs one path on one plan.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .errors import Diverged, NoConstraints, NotPositiveDefinite, SingularSystem
from .factors import (
    HUBER_PIXEL_SCALE,
    dr_fold,
    dr_jacobians,
    dr_residual,
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
    """What a solve did. min_pose_eigenvalue, the smallest eigenvalue of the
    pose-pose block at the final point, is a conditioning diagnostic that no
    estimator decision reads: conditioning computes it on the first read, and
    the value is kept. It reads the solve's inputs, so a caller that changes
    them in place reads it first."""
    iterations: int = 0
    initial_cost: float = 0.0
    final_cost: float = 0.0
    termination: str = "empty"
    evaluations: int = 0            # cost evaluations, the starting point included
    rejected_steps: int = 0         # candidate steps that raised the cost
    final_damping: float = float("nan")
    free_poses: int = 0             # problem size
    free_landmarks: int = 0
    reprojection_rows: int = 0
    dr_edges: int = 0
    conditioning: Callable[[], float] = field(default=lambda: float("nan"), repr=False,
                                              compare=False)

    @cached_property
    def min_pose_eigenvalue(self) -> float:
        return self.conditioning()


# Landmarks per product in the Schur complement: large enough that a local BA
# window takes a few products, small enough that on a long map each product
# spans a few keyframes.
LANDMARK_CHUNK = 64


class NormalEquations:
    """Gauss-Newton system in pose/landmark block form.

    Hpp is the dense pose-pose block (6F x 6F), Hll the block-diagonal
    landmark block stored as (L, 3, 3), and Hpl the pose-landmark coupling
    kept dense as (F, 6, L, 3), for F free poses and L free landmarks. The
    dense coupling costs O(F*L) memory, most of it zeros on a long map, and
    needs no observer bookkeeping: the blocks of all reprojection rows are
    added into it at once by their pose and landmark indices, repeated
    pose-landmark pairs included. schur_chunks is the Schur complement's
    chunk index that schur_solve reads, the linearizer's (_schur_chunks):
    indices only, shared by every damping tried on the system.
    """

    def __init__(self, Hpp, bp, Hll, bl, Hpl, schur_chunks: list):
        self.n_pose_free, self.n_lm_free = len(bp) // 6, len(bl)
        self.Hpp, self.bp, self.Hll, self.bl, self.Hpl = Hpp, bp, Hll, bl, Hpl
        self.schur_chunks = schur_chunks


def _schur_chunks(seen: np.ndarray) -> list:
    """The Schur complement's chunks of landmarks, in order of their first
    observer, each as (landmarks, the rows of the free poses that observe
    them, np.ix_ of those rows), of the (F, L) mask of the free poses that
    observe each free landmark. A landmark no free pose observes is ordered
    as if pose 0 did."""
    if not seen.size:
        return []
    order = np.argsort(seen.argmax(axis=0), kind="stable")
    chunks = []
    for a in range(0, seen.shape[1], LANDMARK_CHUNK):
        lms = order[a:a + LANDMARK_CHUNK]
        poses = np.flatnonzero(seen[:, lms].any(axis=1))
        if len(poses):
            rows = (6 * poses[:, None] + np.arange(6)).ravel()
            chunks.append((lms, rows, np.ix_(rows, rows)))
    return chunks


def min_pose_eigenvalue(neq: NormalEquations) -> float:
    """Smallest eigenvalue of the pose-pose block (conditioning diagnostic)."""
    if neq.n_pose_free == 0:
        return float("nan")
    return _min_eigenvalue(neq.Hpp)


def _min_eigenvalue(hpp: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (hpp + hpp.T)).min())


def schur_solve(neq: NormalEquations, damping: float = 0.0) -> np.ndarray:
    """Landmark-eliminated step, identical to the solve of the full system.

    Forms the reduced camera system S = Hpp - W C^-1 W^T, with W the dense
    coupling and C the damped landmark block, inverted in closed form
    (_inverse_3x3). Returns the concatenated (pose, landmark) step vector.
    Raises SingularSystem when a damped landmark block or the reduced camera
    system cannot be inverted.
    """
    n_p, n_l = 6 * neq.n_pose_free, neq.n_lm_free
    s = neq.Hpp.copy()
    s.flat[::n_p + 1] += damping
    bs = neq.bp.copy()
    if n_l:
        cinv = _inverse_3x3(neq.Hll + damping * np.eye(3))
        w = neq.Hpl.reshape(n_p, n_l, 3)
    if n_p and n_l:
        # S -= W C^-1 W^T and bs -= W C^-1 bl over chunks of landmarks taken in
        # order of their first observer, each over the rows of the free poses
        # that observe the chunk: a landmark is seen from a few keyframes close
        # in time, so on a long map a chunk has few rows. The chunk index is
        # kept for every damping. einsum, not BLAS: a BLAS product rounds
        # differently with one thread than with several, and the step must
        # not depend on the thread setting.
        for lms, rows, block in neq.schur_chunks:
            w_c = w[rows].take(lms, axis=1)
            y_c = (w_c.transpose(1, 0, 2) @ cinv[lms]).transpose(1, 0, 2).reshape(len(rows), -1)
            w_c = w_c.reshape(len(rows), -1)
            s[block] -= np.einsum("pk,qk->pq", y_c, w_c)
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


def _inverse_3x3(blocks: np.ndarray) -> np.ndarray:
    """The inverses (L, 3, 3) of symmetric 3x3 blocks (L, 3, 3), read from
    their upper triangles, in closed form elementwise over the blocks:
    A = M^-1 D M^-T with M^-1 unit lower triangular (LDL^T), so A^-1 =
    M^T D^-1 M. Each entry is formed once and written at (i, j) and (j, i),
    so the inverse is exactly symmetric. Like a Cholesky factorization its
    error grows with the condition number, not with its square, as the
    adjugate's does on a block with two small eigenvalues. Raises
    SingularSystem when a pivot is not finite and positive, that is, when a
    block is not positive definite."""
    a00, a01, a02 = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 0, 2]
    a11, a12, a22 = blocks[:, 1, 1], blocks[:, 1, 2], blocks[:, 2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):    # a zero pivot raises below
        l10, l20 = a01 / a00, a02 / a00
        d1 = a11 - l10 * a01
        u = a12 - l20 * a01
        l21 = u / d1
        pivots = np.stack([a00, d1, a22 - l20 * a02 - l21 * u])
    if not np.all((pivots > 0.0) & (pivots < math.inf)):
        raise SingularSystem("landmark block not positive definite under damping")
    # M = [[1, 0, 0], [m10, 1, 0], [m20, m21, 1]], the inverse of the unit factor
    m10, m21, m20 = -l10, -l21, l10 * l21 - l20
    i0, i1, i2 = 1.0 / pivots
    b01, b02, b12 = m10 * i1 + m20 * m21 * i2, m20 * i2, m21 * i2
    return np.stack([i0 + m10 * m10 * i1 + m20 * m20 * i2, b01, b02,
                     b01, i1 + m21 * m21 * i2, b12,
                     b02, b12, i2], axis=1).reshape(-1, 3, 3)


# The Jacobian (36 floats) of each side of an edge whose angle is near pi.
_ZERO_JACOBIAN = (0.0,) * 36


class _DREdges:
    """A solve's DR edges, for either linearizer: edges between slots
    from_slots and to_slots, with each slot's free index (-1: fixed) and the
    poses' quaternions and translations as floats by slot, read at fixed from
    slots; increments q (E, 4) and t (E, 3), and precisions (E, 6).

    An edge's residual is log(left to). Its fixed part left = delta^-1
    from^-1 is folded once per solve, with its rotation, where the from pose
    is fixed, and once per evaluation where it is free. Residual entries and
    Jacobian rows are whitened by the square roots of the precision entries;
    edges carry no kernel. The free sides are every free from side in edge
    order, then every free to side; one dr_jacobians call per edge forms
    its free sides. An edge whose angle is near pi stays in the cost, and
    its sides take a zero Jacobian, which adds exact zeros to the system,
    until the next linearization tests its angle again. Raises
    NotPositiveDefinite when a precision entry is not finite and positive.
    """

    def __init__(self, from_slots, to_slots, free_index, qs, ts, q, t, precisions):
        precisions = np.reshape(precisions, (-1, 6)).tolist()
        if not all(0.0 < x < math.inf for row in precisions for x in row):
            raise NotPositiveDefinite("DR precision entries must be finite and positive")
        # per edge: the from slot (-1: fixed), the fixed part (left, or
        # delta^-1 where the from pose is free, with its rotation), the to
        # slot and the square roots; per edge with a free side: the edge,
        # Ad(delta^-1) (None: fixed) and each side's position (-1: fixed)
        self.edges, self.terms, from_sides, to_sides = [], [], [], []
        n_from = sum(free_index[a] >= 0 for a in from_slots)
        for e, (a, b, edge_q, edge_t, row) in enumerate(zip(from_slots, to_slots, q.tolist(),
                                                            t.tolist(), precisions)):
            delta_inv, sqrt_p = se3_inverse(edge_q, edge_t), [math.sqrt(x) for x in row]
            adjoint, f, to = None, -1, -1
            if free_index[a] < 0:
                left_q, left_t = dr_fold(qs[a], ts[a], *delta_inv)
                self.edges.append((-1, (left_q, left_t, quat_to_rotation(left_q)), b, sqrt_p))
            else:
                self.edges.append((a, delta_inv, b, sqrt_p))
                adjoint, f = se3_adjoint(*delta_inv[:2]), len(from_sides)
                from_sides.append((e, free_index[a]))
            if free_index[b] >= 0:
                to = n_from + len(to_sides)
                to_sides.append((e, free_index[b]))
            if f >= 0 or to >= 0:
                self.terms.append((e, adjoint, f, to))
        # each free side's edge, free pose index and square roots (n, 6, 1)
        self.side_edges = [e for e, _ in from_sides + to_sides]
        self.side_index = [i for _, i in from_sides + to_sides]
        self.side_sqrt_p = np.array([self.edges[e][3] for e in self.side_edges]).reshape(-1, 6, 1)
        self.cross_from = [f for _, _, f, to in self.terms if f >= 0 and to >= 0]
        self.cross_to = [to for _, _, f, to in self.terms if f >= 0 and to >= 0]

    def residuals(self, qs, ts, cost: float):
        """The cost with each edge's added, one at a time, and per edge its
        dr_residual output and whitened residual, at the poses given as
        floats by slot."""
        dr = []
        for a, fixed_part, b, sqrt_p in self.edges:
            if a < 0:
                left_q, left_t, rotation = fixed_part
            else:
                (left_q, left_t), rotation = dr_fold(qs[a], ts[a], *fixed_part), None
            log = dr_residual(left_q, left_t, qs[b], ts[b], rotation)
            rw = [x * s for x, s in zip(log[0], sqrt_p)]
            cost += 0.5 * (rw[0] * rw[0] + rw[1] * rw[1] + rw[2] * rw[2] + rw[3] * rw[3]
                           + rw[4] * rw[4] + rw[5] * rw[5])
            dr.append((log, rw))
        return cost, dr

    def whitened_jacobians(self, dr):
        """The free sides' whitened Jacobians (n, 6, 6) and residuals (n, 6)
        at the residuals dr; there must be a free side."""
        jacobians = [_ZERO_JACOBIAN] * len(self.side_edges)
        for e, adjoint, f, to in self.terms:
            log = dr[e][0]
            if not log[1]:
                j_from, j_to = dr_jacobians(log, adjoint, to >= 0)
                if f >= 0:
                    jacobians[f] = j_from
                if to >= 0:
                    jacobians[to] = j_to
        return (np.array(jacobians).reshape(-1, 6, 6) * self.side_sqrt_p,
                np.array([dr[e][1] for e in self.side_edges]))

    def normal_blocks(self, dr):
        """The free sides' blocks J^T J (n, 6, 6) and gradients J^T r (n, 6),
        one product per side, so that an edge's blocks do not depend on the
        others, and the blocks J_from^T J_to of the edges with both sides
        free, or None; there must be a free side."""
        jw, rw = self.whitened_jacobians(dr)
        jwt = jw.transpose(0, 2, 1)
        cross = None
        if self.cross_from:
            cross = jw[self.cross_from].transpose(0, 2, 1) @ jw[self.cross_to]
        return jwt @ jw, (jwt @ rw[:, :, None])[:, :, 0], cross


class _Linearizer:
    """Caches the factor structure of a Problem for repeated evaluation.

    A point is the triple (pose quaternions (P, 4), pose translations
    (P, 3), landmark positions (L, 3)) in slot and row order; point holds the
    problem's variables. Its system is a NormalEquations, solved by
    schur_solve. size is the problem size the solve reports.

    The plan is built once per solve from the structure alone: the flat
    np.bincount targets of every block's entries in Hpp, bp, Hll, bl and
    Hpl, and the Schur chunk index. A linearization forms the blocks of
    every row and edge and sums them on those targets; a row at or behind
    the near plane and an edge near pi stay in it and add exact zeros. A
    damping trial inverts the landmark blocks and eliminates them over the
    chunks.
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
        edges = problem.dr_factors
        self.dr = _DREdges(np.searchsorted(self.pose_ids, edges["from"]).tolist(),
                           np.searchsorted(self.pose_ids, edges["to"]).tolist(),
                           self.free_index.tolist(), poses["q"].tolist(), poses["t"].tolist(),
                           edges["q"], edges["t"], edges["precision"])

        # The plan. Hpp's blocks are every free pose's visual block, then the
        # DR edges' free sides (from sides, then to sides), then the blocks
        # coupling an edge's two sides and their transposes; bp's gradients
        # are the visual ones, then the sides'. Entry (i, j) of block (p, q)
        # of Hpp (6F, 6F) is (6p + i) 6F + 6q + j.
        n = self.n_pose_free
        index = np.array(self.dr.side_index, dtype=np.int64)
        a, b = index[self.dr.cross_from], index[self.dr.cross_to]
        block_rows = np.concatenate([np.arange(n), index, a, b])
        block_cols = np.concatenate([np.arange(n), index, b, a])
        self.hpp_index = _scatter_index(36 * n * block_rows + 6 * block_cols,
                                        6 * n * np.arange(6)[:, None] + np.arange(6))
        self.bp_index = _scatter_index(6 * np.concatenate([np.arange(n), index]), np.arange(6))
        # The rows of the free poses grouped by pose, each pose's in row order,
        # and each pose's (start, end) among them. The rows on a free landmark
        # and the targets of their Hll blocks and bl gradients; the rows on a
        # free pose and a free landmark and the targets of their Hpl blocks,
        # entry (i, k) of block (p, l) of Hpl (F, 6, L, 3) at
        # ((6p + i) L + l) 3 + k. A selection of every row is slice(None),
        # which takes no copy.
        n_l, pose_free, lm_free = self.n_lm_free, self.row_pose_free, self.row_lm_free
        on_pose = np.flatnonzero(pose_free >= 0)
        self.pose_rows = on_pose[np.argsort(pose_free[on_pose], kind="stable")]
        bounds = np.searchsorted(pose_free[self.pose_rows], np.arange(n + 1)).tolist()
        self.bounds = list(zip(bounds[:-1], bounds[1:]))
        on_lm = lm_free >= 0
        both = on_lm & (pose_free >= 0)
        lms, p, l = lm_free[on_lm], pose_free[both], lm_free[both]
        self.on_lm, self.both = _selection(on_lm), _selection(both)
        self.hll_index = _scatter_index(9 * lms, np.arange(9))
        self.bl_index = _scatter_index(3 * lms, np.arange(3))
        self.hpl_index = _scatter_index(18 * n_l * p + 3 * l,
                                        3 * n_l * np.arange(6)[:, None] + np.arange(3))
        seen = np.zeros((n, n_l), dtype=bool)
        seen[p, l] = True
        self.schur_chunks = _schur_chunks(seen)

        # contiguous copies of the variables' columns
        self.point = (poses["q"].copy(), poses["t"].copy(), landmarks["position"].copy())
        self.size = dict(free_poses=self.n_pose_free, free_landmarks=self.n_lm_free,
                         reprojection_rows=len(self.uv), dr_edges=len(self.dr.edges))

    def retract(self, point, step):
        q, t, lm_pos = point
        n = self.n_pose_free
        if n:
            qs, ts = q.tolist(), t.tolist()
            for s, xi in zip(self.free_slots.tolist(), step[:6 * n].reshape(n, 6).tolist()):
                qs[s], ts[s] = se3_compose(qs[s], ts[s], *se3_exp(xi))
            q, t = np.array(qs), np.array(ts)
        if self.n_lm_free:
            lm_pos = lm_pos.copy()
            lm_pos[~self.lm_fixed] += step[6 * n:].reshape(-1, 3)
        return q, t, lm_pos

    def residuals(self, point):
        """Cost at the point and the per-row residuals linearize reuses."""
        q, t, lm_pos = point
        qs = q.tolist()
        rotations = np.array([quat_to_rotation(x) for x in qs]).reshape(-1, 3, 3)[self.row_slot]
        cost, visual = _visual_residuals(self.k, rotations, t[self.row_slot], lm_pos[self.row_lm],
                                         self.uv, self.inv_std, self.huber_k)
        cost, dr = self.dr.residuals(qs, t.tolist(), cost)
        return cost, (visual, rotations, dr)

    def linearize(self, point, cache) -> NormalEquations:
        """Normal equations at the point, from the residuals computed there.

        Each free pose's block and gradient are one reduction over its rows in
        row order; landmark blocks, their gradients and the coupling are
        formed per row. Each kind is summed on the plan's targets with one
        np.bincount, in the order the module states, as np.add.at would.
        """
        visual, rotations, dr = cache
        n, n_l = self.n_pose_free, self.n_lm_free
        jp, j_lm, rw = _visual_jacobians(self.k, visual, self.inv_std, rotations)
        jp_rows, rw_rows = jp[self.pose_rows], rw[self.pose_rows]
        reduced = [_pose_reduction(jp_rows[a:b], rw_rows[a:b]) for a, b in self.bounds]
        blocks = [np.reshape([h for h, _ in reduced], (n, 6, 6))]
        grads = [np.reshape([g for _, g in reduced], (n, 6))]
        if self.dr.side_edges:
            dr_blocks, dr_grads, cross = self.dr.normal_blocks(dr)
            blocks.append(dr_blocks)
            grads.append(dr_grads)
            if cross is not None:
                blocks += [cross, cross.transpose(0, 2, 1)]
        Hpp = _scatter(self.hpp_index, np.concatenate(blocks), 36 * n * n).reshape(6 * n, 6 * n)
        bp = _scatter(self.bp_index, -np.concatenate(grads), 6 * n)

        # J^T J and J^T r of each row's two pixel rows, as two broadcast products
        j, r = j_lm[self.on_lm], rw[self.on_lm]
        j0, j1 = j[:, 0], j[:, 1]
        Hll = _scatter(self.hll_index,
                       j0[:, :, None] * j0[:, None] + j1[:, :, None] * j1[:, None], 9 * n_l)
        bl = _scatter(self.bl_index, -(j0 * r[:, :1] + j1 * r[:, 1:]), 3 * n_l)
        Hpl = _scatter(self.hpl_index, jp[self.both].transpose(0, 2, 1) @ j_lm[self.both],
                       18 * n * n_l)
        return NormalEquations(Hpp, bp, Hll.reshape(n_l, 3, 3), bl.reshape(n_l, 3),
                               Hpl.reshape(n, 6, n_l, 3), self.schur_chunks)

    def step(self, neq: NormalEquations, damping: float) -> np.ndarray:
        return schur_solve(neq, damping)

    def min_pose_eigenvalue(self, neq: NormalEquations) -> float:
        return min_pose_eigenvalue(neq)


class _PoseLinearizer:
    """Motion-only BA: one free pose against fixed points, and at most one DR
    edge from a fixed previous pose.

    A point is the pose as floats (quaternion, translation) with its
    rotation matrix as the (3, 3) array the visual kernel reads, formed once
    per point by retract; its system is the 6x6 pair (H, b). Rows are the
    matched points (N, 3) and pixels (N, 2) in match order, with one inverse
    pixel std and one Huber threshold; N may be 0, which gives a zero visual
    block. A row at or behind the near plane stays in the cost and adds exact
    zeros to the system. The arithmetic and its order are those of
    _Linearizer on the equivalent one-free-pose Problem.
    """

    def __init__(self, camera: CameraIntrinsics, points, uv, inv_std, huber_threshold, dr):
        self.k = camera
        self.points, self.uv = points, uv
        self.inv_std, self.huber_k = inv_std, huber_threshold
        self.dr = None
        if dr is not None:
            # slot 0 is the free pose, slot 1 the fixed previous pose
            previous, delta, precision = dr
            self.dr = _DREdges([1], [0], [0, -1], [None, previous.q.tolist()],
                               [None, previous.t.tolist()], delta.q[None], delta.t[None],
                               precision)
        self.size = dict(free_poses=1, free_landmarks=0, reprojection_rows=len(points),
                         dr_edges=int(dr is not None))

    def retract(self, point, step):
        q, t, rotation = point
        q, t = se3_compose(q, t, *se3_exp(step.tolist()), rotation.ravel().tolist())
        return q, t, np.array(quat_to_rotation(q)).reshape(3, 3)

    def residuals(self, point):
        """Cost at the pose and the per-row residuals linearize reuses."""
        q, t, rotation = point
        cost, visual = _visual_residuals(self.k, rotation, np.array(t), self.points, self.uv,
                                         self.inv_std, self.huber_k)
        dr = None
        if self.dr is not None:
            cost, dr = self.dr.residuals((q,), (t,), cost)
        return cost, (visual, dr)

    def linearize(self, point, cache):
        """The 6x6 system (H, b) at the pose, from the residuals computed there."""
        visual, dr = cache
        jp, _, rw = _visual_jacobians(self.k, visual, self.inv_std)
        hpp, gp = _pose_reduction(jp, rw)
        H, b = np.zeros((6, 6)), np.zeros(6)     # onto zeros, as np.bincount sums a Problem's
        H += hpp
        b -= gp
        if dr is not None:     # the pose is the edge's free to side
            blocks, grads, _ = self.dr.normal_blocks(dr)
            H += blocks[0]
            b -= grads[0]
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


def _visual_residuals(k, rotation, translation, points, observed, inv_std, huber_k):
    """Huber cost of reprojection rows, and their camera-frame points,
    whitened residuals and IRLS weights."""
    y, r = reprojection_residuals(k, rotation, translation, points, observed)
    rw = r * inv_std
    # the bytes of np.linalg.norm(rw, axis=1), in one pass
    rho, w = huber(np.sqrt(np.einsum("ij,ij->i", rw, rw)), huber_k)
    return float(np.sum(rho)), (y, rw, w)


def _visual_jacobians(k, visual, inv_std: float, rotations=None):
    """IRLS-weighted Jacobians and residuals of every row: (jp, j_landmark,
    rw), j_landmark only given the rows' rotations. A row at or behind the
    near plane takes a weight of 0; its kernel outputs are finite, so it adds
    exact zeros to the system."""
    y, rw, w = visual
    j_pose, j_lm = reprojection_jacobians(k, y, rotations)
    sqrt_w = np.sqrt(np.where(y[:, 2] > Z_MIN, w, 0.0))
    scale = (inv_std * sqrt_w)[:, None, None]
    return j_pose * scale, None if j_lm is None else j_lm * scale, rw * sqrt_w[:, None]


def _pose_reduction(jp, rw):
    """J^T J (6, 6) and J^T r (6,) of one pose's rows: Jacobians jp (m, 2, 6)
    and residuals rw (m, 2), reduced as one (2m, 6) and (2m,) stack. einsum,
    not BLAS, so the sums do not depend on the thread setting."""
    j, r = jp.reshape(-1, 6), rw.reshape(-1)
    return np.einsum("ij,ik->jk", j, j), np.einsum("ij,i->j", j, r)


def _scatter_index(targets, offsets) -> np.ndarray:
    """The flat positions of the entries of blocks (N, ...) placed at
    targets (N,) + offsets (offsets in the block's entry order)."""
    return (targets[:, None] + offsets.reshape(-1)).reshape(-1)


def _scatter(index, blocks, size: int) -> np.ndarray:
    """The flat array of size entries that np.add.at of the entries of
    blocks (N, ...) into zeros at the flat positions index gives: one
    np.bincount, which adds each entry's contributions in input order, as
    np.add.at does."""
    if not len(index):
        return np.zeros(size)      # np.bincount of nothing is int64
    return np.bincount(index, weights=blocks.reshape(-1), minlength=size)


def _selection(mask: np.ndarray):
    """The positions where mask holds, or slice(None) where it holds everywhere."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _levenberg_marquardt(lin, point, config: SolverConfig):
    """The one LM loop; returns the final point and the report.

    lin is a linearizer over points of its own kind: residuals(point) gives
    the cost and a cache of per-row residuals, linearize(point, cache) the
    system at the point, step(system, damping) the damped step (or raises
    SingularSystem), retract(point, step) the moved point, and
    min_pose_eigenvalue(system) the conditioning diagnostic. Residuals are
    evaluated once per point. A point is linearized, from the residuals its
    cost check computed, only when an iteration steps from it: once per
    iteration, so not after the step that meets the cost or step tolerance
    or uses the last iteration. The report's min_pose_eigenvalue is that of
    the system in hand when the solve stalled, and otherwise linearizes the
    final point when first read.
    """
    lam = config.initial_damping
    report = SolverReport(termination="max_iterations")
    accepted_any = False
    cost, cache = lin.residuals(point)
    report.evaluations = 1
    report.initial_cost = cost
    system = None
    for it in range(1, config.max_iterations + 1):
        report.iterations = it
        system = None      # so that two systems are never held at once
        system = lin.linearize(point, cache)
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
        if decrease <= config.cost_tolerance * max(cost, 1e-30):
            report.termination = "cost_tolerance"
            break
        if np.max(np.abs(step)) < STEP_TOLERANCE:
            report.termination = "step_tolerance"
            break
    report.final_cost = cost
    report.final_damping = lam
    # a stalled solve ends at the point its last system was linearized at
    final_system = system if report.termination == "stalled" else None
    report.conditioning = partial(_final_conditioning, lin, point, cache, final_system)
    return point, report


def _final_conditioning(lin, point, cache, system):
    """min_pose_eigenvalue of the system at a solve's final point: the one
    given, or else the point linearized from its residuals."""
    return lin.min_pose_eigenvalue(lin.linearize(point, cache) if system is None else system)


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
    (q, t, _), report = _levenberg_marquardt(
        lin, (pose.q.tolist(), pose.t.tolist(), pose.rotation_matrix), config)
    return Pose(q, t), replace(report, **lin.size)


def solve_local_ba(problem: Problem, config: SolverConfig | None = None) -> SolverReport:
    """Window refinement; keyframes outside the window act as gauge anchors."""
    if len(problem.poses) < 2:
        raise ValueError("local BA needs at least two keyframes")
    return solve(problem, config)


def solve_global_ba(problem: Problem, config: SolverConfig | None = None) -> SolverReport:
    """Full-map refinement triggered by loop closure; first keyframe fixed."""
    return solve(problem, config)
