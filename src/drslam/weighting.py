"""Visual-health scoring and adaptive dead-reckoning weight computation.

The quality score blends the detected and map-matched feature counts against
preset targets; the DR weight interpolates between its bounds in log-space so
the information scaling covers several orders of magnitude smoothly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QualityParams:
    omega1: float = 0.5
    omega2: float = 0.5
    n_det_ref: int = 600
    n_trk_ref: int = 120

    def __post_init__(self):
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("weights must be nonnegative")
        if abs(self.omega1 + self.omega2 - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.n_det_ref <= 0 or self.n_trk_ref <= 0:
            raise ValueError("target feature counts must be positive")


@dataclass(frozen=True)
class WeightBounds:
    alpha_min: float = 1e-1
    alpha_max: float = 1e3

    def __post_init__(self):
        # dr_weight raises their ratio to a power in [0, 1], so it must be finite
        if not (0 < self.alpha_min < self.alpha_max < math.inf
                and self.alpha_max / self.alpha_min < math.inf):
            raise ValueError("require 0 < alpha_min < alpha_max < inf with a finite ratio")


@dataclass(frozen=True)
class TrackingStats:
    n_det: int
    n_trk: int

    def __post_init__(self):
        if self.n_det < 0 or self.n_trk < 0 or self.n_trk > self.n_det:
            raise ValueError("require 0 <= n_trk <= n_det")


@dataclass(frozen=True)
class NominalDrInformation:
    """Diagonal per-frame DR noise model: translation in metres, rotation in
    degrees."""

    sigma_t: float = 0.004
    sigma_r_deg: float = 0.1

    def __post_init__(self):
        if self.sigma_t <= 0 or self.sigma_r_deg <= 0:
            raise ValueError("noise standard deviations must be positive")
        try:
            precision = self.precision()
        except (ZeroDivisionError, OverflowError):   # a variance that under- or overflows
            precision = np.zeros(6)
        if not np.all((0 < precision) & (precision < math.inf)):
            raise ValueError("DR precision entries must be finite and positive")

    def precision(self) -> np.ndarray:
        """Diagonal of the information matrix (6,), translation then rotation,
        the rotation in 1/rad^2."""
        d = np.empty(6)
        d[:3] = 1.0 / self.sigma_t ** 2
        d[3:] = 1.0 / math.radians(self.sigma_r_deg) ** 2
        return d


def compute_quality(stats: TrackingStats, params: QualityParams) -> float:
    """Tracking-quality score in [0, 1]; each ratio clipped before the sum."""
    r_det = min(max(stats.n_det / params.n_det_ref, 0.0), 1.0)
    r_trk = min(max(stats.n_trk / params.n_trk_ref, 0.0), 1.0)
    return params.omega1 * r_det + params.omega2 * r_trk


def dr_weight(q: float, bounds: WeightBounds) -> float:
    """Log-space interpolation between the weight bounds; decreasing in q."""
    return bounds.alpha_min * (bounds.alpha_max / bounds.alpha_min) ** (1.0 - q)


def scale_information(alpha: float, nominal: NominalDrInformation) -> np.ndarray:
    """DR precision (6,) of an edge at weight alpha: alpha times the nominal
    precision. The one scaling rule of tracking, local BA, global BA and the
    loop edge; the solver whitens each DR residual entry by its square root."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    return alpha * nominal.precision()


def keyframe_quality(c_ij: float, c_ref: float) -> float:
    """Covisibility-based keyframe quality, saturated to [0, 1]."""
    if c_ref <= 0:
        raise ValueError("c_ref must be positive")
    return min(max(c_ij / c_ref, 0.0), 1.0)


def update_c_ref(recent_keyframes, previous: float, q_well: float = 0.8) -> float:
    """Median connection count over well-tracked keyframes in the window.

    ``recent_keyframes`` holds (Q_t, connection count) pairs. Keyframes with
    Q_t below ``q_well`` are excluded; with nothing left the previous value is
    retained. Even-cardinality medians average the two central values.
    """
    counts = sorted(c for q, c in recent_keyframes if q >= q_well)
    if not counts:
        return previous
    n = len(counts)
    if n % 2 == 1:
        return float(counts[n // 2])
    return 0.5 * (counts[n // 2 - 1] + counts[n // 2])


def smooth_window_weights(raw, halfwidth: int = 2):
    """Distribute DR weights over neighboring keyframes in the window.

    Each entry of ``raw`` is (keyframe index, alpha) for consecutive window
    keyframes. The smoothed weight is the max over all window keyframes of
    raw alpha decayed linearly with index distance: full at distance 0, zero
    at distance ``halfwidth`` + 1. Combination by max keeps overlapping
    degraded regions from exceeding the strongest raw weight.
    """
    indices = [i for i, _ in raw]
    alphas = np.array([a for _, a in raw], dtype=float)
    out = []
    for i in indices:
        best = 0.0
        for j, a in zip(indices, alphas):
            d = abs(i - j)
            if d > halfwidth:
                continue
            decay = 1.0 - d / (halfwidth + 1.0)
            best = max(best, a * decay)
        out.append((i, best))
    return out
