import math

import numpy as np
import pytest

from drslam.weighting import (
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

PARAMS = QualityParams()
BOUNDS = WeightBounds()


def test_quality_reference_counts_saturate():
    assert compute_quality(TrackingStats(600, 120), PARAMS) == pytest.approx(1.0)


def test_quality_zero_features():
    assert compute_quality(TrackingStats(0, 0), PARAMS) == 0.0


def test_quality_half():
    assert compute_quality(TrackingStats(300, 60), PARAMS) == pytest.approx(0.5)


def test_quality_clips_each_ratio_before_sum():
    assert compute_quality(TrackingStats(1200, 240), PARAMS) == pytest.approx(1.0)
    # surplus detections cannot compensate missing tracks
    assert compute_quality(TrackingStats(1200, 0), PARAMS) == pytest.approx(0.5)


def test_quality_monotone_and_bounded(rng):
    prev = -1.0
    for n_det in range(0, 1400, 25):
        q = compute_quality(TrackingStats(n_det, min(n_det, 60)), PARAMS)
        assert 0.0 <= q <= 1.0
        assert q >= prev - 1e-15
        prev = q
    for _ in range(200):
        n_det = int(rng.integers(0, 2000))
        n_trk = int(rng.integers(0, n_det + 1))
        q = compute_quality(TrackingStats(n_det, n_trk), PARAMS)
        q_more = compute_quality(TrackingStats(n_det + 10, n_trk), PARAMS)
        assert 0.0 <= q <= 1.0
        assert q_more >= q - 1e-15


def test_stats_validation():
    with pytest.raises(ValueError):
        TrackingStats(5, 6)
    with pytest.raises(ValueError):
        TrackingStats(-1, 0)


def test_dr_weight_at_bounds():
    assert dr_weight(1.0, BOUNDS) == pytest.approx(0.1)
    assert dr_weight(0.0, BOUNDS) == pytest.approx(1000.0)
    assert dr_weight(0.5, BOUNDS) == pytest.approx(10.0)


def test_dr_weight_log_affine():
    qs = np.linspace(0, 1, 11)
    logs = np.log([dr_weight(q, BOUNDS) for q in qs])
    coeffs = np.polyfit(qs, logs, 1)
    residual = logs - np.polyval(coeffs, qs)
    assert np.max(np.abs(residual)) < 1e-12


def test_dr_weight_strictly_decreasing():
    qs = np.linspace(0, 1, 101)
    alphas = [dr_weight(q, BOUNDS) for q in qs]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_scale_information_identity_and_arithmetic():
    nominal = NominalDrInformation()
    assert np.allclose(scale_information(1.0, nominal), nominal.precision())
    scaled = scale_information(10.0, nominal)
    assert scaled[0] == pytest.approx(625000.0)
    assert nominal.precision()[0] == pytest.approx(62500.0)


def test_scale_information_scales_eigenvalues():
    nominal = NominalDrInformation()
    base = np.linalg.eigvalsh(np.diag(nominal.precision()))
    scaled = np.linalg.eigvalsh(np.diag(scale_information(0.1, nominal)))
    assert np.allclose(scaled, 0.1 * base)


def test_scale_information_positive_definite(rng):
    nominal = NominalDrInformation()
    for _ in range(50):
        alpha = 10.0 ** rng.uniform(-3, 4)
        eig = np.linalg.eigvalsh(np.diag(scale_information(alpha, nominal)))
        assert eig.min() > 0


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
def test_scale_information_rejects_a_weight_not_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="finite and positive"):
        scale_information(alpha, NominalDrInformation())


def test_keyframe_quality():
    assert keyframe_quality(20, 20) == pytest.approx(1.0)
    assert keyframe_quality(40, 20) == pytest.approx(1.0)
    assert keyframe_quality(5, 20) == pytest.approx(0.25)
    for c in range(0, 100, 7):
        assert 0.0 <= keyframe_quality(c, 20) <= 1.0


def test_update_c_ref():
    assert update_c_ref([], previous=20.0) == 20.0
    assert update_c_ref([(0.9, 10), (1.0, 20), (0.85, 30)], previous=20.0) == 20.0
    assert update_c_ref([(0.9, 10), (1.0, 20), (0.85, 30), (0.95, 40)], previous=20.0) == 25.0
    # poorly tracked keyframes are excluded from the median
    assert update_c_ref([(0.2, 100), (0.9, 14)], previous=20.0) == 14.0
    assert update_c_ref([(0.2, 100), (0.3, 1)], previous=17.0) == 17.0


def test_smoothing_uniform_fixed_point():
    raw = [(i, 0.1) for i in range(6)]
    assert smooth_window_weights(raw, halfwidth=2) == [(i, pytest.approx(0.1)) for i in range(6)]


def test_smoothing_single_spike_linear_kernel():
    raw = [(i, 0.1) for i in range(7)]
    raw[3] = (3, 1000.0)
    out = dict(smooth_window_weights(raw, halfwidth=2))
    assert out[3] == pytest.approx(1000.0)
    assert out[2] == pytest.approx(2000.0 / 3.0)
    assert out[4] == pytest.approx(2000.0 / 3.0)
    assert out[1] == pytest.approx(1000.0 / 3.0)
    assert out[5] == pytest.approx(1000.0 / 3.0)
    assert out[0] == pytest.approx(0.1)
    assert out[6] == pytest.approx(0.1)


def test_smoothing_spike_at_edge_one_sided():
    raw = [(10, 1000.0), (11, 0.1), (12, 0.1), (13, 0.1)]
    out = dict(smooth_window_weights(raw, halfwidth=2))
    assert out[10] == pytest.approx(1000.0)
    assert out[11] == pytest.approx(2000.0 / 3.0)
    assert out[12] == pytest.approx(1000.0 / 3.0)
    assert out[13] == pytest.approx(0.1)
    assert set(out) == {10, 11, 12, 13}


def test_smoothing_never_decreases_local_maximum(rng):
    for _ in range(100):
        n = int(rng.integers(3, 12))
        raw = [(i, float(10.0 ** rng.uniform(-1, 3))) for i in range(n)]
        out = dict(smooth_window_weights(raw, halfwidth=2))
        k_max = max(raw, key=lambda e: e[1])[0]
        raw_max = dict(raw)[k_max]
        assert out[k_max] >= raw_max - 1e-12
        for i, a in raw:
            assert out[i] >= a - 1e-12 or any(
                abs(i - j) <= 2 and dict(raw)[j] > a for j, _ in raw
            )


def test_weight_bounds_validation():
    with pytest.raises(ValueError):
        WeightBounds(alpha_min=2.0, alpha_max=1.0)
    with pytest.raises(ValueError):
        WeightBounds(alpha_min=0.0, alpha_max=1.0)


def test_quality_params_validation():
    with pytest.raises(ValueError):
        QualityParams(omega1=0.7, omega2=0.5)
    with pytest.raises(ValueError):
        QualityParams(n_det_ref=0)


def test_nominal_information_from_degrees():
    # the rotation sigma is kept in degrees and converted when the precision is formed
    nominal = NominalDrInformation(sigma_t=0.004, sigma_r_deg=0.1)
    p = nominal.precision()
    assert p.shape == (6,)
    assert p[0] == pytest.approx(1.0 / 0.004 ** 2)
    assert (p[3:] == 1.0 / math.radians(0.1) ** 2).all()
