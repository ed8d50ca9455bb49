import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomolyap import (
    DegenerateSeriesError,
    DerivativeSeries,
    ValidationError,
    estimate_exponent,
    harmonic_derivative_series,
    running_estimate,
)

LAMBDA_GOLDEN = 0.9624236501192069


def series_from_norms(norms):
    norms = np.asarray(norms, dtype=float)
    return DerivativeSeries(norms.astype(complex), np.zeros_like(norms, dtype=complex))


# ---------------------------------------------------------------------------
# basic behaviour
# ---------------------------------------------------------------------------


def test_exact_exponential():
    t = np.arange(201)
    est = estimate_exponent(series_from_norms(np.exp(0.5 * t)))
    assert abs(est.slope - 0.5) < 1e-12
    assert est.stderr < 1e-12
    assert est.classification == "positive"
    assert est.window == (100, 200)


def test_cubic_polynomial_growth():
    # ln(t^3 + 1) has local log-slope ~ 3/t; over the window [100, 200] the
    # least-squares slope sits at 0.0205, a hair above the 0.02 threshold, and
    # drops below it as the window grows
    norms = np.arange(421, dtype=float) ** 3 + 1.0
    mid = estimate_exponent(series_from_norms(norms[:201]))
    assert mid.window == (100, 200)
    assert 0.018 < mid.slope < 0.022
    late = estimate_exponent(series_from_norms(norms))
    assert late.window == (210, 420)
    assert late.classification == "zero"
    assert late.slope < mid.slope


def test_harmonic_pipeline_z5():
    series = harmonic_derivative_series(5.0, 200)
    est = estimate_exponent(series)
    assert abs(est.slope - LAMBDA_GOLDEN) < 1e-3
    assert est.classification == "positive"


def test_harmonic_pipeline_z2_zero():
    series = harmonic_derivative_series(2.0, 200)
    est = estimate_exponent(series)
    assert est.classification == "zero"
    lam = running_estimate(series)
    assert abs(lam[-1, 1]) < 1e-6


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    scale_re=st.floats(-5.0, 5.0),
    scale_im=st.floats(-5.0, 5.0),
)
def test_scale_invariance(scale_re, scale_im):
    scale = complex(scale_re, scale_im)
    if abs(scale) < 1e-3:
        scale = 1.7 - 0.3j
    base = harmonic_derivative_series(5.0, 64)
    scaled = DerivativeSeries(base.g2 * scale, base.g3 * scale)
    est0 = estimate_exponent(base)
    est1 = estimate_exponent(scaled)
    assert abs(est0.slope - est1.slope) < 1e-12
    assert est0.classification == est1.classification


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_direction_invariance_at_convergence(direction):
    series = harmonic_derivative_series(5.0, 200, *direction)
    est = estimate_exponent(series)
    assert abs(est.slope - LAMBDA_GOLDEN) < 1e-3


@settings(max_examples=20, deadline=None)
@given(radius=st.floats(1.1, 5.0), angle=st.floats(0.1, 1.4))
def test_matrix_power_sequence_recovers_spectral_radius(radius, angle):
    # transported vector under powers of a rotated diag(r, 1/r) matrix
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    mat = rot @ np.diag([radius, 1.0 / radius]) @ rot.T
    vec = np.array([1.0, 1.0])
    g2, g3 = np.empty(201, dtype=complex), np.empty(201, dtype=complex)
    for t in range(201):
        g2[t], g3[t] = vec
        vec = mat @ vec
    est = estimate_exponent(DerivativeSeries(g2, g3))
    assert abs(est.slope - np.log(radius)) < 1e-3


# ---------------------------------------------------------------------------
# running estimate
# ---------------------------------------------------------------------------


def test_running_estimate_constant_for_exponential():
    t = np.arange(101)
    rows = running_estimate(series_from_norms(np.exp(0.5 * t)))
    assert np.max(np.abs(rows[:, 1] - 0.5)) < 1e-12
    assert rows[0, 0] == 1 and rows[-1, 0] == 100


def test_running_estimate_decays_for_polynomial():
    t = np.arange(1, 402, dtype=float)
    rows = running_estimate(series_from_norms(t**3))
    lam = rows[:, 1]
    # two-point tail rate of t^3: 3 ln(t/t0)/(t - t0) with t0 = t//2
    late = rows[rows[:, 0] >= 100]
    expect = 3.0 * np.log(late[:, 0] / (late[:, 0] // 2 + 1)) / (late[:, 0] - late[:, 0] // 2)
    assert np.max(np.abs(late[:, 1] - expect)) < 0.05
    assert lam[-1] < lam[len(lam) // 2] < lam[len(lam) // 8]
    assert lam[-1] < 0.03


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_short_series_rejected():
    with pytest.raises(ValidationError):
        estimate_exponent(series_from_norms(np.ones(8)))


def test_all_zero_series_rejected():
    with pytest.raises(DegenerateSeriesError):
        estimate_exponent(series_from_norms(np.zeros(32)))


def test_zero_norm_inside_window_rejected():
    norms = np.ones(64)
    norms[50] = 0.0
    with pytest.raises(DegenerateSeriesError):
        estimate_exponent(series_from_norms(norms))


@pytest.mark.parametrize("g2, g3", [(np.ones(4), np.ones(5)), (np.ones((2, 2)), np.ones((2, 2)))],
                         ids=["unequal-length", "two-d"])
def test_mismatched_derivative_series_is_a_validation_error(g2, g3):
    # a typed error, so the CLI exits 3 instead of printing a traceback
    with pytest.raises(ValidationError, match="equal length"):
        DerivativeSeries(g2, g3)


def test_running_estimate_needs_four_points():
    with pytest.raises(ValidationError):
        running_estimate(series_from_norms(np.ones(3)))


def test_running_estimate_zero_reference_rejected():
    norms = np.ones(16)
    norms[0] = 0.0
    with pytest.raises(DegenerateSeriesError):
        running_estimate(series_from_norms(norms))
