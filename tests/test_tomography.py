import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.interpolate import RegularGridInterpolator

from tomolyap import (
    GaussianDensity,
    GridDensity,
    InsufficientDataError,
    InvalidDirectionError,
    Tomogram,
    UnsupportedDirectionError,
    ValidationError,
    WaveFunction,
    forward_tomogram,
    gaussian_tomogram_family,
    inverse_tomogram,
    pure_state_tomogram,
    pure_state_tomogram_family,
    tomogram_mean_position,
    wigner_from_tomogram,
)
from tomolyap.tomography import _line_quadrature_gaussian, _simpson_rows, _simpson_weights
from oracles import (
    gaussian_tomogram_values,
    ground_state,
    pure_state_tomogram_by_phase_matrix,
    tomogram_by_line_quadrature,
    tomogram_by_vertical_quadrature,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def test_forward_position_marginal_is_gaussian():
    tom = forward_tomogram(GaussianDensity(), 1.0, 0.0)
    expected = gaussian_tomogram_values(tom.x, 1.0, 0.0, GaussianDensity())
    assert np.max(np.abs(tom.values - expected)) < 1e-9
    assert abs(tom.variance() - 1.0) < 1e-8


def test_forward_diagonal_direction_variance():
    tom = forward_tomogram(GaussianDensity(), 1.0, 1.0)
    expected = gaussian_tomogram_values(tom.x, 1.0, 1.0, GaussianDensity())
    assert np.max(np.abs(tom.values - expected)) < 1e-9
    assert abs(tom.variance() - 2.0) < 1e-7
    # second, independent quadrature route for the delta-line integral
    probe_x = tom.x[::32]
    other = tomogram_by_vertical_quadrature(probe_x, 1.0, 1.0, GaussianDensity())
    assert np.max(np.abs(tom.values[::32] - other)) < 1e-8


def test_forward_shifted_mean():
    tom = forward_tomogram(GaussianDensity(mean_q=2.0, mean_p=3.0), 1.0, 1.0)
    assert abs(tom.mean() - 5.0) < 1e-8


def test_forward_zero_direction_rejected():
    with pytest.raises(InvalidDirectionError):
        forward_tomogram(GaussianDensity(), 0.0, 0.0)


def test_forward_output_nonnegative():
    tom = forward_tomogram(GaussianDensity(correlation=0.7), 0.3, -1.2)
    assert tom.values.min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(
    mu=st.floats(-3.0, 3.0),
    nu=st.floats(-3.0, 3.0),
    sq=st.floats(0.5, 2.0),
    sp=st.floats(0.5, 2.0),
)
def test_forward_normalization(mu, nu, sq, sp):
    if abs(mu) + abs(nu) < 0.1:
        mu = 1.0
    tom = forward_tomogram(GaussianDensity(sigma_q=sq, sigma_p=sp), mu, nu)
    assert abs(tom.mass() - 1.0) < 1e-4


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.1, 10.0))
def test_forward_homogeneity(lam):
    density = GaussianDensity(mean_q=0.4, mean_p=-0.2, sigma_q=1.1, sigma_p=0.8)
    base = forward_tomogram(density, 0.8, 0.6)
    scaled = forward_tomogram(density, lam * 0.8, lam * 0.6, x_grid=lam * base.x)
    assert np.max(np.abs(lam * scaled.values - base.values)) < 1e-8


def test_forward_homogeneity_negative_scale():
    density = GaussianDensity(mean_q=1.0, sigma_q=1.2)
    base = forward_tomogram(density, 0.8, 0.6)
    scaled = forward_tomogram(density, -0.8, -0.6, x_grid=-base.x[::-1])
    assert np.max(np.abs(scaled.values[::-1] - base.values)) < 1e-8


@pytest.mark.parametrize("theta", [0.0, 0.9, np.pi / 2, 2.5])
def test_blocked_gaussian_line_quadrature_is_bit_equal_to_full_array(theta):
    # 257 X points: the last block of rows is ragged
    density = GaussianDensity(mean_q=0.5, mean_p=-0.4, sigma_q=1.2, sigma_p=0.85, correlation=-0.3)
    xhat = np.linspace(-7.0, 6.5, 257)
    mu_u, nu_u = np.cos(theta), np.sin(theta)
    blocked = _line_quadrature_gaussian(density, xhat, mu_u, nu_u)
    assert np.array_equal(blocked, tomogram_by_line_quadrature(density, xhat, mu_u, nu_u, 2001))


def test_gaussian_forward_tomogram_keeps_small_temporaries():
    # line-quadrature blocks of at most LINE_BLOCK_POINTS samples (64 KiB each)
    density = GaussianDensity(mean_q=0.5, mean_p=-0.4, sigma_q=1.2, sigma_p=0.85, correlation=-0.3)
    forward_tomogram(density, 0.6, 0.8)
    tracemalloc.start()
    try:
        forward_tomogram(density, 0.6, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_forward_grid_density_matches_analytic():
    q = np.linspace(-8, 8, 321)
    density = GaussianDensity()
    grid = GridDensity(q, q, density.pdf(q[:, None], q[None, :]), norm_tol=1e-4)
    tom = forward_tomogram(grid, 1.0, 1.0)
    expected = gaussian_tomogram_values(tom.x, 1.0, 1.0, density)
    assert np.max(np.abs(tom.values - expected)) < 2e-4


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------


def test_grid_density_projected_moments_equal_the_uncached_sums():
    # steps of 0.13 and 0.15: neither is a power of two
    q = np.linspace(-6.5, 6.5, 101)
    p = np.linspace(-5.0, 7.0, 81)
    density = GaussianDensity(0.4, 1.1, 1.2, 0.9, 0.3)
    grid = GridDensity(q, p, density.pdf(q[:, None], p[None, :]), norm_tol=1e-4)
    dq, dp = grid.dq, grid.dp
    mass = float(grid.values.sum() * dq * dp)
    mq = float((grid.values * q[:, None]).sum() * dq * dp) / mass
    mp = float((grid.values * p[None, :]).sum() * dq * dp) / mass
    assert grid.moments() == (mq, mp)
    for t in np.arange(16) * np.pi / 16:
        mean = np.cos(t) * mq + np.sin(t) * mp
        x = np.cos(t) * q[:, None] + np.sin(t) * p[None, :]
        var = float((grid.values * (x - mean) ** 2).sum() * dq * dp / mass)
        assert grid.projected_moments(np.cos(t), np.sin(t)) == (mean, var)


def test_integer_grid_count_of_any_integral_type():
    density = GaussianDensity(mean_q=0.3, correlation=0.2)
    by_int = forward_tomogram(density, 0.6, 0.8, x_grid=64)
    by_numpy = forward_tomogram(density, 0.6, 0.8, x_grid=np.int64(64))
    assert np.array_equal(by_numpy.x, by_int.x) and np.array_equal(by_numpy.values, by_int.values)
    # a bool is a one- or zero-point count, as before
    for count in (True, False):
        with pytest.raises(ValidationError, match="x grid must be a 1-d grid with at least 2 points"):
            forward_tomogram(density, 0.6, 0.8, x_grid=count)


def test_grid_density_rejects_negative_values():
    q = np.linspace(-5, 5, 64)
    vals = np.full((64, 64), 1e-2)
    vals[3, 5] = -1e-3
    with pytest.raises(ValidationError):
        GridDensity(q, q, vals)


def test_grid_density_rejects_unnormalized():
    q = np.linspace(-5, 5, 64)
    vals = np.full((64, 64), 1.0)
    with pytest.raises(ValidationError):
        GridDensity(q, q, vals)


def test_tomogram_rejects_zero_direction():
    x = np.linspace(-5, 5, 64)
    vals = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
    with pytest.raises(InvalidDirectionError):
        Tomogram(x, vals, 0.0, 0.0)


def test_gaussian_density_parameter_validation():
    with pytest.raises(ValidationError):
        GaussianDensity(sigma_q=-1.0)
    with pytest.raises(ValidationError):
        GaussianDensity(correlation=1.0)


@pytest.mark.parametrize("field", ["mean_q", "mean_p", "sigma_q", "sigma_p", "correlation"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gaussian_density_rejects_non_finite(field, bad):
    with pytest.raises(ValidationError):
        GaussianDensity(**{field: bad})


@pytest.mark.parametrize("hbar", [np.nan, np.inf])
def test_wave_function_rejects_non_finite_hbar(hbar):
    psi = ground_state()
    with pytest.raises(ValidationError):
        WaveFunction(psi.y, psi.psi, hbar=hbar)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_wave_function_rejects_non_finite_samples(bad):
    psi = ground_state()
    samples = psi.psi.copy()
    samples[samples.size // 2] = bad
    with pytest.raises(ValidationError):
        WaveFunction(psi.y, samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wave_function_rejects_non_finite_grid(bad):
    psi = ground_state()
    y = psi.y.copy()
    y[-1] = bad
    with pytest.raises(ValidationError):
        WaveFunction(y, psi.psi)


def test_tomogram_rejects_non_finite_values_and_directions():
    x = np.linspace(-5, 5, 64)
    vals = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
    for bad in (np.nan, np.inf):
        broken = vals.copy()
        broken[10] = bad
        with pytest.raises(ValidationError):
            Tomogram(x, broken, 1.0, 0.0)
        with pytest.raises(InvalidDirectionError):
            Tomogram(x, vals, bad, 0.0)
        with pytest.raises(InvalidDirectionError):
            Tomogram(x, vals, 1.0, -bad)


def test_grid_density_rejects_non_finite_values():
    q = np.linspace(-5, 5, 64)
    vals = np.full((64, 64), 1.0 / (q[-1] - q[0]) ** 2)
    vals[7, 9] = np.nan
    with pytest.raises(ValidationError):
        GridDensity(q, q, vals)


@pytest.mark.parametrize("mu, nu", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5)])
def test_tomogram_builders_reject_non_finite_directions(mu, nu):
    with pytest.raises(InvalidDirectionError):
        forward_tomogram(GaussianDensity(), mu, nu)
    with pytest.raises(InvalidDirectionError):
        pure_state_tomogram(ground_state(), mu, nu)


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------


def test_inverse_roundtrip_standard_gaussian():
    density = GaussianDensity()
    family = gaussian_tomogram_family(density, 64)
    recon = inverse_tomogram(family)
    exact = density.pdf(recon.q[:, None], recon.p[None, :])
    assert np.max(np.abs(recon.values - exact)) < 1e-2 * exact.max()
    assert abs(recon.mass() - 1.0) < 1e-2


def test_inverse_symmetric_density_gives_symmetric_reconstruction():
    family = gaussian_tomogram_family(GaussianDensity(sigma_q=1.3, sigma_p=0.7), 64)
    recon = inverse_tomogram(family)
    flipped = recon.values[::-1, ::-1]
    assert np.max(np.abs(recon.values - flipped)) < 1e-6


def test_inverse_recovers_shifted_mean():
    family = gaussian_tomogram_family(GaussianDensity(mean_q=2.0, mean_p=3.0), 64)
    recon = inverse_tomogram(family)
    mq, mp = recon.moments()
    assert abs(mq - 2.0) < 1e-2
    assert abs(mp - 3.0) < 1e-2


def test_inverse_requires_32_directions():
    family = gaussian_tomogram_family(GaussianDensity(), 16)
    with pytest.raises(InsufficientDataError):
        inverse_tomogram(family)


def test_inverse_requires_common_grid():
    density = GaussianDensity()
    family = gaussian_tomogram_family(density, 32)
    odd = forward_tomogram(density, 1.0, 0.0, x_grid=np.linspace(-9, 9, 256))
    with pytest.raises(ValidationError):
        inverse_tomogram([odd] + family[1:])


def test_inverse_requires_equal_spacing():
    density = GaussianDensity()
    family = gaussian_tomogram_family(density, 32)
    x = family[0].x
    bad = forward_tomogram(density, np.cos(0.4), np.sin(0.4), x_grid=x)
    with pytest.raises(ValidationError):
        inverse_tomogram([bad] + family[1:])


# ---------------------------------------------------------------------------
# Wigner reconstruction
# ---------------------------------------------------------------------------


def test_wigner_ground_state_positive_gaussian():
    family = pure_state_tomogram_family(ground_state(), 64)
    wig = wigner_from_tomogram(family)
    peak = wig.values.max()
    # ground-state Wigner function: (1/pi) exp(-q^2 - p^2)
    exact = np.exp(-(wig.q[:, None] ** 2) - wig.p[None, :] ** 2) / np.pi
    assert np.max(np.abs(wig.values - exact)) < 1e-2 * exact.max()
    assert wig.values.min() > -1e-3 * peak
    i, j = np.unravel_index(np.argmax(wig.values), wig.values.shape)
    assert abs(wig.q[i]) <= wig.dq and abs(wig.p[j]) <= wig.dp


def test_wigner_mass_is_one():
    family = pure_state_tomogram_family(ground_state(), 64)
    wig = wigner_from_tomogram(family)
    assert abs(wig.mass() - 1.0) < 1e-2


def test_wigner_coherent_state_peaks_at_displacement():
    family = pure_state_tomogram_family(ground_state(shift_q=1.5, shift_p=-1.0), 64)
    wig = wigner_from_tomogram(family)
    i, j = np.unravel_index(np.argmax(wig.values), wig.values.shape)
    assert abs(wig.q[i] - 1.5) <= wig.dq
    assert abs(wig.p[j] + 1.0) <= wig.dp


# ---------------------------------------------------------------------------
# pure-state tomograms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.2, np.pi / 2, 2.0, 2.8])
def test_pure_state_ground_variance_half(theta):
    tom = pure_state_tomogram(ground_state(), np.cos(theta), np.sin(theta))
    assert abs(tom.mass() - 1.0) < 1e-4
    assert abs(tom.variance() - 0.5) < 1e-6


def test_pure_state_superposition_normalized():
    base = ground_state()
    psi = base.psi * (1.0 + 0.5 * base.y + 0.2j * base.y**2)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * base.dy)
    wf = WaveFunction(base.y, psi)
    tom = pure_state_tomogram(wf, np.cos(1.1), np.sin(1.1))
    assert abs(tom.mass() - 1.0) < 1e-4
    assert tom.values.min() >= -1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 5000, 5001])
def test_simpson_weights_match_scipy(n):
    y = np.linspace(-1.0, 2.0, n)
    f = np.exp(-y * y) * (1.0 + 0.3 * y) + 0.2j * np.cos(3.0 * y)
    dx = y[1] - y[0]
    assert abs(_simpson_weights(n, dx) @ f - simpson(f, dx=dx)) < 1e-14


@pytest.mark.parametrize("n", [3, 5, 7, 257, 2001])
def test_simpson_rows_equal_scipy_for_odd_n(n):
    y = np.random.default_rng(n).normal(size=(9, n))
    assert np.array_equal(_simpson_rows(y, 0.037), simpson(y, dx=0.037, axis=1))


def test_grid_density_pdf_matches_regular_grid_interpolator():
    q = np.linspace(-4.0, 4.0, 81)
    p = np.linspace(-3.0, 5.0, 61)
    gaussian = GaussianDensity(mean_q=0.2, mean_p=0.5, sigma_q=1.0, sigma_p=1.2, correlation=0.3)
    grid = GridDensity(q, p, gaussian.pdf(q[:, None], p[None, :]), norm_tol=1e-2)
    rng = np.random.default_rng(3)
    # random points in and beyond the grid, every node of each edge, the
    # corners, and points one ulp beyond an edge
    edge_q = np.concatenate([q, q, np.full(p.size, q[0]), np.full(p.size, q[-1])])
    edge_p = np.concatenate([np.full(q.size, p[0]), np.full(q.size, p[-1]), p, p])
    beyond_q = [np.nextafter(q[-1], 9.0), np.nextafter(q[0], -9.0), 0.0, 0.0, 7.0, -9.0]
    beyond_p = [0.0, 0.0, np.nextafter(p[-1], 9.0), np.nextafter(p[0], -9.0), 7.0, 1.0]
    pq = np.concatenate([rng.uniform(-5.0, 5.0, 5000), edge_q, beyond_q])
    pp = np.concatenate([rng.uniform(-4.0, 6.0, 5000), edge_p, beyond_p])
    ref = RegularGridInterpolator((q, p), grid.values, bounds_error=False, fill_value=0.0)
    got = grid.pdf(pq, pp)
    assert np.max(np.abs(got - ref(np.stack([pq, pp], axis=-1)))) <= 1e-13
    assert np.all(got[-len(beyond_q):] == 0.0)
    assert got.shape == pq.shape


def test_grid_density_pdf_broadcasts_and_zeroes_non_finite_points():
    q = np.linspace(-1.0, 1.0, 21)
    level = 1.0 / (21 * 21 * 0.1 * 0.1)
    grid = GridDensity(q, q, np.full((21, 21), level))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = grid.pdf(np.array([[0.3], [np.nan], [np.inf]]), np.array([0.1, -0.2]))
    assert vals.shape == (3, 2)
    assert np.allclose(vals[0], level) and np.all(vals[1:] == 0.0)


def _phase_matrix_deviation(psi, theta, x_grid=None):
    mu, nu = np.cos(theta), np.sin(theta)
    tom = pure_state_tomogram(psi, mu, nu, x_grid=x_grid)
    ref = pure_state_tomogram_by_phase_matrix(psi, mu, nu, tom.x)
    return np.max(np.abs(tom.values - ref)) / ref.max()


@pytest.mark.parametrize("theta", [np.pi / 128, 0.7, np.pi / 2, 3.0])
def test_pure_state_matches_phase_matrix_quadrature(theta):
    # theta = pi/128 is the smallest nu of a 64-direction family, where the
    # chirp phase alpha k^2 / 2 is largest
    psi = ground_state(shift_q=0.4, shift_p=-0.3)
    assert _phase_matrix_deviation(psi, theta) < 1e-10


def test_pure_state_matches_phase_matrix_on_even_grid_and_explicit_x():
    odd = ground_state(shift_p=0.6)
    psi = WaveFunction(odd.y[:-1], odd.psi[:-1])  # the dropped tail sample is ~1e-22
    assert psi.y.size % 2 == 0
    x = np.linspace(-3.0, 4.0, 301)
    for theta in (np.pi / 128, 1.1):
        assert _phase_matrix_deviation(psi, theta, x_grid=x) < 1e-10


@pytest.mark.parametrize("theta", [0.3, 1.5, 2.6])
def test_pure_state_matches_phase_matrix_at_long_lags(theta):
    # a broad state on a long grid: amplitude at y-distances beyond half the
    # FFT length, where a wrongly wrapped chirp lag would show
    y = np.arange(-20.0, 20.0 + 0.002, 0.004)
    psi = np.exp(-((y - 0.5) ** 2) / 18.0 + 0.5j * y)
    psi = WaveFunction(y, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * (y[1] - y[0])))
    assert _phase_matrix_deviation(psi, theta) < 1e-10


def test_pure_state_rejects_under_resolved_chirp():
    # the long-lag state at the smallest nu of a 64-direction family: the
    # chirp turns by 3.3 rad per sample, which the Simpson sum cannot resolve
    y = np.arange(-20.0, 20.0 + 0.002, 0.004)
    psi = np.exp(-((y - 0.5) ** 2) / 18.0 + 0.5j * y)
    psi = WaveFunction(y, psi / np.sqrt(np.sum(np.abs(psi) ** 2) * (y[1] - y[0])))
    theta = np.pi / 128
    with pytest.raises(ValidationError, match=r"y grid \[-20, 20\] with dy = 0.004.* 3.26 rad"):
        pure_state_tomogram(psi, np.cos(theta), np.sin(theta))
    # twice the angle halves the step, below pi
    assert abs(pure_state_tomogram(psi, np.cos(2 * theta), np.sin(2 * theta)).mass() - 1) < 1e-4


@pytest.mark.parametrize("x_grid", [1, [0.5]])
def test_pure_state_rejects_single_point_x_grid(x_grid):
    with pytest.raises(ValidationError):
        pure_state_tomogram(ground_state(), 0.6, 0.8, x_grid=x_grid)


def test_pure_state_rejects_nu_zero():
    with pytest.raises(UnsupportedDirectionError):
        pure_state_tomogram(ground_state(), 1.0, 0.0)


def test_wave_function_projected_moments_match_the_pure_family_formula():
    # the window formula the pure family wrote out before it asked the state
    psi = ground_state(shift_q=0.3, shift_p=-0.2)
    my, vy = psi.position_moments()
    mp, vp = psi.momentum_moments()
    for t in (np.arange(64) + 0.5) * np.pi / 64:
        expected = (np.cos(t) * my + np.sin(t) * mp, np.cos(t) ** 2 * vy + np.sin(t) ** 2 * vp)
        assert psi.projected_moments(np.cos(t), np.sin(t)) == expected


def test_pure_family_takes_the_momentum_moments_once(monkeypatch):
    calls = []
    momentum_moments = WaveFunction.momentum_moments

    def spy(self):
        calls.append(self)
        return momentum_moments(self)

    monkeypatch.setattr(WaveFunction, "momentum_moments", spy)
    psi = ground_state()
    assert len(pure_state_tomogram_family(psi, 64)) == 64
    assert calls == [psi]


def test_pure_state_matches_forward_of_wigner_gaussian():
    # the ground state's Wigner function is the Gaussian with both spreads
    # 1/sqrt(2); the two routes to the same marginal must agree
    wigner_gaussian = GaussianDensity(sigma_q=INV_SQRT2, sigma_p=INV_SQRT2)
    for theta in (0.4, 1.0, 2.2):
        mu, nu = np.cos(theta), np.sin(theta)
        quad = pure_state_tomogram(ground_state(), mu, nu)
        line = forward_tomogram(wigner_gaussian, mu, nu, x_grid=quad.x)
        assert np.max(np.abs(quad.values - line.values)) < 1e-6


# ---------------------------------------------------------------------------
# mean position
# ---------------------------------------------------------------------------


def test_mean_position_of_shifted_gaussian():
    tom = forward_tomogram(GaussianDensity(mean_q=2.0), 1.0, 0.0)
    assert abs(tomogram_mean_position(tom) - 2.0) < 1e-6


def test_mean_position_of_symmetric_density_is_zero():
    tom = forward_tomogram(GaussianDensity(), 1.0, 0.0)
    assert abs(tomogram_mean_position(tom)) < 1e-8


def test_mean_position_of_mixture():
    q = np.linspace(-10, 14, 769)
    p = np.linspace(-8, 8, 2049)
    left = GaussianDensity(mean_q=-1.0)
    right = GaussianDensity(mean_q=3.0)
    vals = 0.5 * left.pdf(q[:, None], p[None, :]) + 0.5 * right.pdf(q[:, None], p[None, :])
    mixture = GridDensity(q, p, vals, norm_tol=1e-4)
    # align the tomogram grid with the density's q grid so the line
    # interpolation is exact at the nodes
    tom = forward_tomogram(mixture, 1.0, 0.0, x_grid=q)
    assert abs(tomogram_mean_position(tom) - 1.0) < 1e-6


@pytest.mark.parametrize("n", [255, 256])
def test_tomogram_moments_match_scipy_simpson(n):
    # a profile that does not vanish at the ends, where quadrature rules differ
    x = np.linspace(-1.0, 2.0, n)
    w = np.exp(-x * x) * (1.0 + 0.3 * x) + 0.2
    w /= simpson(w, dx=x[1] - x[0])
    tom = Tomogram(x, w, 1.0, 0.0)
    dx = tom.dx
    mass = simpson(w, dx=dx)
    mean = simpson(w * x, dx=dx) / mass
    variance = simpson(w * (x - mean) ** 2, dx=dx) / mass
    for got, want in ((tom.mass(), mass), (tom.mean(), mean), (tom.variance(), variance),
                      (tomogram_mean_position(tom), simpson(w * x, dx=dx))):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_mean_position_requires_position_direction():
    tom = forward_tomogram(GaussianDensity(), 1.0, 1.0)
    with pytest.raises(InvalidDirectionError):
        tomogram_mean_position(tom)
