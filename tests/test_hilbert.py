import tracemalloc

import numpy as np
import pytest
from scipy.special import jv

import tomolyap.hilbert as hilbert
from tomolyap import (NumericalError, StandardMapParams, ValidationError, quantum_probes,
                      run_standard_map)
from oracles import bessel_brute_force_probes, floquet_probes

BASE_POINTS = {
    "origin": dict(gamma=1.0, hbar=1.0),
    "generic": dict(gamma=0.7, hbar=1.3, q0=0.4, p0=0.9, v1=0.6, v2=-1.1),
}


@pytest.mark.parametrize("point", sorted(BASE_POINTS))
def test_matches_bessel_dictionary_lattice(point):
    params = StandardMapParams(**BASE_POINTS[point])
    ref = bessel_brute_force_probes(params.gamma, params.hbar, params.tau, 12,
                                    v1=params.v1, v2=params.v2, q0=params.q0, p0=params.p0)
    np.testing.assert_allclose(quantum_probes(params, 12), ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("point", sorted(BASE_POINTS))
def test_matches_dense_floquet_oracle_at_n_200(point):
    # second route: dense Floquet matrices, d/dp0 by finite differences
    params = StandardMapParams(**BASE_POINTS[point])
    ref = floquet_probes(params.gamma, params.hbar, params.tau, 200,
                         v1=params.v1, v2=params.v2, q0=params.q0, p0=params.p0)
    np.testing.assert_allclose(quantum_probes(params, 200), ref, rtol=0,
                               atol=1e-8 * np.abs(ref).max())


@pytest.mark.parametrize("point, larger", [("origin", (512, 40)), ("generic", (256, 44))])
def test_grown_grid_matches_a_larger_fixed_grid(point, larger, monkeypatch):
    params = StandardMapParams(**BASE_POINTS[point])
    grids = []
    evolve = hilbert._evolve

    def spy(params, n_max, n_points, s):
        grids.append((n_points, s))
        return evolve(params, n_max, n_points, s)

    monkeypatch.setattr(hilbert, "_evolve", spy)
    got = quantum_probes(params, 200)[:, 0]
    # the first grid was outgrown in both the momenta and the m-sum
    assert grids[-1][0] > grids[0][0] and grids[-1][1] > grids[0][1]
    assert larger[0] > grids[-1][0] and larger[1] > grids[-1][1]
    ref, grid_leak, m_leak = evolve(params, 200, *larger)
    assert ref.size == 201 and grid_leak <= hilbert.LEAK_TOL and m_leak <= hilbert.LEAK_TOL
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9 * np.abs(ref).max())


def _trend(values):
    t = np.arange(20, values.size, dtype=float)
    return np.polyfit(t, values[20:], 1)[0]


def test_free_flight_slope_needs_a_weak_kick():
    # free flight gives G(1, tau, n) = v1 + v2 tau (n + 1), slope 1; the kick
    # splits the degenerate free momenta +-hbar m/2 by about gamma/hbar per
    # period, so the slope over 20 <= n <= 200 survives only while
    # gamma n/hbar << 1, under the exact kick and the two-term stencil alike
    weak = StandardMapParams(gamma=1e-3, hbar=1.0)
    assert 0.8 <= _trend(quantum_probes(weak, 200)[:, 0].real) <= 1.2
    params = StandardMapParams(gamma=0.02, hbar=1.0)
    exact = _trend(quantum_probes(params, 200)[:, 0].real)
    stencil = _trend(run_standard_map(params, 200)[0].probe_values.real)
    assert exact < 0.8 and stencil < 0.8


def test_free_flight_closed_form():
    # at gamma = 0, G(1, tau, t) = (v1 + v2 tau (t + 1)) exp(i(q0 + p0 tau (t + 1)))
    params = StandardMapParams(gamma=0.0, hbar=0.8, tau=0.7, q0=0.4, p0=0.9, v1=0.6, v2=-1.1)
    arg = params.tau * np.arange(1, 22)
    expected = (params.v1 + params.v2 * arg) * np.exp(1j * (params.q0 + params.p0 * arg))
    got = quantum_probes(params, 20)
    np.testing.assert_allclose(got[:, 0], expected, rtol=1e-12)
    np.testing.assert_allclose(got[:, 1], -expected.conj(), rtol=1e-12)


@pytest.mark.parametrize("kw, n_max", [(dict(gamma=1.0, hbar=0.0), 10),
                                       (dict(gamma=1.0, hbar=1.0), 0)])
def test_invalid_input_raises(kw, n_max):
    with pytest.raises(ValidationError):
        quantum_probes(StandardMapParams(**kw), n_max)


@pytest.mark.parametrize("gamma, hbar", [(1.0, 1e-310), (1e300, 1e-10)])
def test_non_finite_kick_strength_raises_validation_error(gamma, hbar):
    # gamma/hbar overflows to inf while both inputs are finite and valid
    with pytest.raises(ValidationError, match="gamma/hbar"):
        quantum_probes(StandardMapParams(gamma=gamma, hbar=hbar), 5)


def test_oversized_first_grid_raises_before_allocating():
    # one kick at gamma/hbar = 1000 already reaches ~1000 momenta each way
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="ceiling"):
            quantum_probes(StandardMapParams(gamma=1e3, hbar=1.0), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2


def test_kick_reach_equals_a_bessel_scan():
    rng = np.random.default_rng(3)
    xs = np.concatenate([np.linspace(0.05, 300.0, 1500), rng.uniform(-300.0, 300.0, 1000),
                         10.0 ** rng.uniform(-9.0, -1.0, 100), np.arange(0.0, 301.0)])
    for x in xs:
        m = int(abs(x)) + 1
        while abs(jv(m, x)) >= hilbert.LEAK_TOL:
            m += 1
        assert hilbert._kick_reach(x) == m, x


def test_kick_too_strong_for_any_grid_skips_the_reach(monkeypatch):
    # the recurrence takes about gamma/hbar steps; a grid for gamma/hbar alone is already too large
    def no_reach(x):
        raise AssertionError("reach computed")

    monkeypatch.setattr(hilbert, "_kick_reach", no_reach)
    with pytest.raises(NumericalError, match="ceiling"):
        quantum_probes(StandardMapParams(gamma=1.0, hbar=1e-9), 5)


def test_resonant_spread_raises():
    # hbar tau = 4 pi makes free flight trivial: momentum spreads ballistically
    params = StandardMapParams(gamma=400.0 * np.pi, hbar=4.0 * np.pi)
    with pytest.raises(NumericalError, match="did not converge"):
        quantum_probes(params, 10)
