import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tomolyap.oracle as oracle
from tomolyap import (
    CatVariant,
    KickedMapSpec,
    NumericalError,
    ValidationError,
    tangent_map_lyapunov,
)
from tomolyap.oracle import CatMap, HarmonicKick, StandardMap

from oracles import tangent_map_lyapunov_by_steps

LAMBDA_GOLDEN = 0.9624236501192069


# ---------------------------------------------------------------------------
# monodromy matrices
# ---------------------------------------------------------------------------


def fixed_point_jacobian(spec):
    """The spec's per-period tangent matrix, after checking that `step` fixes its initial point."""
    state = np.asarray(spec.initial, dtype=float)
    delta = spec.step(state) - state
    if isinstance(spec, StandardMap):
        # position lives on the circle
        delta[0] = (delta[0] + np.pi) % (2.0 * np.pi) - np.pi
    assert np.max(np.abs(delta)) <= 1e-12
    return spec.jacobian(state)


def test_standard_map_hyperbolic_monodromy():
    spec = KickedMapSpec.standard_map(1.0)
    mono = fixed_point_jacobian(spec)
    assert np.max(np.abs(mono - np.array([[2.0, 1.0], [1.0, 1.0]]))) < 1e-14


def test_standard_map_elliptic_monodromy_trace():
    spec = KickedMapSpec.standard_map(1.0, q0=np.pi)
    mono = fixed_point_jacobian(spec)
    assert abs(np.trace(mono) - 1.0) < 1e-12


def test_harmonic_monodromy_matches_floquet_matrix():
    spec = KickedMapSpec.harmonic_kick(5.0)
    mono = fixed_point_jacobian(spec)
    assert np.max(np.abs(mono - np.array([[1.0, 1.0], [-5.0, -4.0]]))) < 1e-14


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(-4.0, 4.0), tau=st.floats(0.2, 3.0), q=st.floats(0.0, 6.28))
def test_standard_map_jacobian_is_area_preserving(gamma, tau, q):
    spec = KickedMapSpec.standard_map(gamma, tau)
    jac = spec.jacobian(np.array([q, 0.3]))
    assert abs(np.linalg.det(jac) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(z=st.floats(-10.0, 10.0))
def test_harmonic_jacobian_is_area_preserving(z):
    spec = KickedMapSpec.harmonic_kick(z)
    jac = spec.jacobian(np.zeros(2))
    assert abs(np.linalg.det(jac) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# tangent-map exponents
# ---------------------------------------------------------------------------


def test_standard_map_hyperbolic_exponent():
    spec = KickedMapSpec.standard_map(1.0)
    lam = tangent_map_lyapunov(spec, 10_000)
    assert abs(lam - LAMBDA_GOLDEN) < 1e-6


def test_standard_map_elliptic_exponent_vanishes():
    spec = KickedMapSpec.standard_map(1.0, q0=np.pi)
    lam = tangent_map_lyapunov(spec, 10_000)
    assert abs(lam) < 1e-3


def test_harmonic_exponent():
    spec = KickedMapSpec.harmonic_kick(5.0)
    lam = tangent_map_lyapunov(spec, 10_000)
    assert abs(lam - LAMBDA_GOLDEN) < 1e-6


def test_cat_kick_only_exponent():
    spec = KickedMapSpec.cat_map(CatVariant.KICK_ONLY)
    lam = tangent_map_lyapunov(spec, 2_000)
    assert abs(lam - LAMBDA_GOLDEN) < 1e-6


@pytest.mark.parametrize("v", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.4, 0.9)])
def test_exponent_invariant_under_generic_tangent_direction(v):
    spec = KickedMapSpec.standard_map(1.0)
    lam = tangent_map_lyapunov(spec, 4_000, v=np.array(v))
    assert abs(lam - LAMBDA_GOLDEN) < 2e-3


def test_overflowing_trajectory_raises():
    spec = KickedMapSpec.harmonic_kick(1e8, q0=1.0)
    with pytest.raises(NumericalError):
        tangent_map_lyapunov(spec, 1_000)


# ---------------------------------------------------------------------------
# scalar loops against the numpy step loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    KickedMapSpec.standard_map(1.0),
    KickedMapSpec.standard_map(1.0, q0=np.pi),
    KickedMapSpec.standard_map(1.0, tau=0.5),
    KickedMapSpec.harmonic_kick(5.0),
    KickedMapSpec.cat_map(CatVariant.H2),
    KickedMapSpec.cat_map(CatVariant.KICK_ONLY),
], ids=["standard-0", "standard-pi", "standard-tau0.5", "harmonic", "cat-h2", "cat-kick-only"])
@pytest.mark.parametrize("n", [2_000, 10_000])
def test_scalar_loops_equal_step_loop_at_fixed_points(spec, n):
    assert tangent_map_lyapunov(spec, n) == tangent_map_lyapunov_by_steps(spec, n)


@pytest.mark.parametrize("n", [1_000, 2_000, 10_000])
def test_cat_h1_loop_within_roundoff_of_step_loop(n):
    # the h1 stretch keeps changing, so the fused multiply-adds of numpy's
    # norm leave last-bit differences that do not cancel
    spec = KickedMapSpec.cat_map(CatVariant.H1)
    lam, ref = tangent_map_lyapunov(spec, n), tangent_map_lyapunov_by_steps(spec, n)
    assert abs(lam - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("spec", [
    KickedMapSpec.standard_map(1.0, q0=0.7, p0=0.2),
    KickedMapSpec.standard_map(3.0, q0=1.3),
    KickedMapSpec.standard_map(2.0, tau=0.5, q0=0.7, p0=0.2),
], ids=["gamma1", "gamma3", "tau0.5"])
@pytest.mark.parametrize("v", [None, (0.6, 0.8)])
def test_scalar_loops_match_step_loop_on_chaotic_orbits(spec, v):
    for n in (2_000, 10_000):
        lam, ref = tangent_map_lyapunov(spec, n, v=v), tangent_map_lyapunov_by_steps(spec, n, v=v)
        assert abs(lam - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("spec", [
    KickedMapSpec.standard_map(1.0, tau=0.5, q0=0.7, p0=0.2),
    KickedMapSpec.harmonic_kick(1.5, q0=0.3, p0=0.1),
], ids=["standard-tau0.5", "harmonic-elliptic"])
def test_scalar_loops_match_step_loop_on_regular_orbits(spec):
    # the exponent tends to 0 here, so the bound is absolute
    for n in (2_000, 10_000):
        assert abs(tangent_map_lyapunov(spec, n) - tangent_map_lyapunov_by_steps(spec, n)) <= 1e-14


@pytest.mark.parametrize("spec", [
    KickedMapSpec.harmonic_kick(5.0, q0=0.1),
    KickedMapSpec.harmonic_kick(1e8, q0=1.0),
    KickedMapSpec.standard_map(1e300, q0=1.0),
    CatMap(CatVariant.H1, initial=(1e300, 0.0, 0.0, 1e300)),
], ids=["harmonic-738", "harmonic-huge-z", "standard-huge-gamma", "cat-huge-state"])
def test_scalar_loops_fail_as_step_loop(spec):
    with pytest.raises(NumericalError) as ref:
        tangent_map_lyapunov_by_steps(spec, 2_000)
    with pytest.raises(NumericalError) as got:
        tangent_map_lyapunov(spec, 2_000)
    assert str(got.value) == str(ref.value)


def test_tangent_vector_validation():
    spec = KickedMapSpec.standard_map(1.0)
    with pytest.raises(ValidationError):
        tangent_map_lyapunov(spec, 50)
    with pytest.raises(ValidationError):
        tangent_map_lyapunov(spec, 200, v=np.zeros(2))
    with pytest.raises(ValidationError):
        tangent_map_lyapunov(spec, 200, v=np.ones(3))


@pytest.mark.parametrize("build, name", [
    (lambda: KickedMapSpec.standard_map(np.nan), "gamma"),
    (lambda: KickedMapSpec.standard_map(1.0, tau=np.inf), "tau"),
    (lambda: KickedMapSpec.standard_map(1.0, q0=np.nan), "initial"),
    (lambda: KickedMapSpec.harmonic_kick(np.inf), "z"),
    (lambda: KickedMapSpec.harmonic_kick(5.0, p0=-np.inf), "initial"),
    (lambda: StandardMap(gamma=-np.inf), "gamma"),
    (lambda: HarmonicKick(z=np.nan), "z"),
], ids=["standard-gamma", "standard-tau", "standard-q0", "harmonic-z", "harmonic-p0",
        "spec-gamma", "spec-z"])
def test_non_finite_spec_parameters_rejected(build, name):
    with pytest.raises(ValidationError, match=name):
        build()


def test_cat_flow_built_once_and_read_only(monkeypatch):
    calls = []
    build = oracle.floquet_lambda

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(oracle, "floquet_lambda", spy)
    spec = KickedMapSpec.cat_map(CatVariant.H1)
    tangent_map_lyapunov(spec, 1_000)
    assert len(calls) == 1
    jac = spec.jacobian(np.zeros(4))
    assert not jac.flags.writeable
    with pytest.raises(ValueError):
        jac[0, 0] = 0.0


def test_each_map_holds_only_the_parameters_it_reads():
    maps = {"standard": KickedMapSpec.standard_map(1.0),
            "harmonic": KickedMapSpec.harmonic_kick(5.0),
            "cat": KickedMapSpec.cat_map(CatVariant.H1)}
    assert {name: [f.name for f in dataclasses.fields(spec)] for name, spec in maps.items()} == {
        "standard": ["gamma", "tau", "q0", "p0"],
        "harmonic": ["z", "q0", "p0"],
        "cat": ["variant", "initial"],
    }
