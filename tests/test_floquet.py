from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tomolyap import (
    CatVariant,
    QuadraticModel,
    ValidationError,
    build_cat_model,
    cat_lyapunov,
    floquet_lambda,
    harmonic_derivative_series,
    harmonic_floquet_eigenvalues,
    harmonic_kick_recurrence,
    harmonic_lyapunov,
    propagate_tomogram_params,
)
from tomolyap.floquet import (
    GOLDEN_RATIO,
    _expm,
    directional_derivatives_vanish,
    harmonic_floquet_matrix,
    kick_only_inverse_block,
    symplectic_form,
    verify_quadratic_deformation_vanishes,
)

# frozen from the closed form ln((3 + sqrt 5)/2) = 2 ln((1 + sqrt 5)/2)
LAMBDA_GOLDEN = 0.9624236501192069
# frozen from the eigen-decomposition of exp(S B0) exp(S Bk) for each model
LAMBDA_H1 = 0.9624236501192073
LAMBDA_H2 = 1.6180339887498953


# ---------------------------------------------------------------------------
# harmonic kick recurrence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [
    lambda z: harmonic_kick_recurrence(z, 3),
    lambda z: harmonic_derivative_series(z, 3),
    harmonic_lyapunov,
], ids=["recurrence", "series", "lyapunov"])
def test_harmonic_entry_points_reject_non_finite_z(entry, z):
    with pytest.raises(ValidationError, match="z must be finite"):
        entry(z)


def test_recurrence_zero_kick_is_free_motion():
    state = harmonic_kick_recurrence(0.0, 9)
    assert state.a == 1.0 + 0.0j
    assert state.b == 1.0j


def test_recurrence_single_kick_z5():
    state = harmonic_kick_recurrence(5.0, 1)
    assert abs(state.a - (6.0 + 5.0j)) < 1e-12
    assert abs(state.b - (-5.0 - 4.0j)) < 1e-12


def test_recurrence_wronskian_conserved_long_run():
    # hyperbolic growth reaches |a||b| ~ 5e41 at n = 50, so conservation can
    # only be stated relative to the state magnitude in double precision
    state = harmonic_kick_recurrence(5.0, 50)
    scale = abs(state.a) * abs(state.b)
    assert abs(state.wronskian() - 1.0) < 1e-12 * scale
    # in the bounded (elliptic) regime the absolute statement holds
    elliptic = harmonic_kick_recurrence(2.0, 50)
    assert abs(elliptic.wronskian() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(z=st.floats(-10.0, 10.0), n=st.integers(0, 60))
def test_recurrence_wronskian_property(z, n):
    state = harmonic_kick_recurrence(z, n)
    scale = max(1.0, abs(state.a), abs(state.b))
    assert abs(state.wronskian() - 1.0) < 1e-9 * scale**2


# ---------------------------------------------------------------------------
# harmonic Floquet eigenvalues and exponent
# ---------------------------------------------------------------------------


def test_eigenvalues_free_case():
    lam0, lam1 = harmonic_floquet_eigenvalues(0.0)
    assert lam0 == 1.0 and lam1 == 1.0


def test_eigenvalues_z5():
    lam0, lam1 = harmonic_floquet_eigenvalues(5.0)
    assert abs(lam0 - (-0.3819660112501051)) < 1e-12
    assert abs(lam1 - (-2.618033988749895)) < 1e-12


def test_eigenvalues_elliptic_unit_modulus():
    lam0, lam1 = harmonic_floquet_eigenvalues(2.0)
    assert abs(abs(lam0) - 1.0) < 1e-12
    assert abs(abs(lam1) - 1.0) < 1e-12
    assert abs(lam0.imag) > 0.1


@settings(max_examples=50, deadline=None)
@given(z=st.floats(-20.0, 20.0))
def test_eigenvalue_product_is_one(z):
    lam0, lam1 = harmonic_floquet_eigenvalues(z)
    assert abs(lam0 * lam1 - 1.0) < 1e-10 * max(1.0, abs(lam0) ** 2)


@pytest.mark.parametrize("z", [0.5, 2.0, 4.5, 5.0, 8.0])
def test_lyapunov_matches_eigen_decomposition(z):
    radius = np.max(np.abs(np.linalg.eigvals(harmonic_floquet_matrix(z))))
    assert abs(harmonic_lyapunov(z) - max(np.log(radius), 0.0)) < 1e-12


def test_lyapunov_values():
    assert harmonic_lyapunov(2.0) == 0.0
    assert abs(harmonic_lyapunov(5.0) - LAMBDA_GOLDEN) < 1e-12
    assert abs(harmonic_lyapunov(8.0) - np.log(3.0 + 2.0 * np.sqrt(2.0))) < 1e-12


def test_derivative_series_initial_direction():
    series = harmonic_derivative_series(5.0, 16, v1=0.3, v2=-1.2)
    assert series.g2[0] == 0.3
    assert series.g3[0] == -1.2


# ---------------------------------------------------------------------------
# cat models
# ---------------------------------------------------------------------------


def test_h1_matrix_entries():
    model = build_cat_model(CatVariant.H1)
    b0_expected = np.zeros((4, 4))
    b0_expected[0, 0] = b0_expected[1, 1] = 1.0
    b0_expected[0, 3] = b0_expected[3, 0] = 1.0
    bk_expected = np.zeros((4, 4))
    bk_expected[1, 2] = bk_expected[2, 1] = 1.0
    assert np.array_equal(model.b0, b0_expected)
    assert np.array_equal(model.bk, bk_expected)


def test_h2_matrix_entries():
    model = build_cat_model(CatVariant.H2)
    bk_expected = np.zeros((4, 4))
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)):
        bk_expected[i, j] = 1.0
    assert np.array_equal(model.bk, bk_expected)
    assert np.array_equal(model.b0, np.diag([1.0, 1.0, 0.0, 0.0]))


def test_kick_only_matrices():
    model = build_cat_model(CatVariant.KICK_ONLY)
    assert np.array_equal(model.b0, np.zeros((4, 4)))
    w = GOLDEN_RATIO
    coef = np.log(1.0 + w) / (w + 2.0)
    block = coef * np.array([[-w, 2.0 * (1.0 + w) / w], [2.0 * w, w]])
    assert np.max(np.abs(model.bk[:2, 2:] - block)) < 1e-14
    assert np.max(np.abs(model.bk[:2, :2])) == 0.0


def test_quadratic_model_rejects_asymmetric_matrix():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValidationError):
        QuadraticModel(1, bad, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Floquet transport
# ---------------------------------------------------------------------------


def test_floquet_zero_kicks_is_identity():
    flo = floquet_lambda(build_cat_model(CatVariant.H1), 0)
    assert np.array_equal(flo.matrix, np.eye(4))


def test_kick_only_spectral_radius():
    flo = floquet_lambda(build_cat_model(CatVariant.KICK_ONLY), 1)
    assert abs(flo.spectral_radius() - GOLDEN_RATIO**2) < 1e-9


def test_floquet_semigroup_property():
    model = build_cat_model(CatVariant.H1)
    one = floquet_lambda(model, 1).matrix
    three = floquet_lambda(model, 3).matrix
    assert np.max(np.abs(three - one @ one @ one)) < 1e-12


@pytest.mark.parametrize("variant", list(CatVariant))
def test_floquet_symplectic_and_eigenvalue_pairing(variant):
    flo = floquet_lambda(build_cat_model(variant), 2)
    assert flo.symplectic_defect() < 1e-10
    eigs = flo.eigenvalues()
    # H1 has doubled, near-defective eigenvalue pairs whose numerical values
    # split at the sqrt(machine-eps) conditioning limit; the other variants
    # have well-separated or semisimple spectra
    tol = 1e-6 if variant is CatVariant.H1 else 1e-8
    for lam in eigs:
        assert np.min(np.abs(eigs - 1.0 / lam)) < tol * max(1.0, abs(lam))


@settings(max_examples=25, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
)
def test_floquet_symplectic_random_models(entries):
    vals = np.array(entries)
    b0 = np.zeros((4, 4))
    bk = np.zeros((4, 4))
    iu = np.triu_indices(4)
    b0[iu] = vals[:10]
    bk[iu] = vals[10:]
    b0 = 0.5 * (b0 + b0.T)
    bk = 0.5 * (bk + bk.T)
    flo = floquet_lambda(QuadraticModel(2, b0, bk), 1)
    assert flo.symplectic_defect() < 1e-10


def test_h1_eigenvalue_moduli_are_golden_ratio_powers():
    # a defective pair each: the eigenvalues split by about sqrt(roundoff), their moduli do not
    moduli = np.sort(np.abs(floquet_lambda(build_cat_model(CatVariant.H1), 3).eigenvalues()))
    expected = GOLDEN_RATIO ** np.array([-6.0, -6.0, 6.0, 6.0])
    np.testing.assert_allclose(moduli, expected, rtol=1e-7)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------


def _expm_long_double(a):
    """Taylor series in long double on a / 2^s with 1-norm <= 1/2, squared s times."""
    s = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / 0.5))))
    a = a.astype(np.longdouble) / np.longdouble(2) ** s
    term = total = np.eye(a.shape[0], dtype=np.longdouble)
    for k in range(1, 30):
        term = term @ a / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def test_expm_matches_scipy_on_hamiltonian_generators():
    # scipy's own expm is off by up to ~9e-13 of the norm here (against the long-double
    # series), so the comparison with it cannot be tighter than 1e-12
    rng = np.random.default_rng(1)
    s = symplectic_form(2)
    for norm in np.geomspace(1e-3, 30.0, 200):
        b = rng.normal(size=(4, 4))
        a = s @ (b + b.T)
        a *= norm / np.linalg.norm(a, 1)
        got = _expm(a)
        want = expm(a)
        assert np.linalg.norm(got - want, 1) <= 1e-12 * np.linalg.norm(want, 1), norm
        ref = _expm_long_double(a)
        assert float(np.linalg.norm(got - ref, 1)) <= 1e-14 * float(np.linalg.norm(ref, 1)), norm


def _generator(variant, form):
    return symplectic_form(2) @ getattr(build_cat_model(variant), form)


@pytest.mark.parametrize("a, order", [
    (_generator(CatVariant.H1, "b0"), 4),
    (_generator(CatVariant.H1, "bk"), 2),
    (_generator(CatVariant.H2, "b0"), 2),
    (_generator(CatVariant.KICK_ONLY, "b0"), 1),
    # the terms a^i / i! of this one, rounded and summed one by one, miss the exact sum
    (np.array([[0.0, -7.0, 1.0, 4.0], [0.0, 0.0, -2.0, -4.0],
               [0.0, 0.0, 0.0, 7.0], [0.0, 0.0, 0.0, 0.0]]), 4),
], ids=["h1-drift", "h1-kick", "h2-drift", "kick-only-drift", "integer-triangular"])
def test_expm_of_nilpotent_generator_is_its_exact_series(a, order):
    exact = [[Fraction(x) for x in row] for row in a.tolist()]
    power = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    total = power
    for k in range(1, order):
        power = [[sum(power[i][m] * exact[m][j] for m in range(4)) / k for j in range(4)]
                 for i in range(4)]
        total = [[t + p for t, p in zip(trow, prow)] for trow, prow in zip(total, power)]
    assert not np.linalg.matrix_power(a, order).any()
    assert np.array_equal(_expm(a), np.array(total, dtype=float))


def test_propagate_zero_kicks_identity():
    model = build_cat_model(CatVariant.H2)
    mu, nu = np.array([0.4, -1.0]), np.array([0.7, 0.2])
    mu2, nu2 = propagate_tomogram_params(model, 0, mu, nu)
    assert np.max(np.abs(mu2 - mu)) == 0.0
    assert np.max(np.abs(nu2 - nu)) == 0.0


def test_propagate_matches_epsilon_solution_1d():
    # one-degree-of-freedom reduction of the harmonic kick: B0 = p^2 part,
    # Bk = z x^2 part; parameter transport must reproduce the eps-based
    # solution mu -> mu Re eps + nu Re eps', nu -> mu Im eps + nu Im eps'
    z, n = 5.0, 4
    model = QuadraticModel(1, np.array([[1.0, 0.0], [0.0, 0.0]]),
                           np.array([[0.0, 0.0], [0.0, z]]))
    state = harmonic_kick_recurrence(z, n)
    eps, eps_dot = state.eps(), state.eps_dot()
    for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4)):
        mu_t, nu_t = propagate_tomogram_params(model, n, np.array([mu]), np.array([nu]))
        assert abs(mu_t[0] - (mu * eps.real + nu * eps_dot.real)) < 1e-10
        assert abs(nu_t[0] - (mu * eps.imag + nu * eps_dot.imag)) < 1e-10


def test_propagate_matches_unrolled_row_product():
    model = build_cat_model(CatVariant.KICK_ONLY)
    lam2 = floquet_lambda(model, 1).matrix
    lam2 = lam2 @ lam2
    mu, nu = np.array([0.3, 1.1]), np.array([-0.5, 0.9])
    row = np.concatenate([nu, mu]) @ np.linalg.inv(lam2)
    mu_t, nu_t = propagate_tomogram_params(model, 2, mu, nu)
    assert np.max(np.abs(np.concatenate([nu_t, mu_t]) - row)) < 1e-12


# ---------------------------------------------------------------------------
# exponents and the quadratic identity
# ---------------------------------------------------------------------------


def test_cat_lyapunov_kick_only_closed_form():
    assert abs(cat_lyapunov(CatVariant.KICK_ONLY) - 2.0 * np.log(GOLDEN_RATIO)) < 1e-12


def test_cat_lyapunov_h1_closed_form():
    assert abs(cat_lyapunov(CatVariant.H1) - 2.0 * np.log(GOLDEN_RATIO)) < 1e-12


def test_cat_lyapunov_pinned_values():
    assert abs(cat_lyapunov(CatVariant.H1) - LAMBDA_H1) < 1e-6
    assert abs(cat_lyapunov(CatVariant.H2) - LAMBDA_H2) < 1e-6


@pytest.mark.parametrize("variant", list(CatVariant))
def test_cat_lyapunov_nonnegative(variant):
    assert cat_lyapunov(variant) >= 0.0


@pytest.mark.parametrize("variant", list(CatVariant))
def test_quadratic_deformation_vanishes(variant):
    assert verify_quadratic_deformation_vanishes(build_cat_model(variant)) is True


def test_cubic_hamiltonian_fails_deformation_probe():
    def cubic(qvec):
        return 0.5 * float(qvec @ qvec) + qvec[1] ** 3

    assert directional_derivatives_vanish(cubic, 4) is False


def test_quartic_hamiltonian_fails_deformation_probe():
    def quartic(qvec):
        return 0.5 * float(qvec @ qvec) + 0.1 * qvec[0] ** 4

    assert directional_derivatives_vanish(quartic, 2) is False


# ---------------------------------------------------------------------------
# kick-only closed form for the inverse transport block
# ---------------------------------------------------------------------------


def test_kick_only_inverse_block_matches_direct_powers():
    model = build_cat_model(CatVariant.KICK_ONLY)
    one = floquet_lambda(model, 1).matrix
    for n in range(6):
        direct = np.linalg.inv(np.linalg.matrix_power(one, n))[:2, :2]
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(direct - kick_only_inverse_block(n))) < 1e-12 * scale


def test_kick_only_inverse_block_identity_at_zero():
    assert np.max(np.abs(kick_only_inverse_block(0) - np.eye(2))) < 1e-14


def test_symplectic_form_shape():
    s = symplectic_form(2)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(s @ s, -np.eye(4))
