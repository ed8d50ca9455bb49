"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Each criterion is asserted at its stated tolerance; measured values
are embedded in the failure message when a check does not hold.
"""

import time

import numpy as np
import pytest

from tomolyap import (
    CatVariant,
    GaussianDensity,
    KickedMapSpec,
    StandardMapParams,
    cat_lyapunov,
    classical_closed_form,
    classical_lyapunov,
    derivative_iteration,
    estimate_exponent,
    forward_tomogram,
    gaussian_tomogram_family,
    harmonic_derivative_series,
    harmonic_lyapunov,
    inverse_tomogram,
    lattice_probes,
    pure_state_tomogram,
    quantum_probes,
    run_standard_map,
    running_estimate,
    symbolic_expand,
    tangent_map_lyapunov,
    tomogram_mean_position,
    verify_quadratic_deformation_vanishes,
)
from tomolyap.floquet import build_cat_model
from oracles import floquet_probes, ground_state

LAMBDA_GOLDEN = np.log((3.0 + np.sqrt(5.0)) / 2.0)


def linear_trend(values: np.ndarray, start: int = 20) -> float:
    """Least-squares slope of values[start:] against t."""
    t = np.arange(start, len(values), dtype=float)
    y = values[start:]
    tc = t - t.mean()
    return float(np.dot(tc, y - y.mean()) / np.dot(tc, tc))


def conclude(num: int, label: str, detail: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] acceptance {num} ({label}): {detail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def quantum_run():
    # the exact (unitary) quantum kick, evolved in Hilbert space; the lattice
    # engine's two-term stencil is only its first order in gamma f
    params = StandardMapParams(gamma=1.0, hbar=1.0, tau=1.0)
    start = time.perf_counter()
    series = derivative_iteration(quantum_probes(params, 200), params)
    estimate = estimate_exponent(series)
    elapsed = time.perf_counter() - start
    return series, estimate, elapsed


@pytest.fixture(scope="module")
def elliptic_run():
    params = StandardMapParams(gamma=1.0, q0=np.pi)
    series, estimate = run_standard_map(params, 200)
    return series, estimate


def test_acceptance_1_harmonic_kicks():
    failures = []
    start = time.perf_counter()
    series = harmonic_derivative_series(5.0, 200)
    est = estimate_exponent(series)
    closed = harmonic_lyapunov(5.0)
    elliptic = harmonic_derivative_series(2.0, 200)
    est2 = estimate_exponent(elliptic)
    lam2 = running_estimate(elliptic)[-1, 1]
    elapsed = time.perf_counter() - start

    if abs(est.slope - 0.962424) >= 1e-3:
        failures.append(f"pipeline estimate {est.slope:.6f} not within 1e-3 of 0.962424")
    if abs(closed - LAMBDA_GOLDEN) >= 1e-12:
        failures.append(f"closed form {closed!r} not within 1e-12")
    if est2.classification != "zero":
        failures.append(f"z=2 classified {est2.classification}, expected zero")
    if abs(lam2) >= 1e-6:
        failures.append(f"z=2 running estimate {lam2:.2e} not below 1e-6")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    conclude(1, "harmonic kicks",
             f"estimate={est.slope:.6f} closed={closed:.6f} z2_lambda={lam2:.1e} "
             f"runtime={elapsed:.2f}s", failures)


def test_acceptance_2_quantum_cat():
    failures = []
    start = time.perf_counter()
    lam = cat_lyapunov(CatVariant.KICK_ONLY)
    expected = 2.0 * np.log((1.0 + np.sqrt(5.0)) / 2.0)
    vanishing = {v: verify_quadratic_deformation_vanishes(build_cat_model(v))
                 for v in CatVariant}
    elapsed = time.perf_counter() - start

    if abs(lam - expected) >= 1e-6:
        failures.append(f"kick-only exponent {lam!r} not within 1e-6 of 2 ln phi")
    for variant, ok in vanishing.items():
        if not ok:
            failures.append(f"deformation series does not vanish for {variant.value}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    conclude(2, "configurational cat",
             f"kick_only={lam:.9f} deformation_vanishes="
             f"{all(vanishing.values())} runtime={elapsed:.2f}s", failures)


def test_acceptance_3_standard_map_classical():
    failures = []
    start = time.perf_counter()
    series, est = run_standard_map(StandardMapParams(gamma=1.0), 60)

    # closed form versus the iterated two-term recursion, n <= 40
    worst_rel = 0.0
    g2, g3 = 1.0, 1.0
    for n in range(1, 41):
        g2, g3 = g2 + g3, g2 + 2.0 * g3
        c2, c3 = classical_closed_form(1.0, 1.0, 1.0, n)
        worst_rel = max(worst_rel, abs(c2 - g2) / abs(g2), abs(c3 - g3) / abs(g3))

    oracle = tangent_map_lyapunov(KickedMapSpec.standard_map(1.0), 10_000)
    elapsed = time.perf_counter() - start

    if abs(est.slope - LAMBDA_GOLDEN) >= 1e-2:
        failures.append(f"engine estimate {est.slope:.6f} not within 1e-2")
    if worst_rel >= 1e-8:
        failures.append(f"closed form deviates from recursion by {worst_rel:.2e}")
    if abs(oracle - classical_lyapunov(1.0)) >= 1e-6:
        failures.append(f"tangent oracle {oracle:.9f} not within 1e-6 of formula")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    conclude(3, "standard map, classical hyperbolic",
             f"estimate={est.slope:.6f} closed_form_rel_err={worst_rel:.1e} "
             f"oracle={oracle:.9f} runtime={elapsed:.2f}s", failures)


def test_acceptance_4_standard_map_elliptic(elliptic_run):
    failures = []
    series, est = elliptic_run
    lam_running = running_estimate(series)[-1, 1]
    oracle = tangent_map_lyapunov(KickedMapSpec.standard_map(1.0, q0=np.pi), 10_000)

    if est.classification != "zero":
        failures.append(f"classified {est.classification}, expected zero")
    if abs(lam_running) >= 0.02:
        failures.append(f"|lambda_hat(200)| = {abs(lam_running):.4f} not below 0.02")
    if abs(oracle) >= 1e-3:
        failures.append(f"oracle exponent {oracle:.2e} not below 1e-3")
    conclude(4, "standard map, elliptic",
             f"classification={est.classification} lambda_hat={lam_running:.2e} "
             f"oracle={oracle:.2e}", failures)


def test_acceptance_5_standard_map_quantum(quantum_run):
    series, est, elapsed = quantum_run
    failures = []

    trend = linear_trend(series.probe_values.real)
    # The expected slope is the exact map's, from the dense Floquet oracle, not
    # the free-flight slope v2 tau = 1 (G(1, tau, n) = v1 + v2 tau (n + 1) at
    # gamma = 0).  That slope rests on the degeneracy of the free momenta
    # +-hbar m/2 at p0 = 0, which the kick splits by about gamma/hbar per
    # period, so it holds only while gamma n/hbar << 1: under the exact kick
    # and the two-term stencil alike the trend is ~1 at gamma = 1e-3 and below
    # 0.8 at gamma = 0.02 (test_hilbert.py).
    expected = linear_trend(floquet_probes(1.0, 1.0, 1.0, 200)[:, 0].real)
    if abs(trend - expected) > 0.2:
        failures.append(f"linear trend slope of G(1,1,1,n) is {trend:.4g}, "
                        f"outside {expected:.4g} +- 0.2")

    rows = running_estimate(series)
    lam = dict((int(tt), vv) for tt, vv in rows)
    lam200 = lam[200]
    if abs(lam200) >= 0.05:
        failures.append(f"|lambda_hat(200)| = {abs(lam200):.4f} not below 0.05")
    tail_early = np.mean([abs(lam[n]) for n in range(100, 150)])
    tail_late = np.mean([abs(lam[n]) for n in range(150, 201)])
    if not tail_late < tail_early:
        failures.append(f"running estimate tail not decreasing "
                        f"({tail_early:.4f} -> {tail_late:.4f})")
    c_fit = abs(lam[50]) * 50.0 / np.log(50.0)
    bound_violation = max(abs(lam[n]) - 1.5 * c_fit * np.log(n) / n for n in range(50, 201))
    if bound_violation > 0:
        failures.append(f"running estimate exceeds the c log(n)/n envelope "
                        f"by {bound_violation:.4f}")
    if est.classification != "zero":
        failures.append(f"classified {est.classification} "
                        f"(slope {est.slope:.4f}), expected zero")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    conclude(5, "standard map, quantum",
             f"trend={trend:.4g} (expected {expected:.4g}) lambda_hat(200)={lam200:.4f} "
             f"tail={tail_early:.4f}->{tail_late:.4f} envelope_margin={-bound_violation:.4f} "
             f"classification={est.classification} (slope {est.slope:.4f}) "
             f"runtime={elapsed:.1f}s", failures)


def test_acceptance_6_symbolic_oracle_equivalence():
    failures = []
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for hbar in (0.0, 1.0):
            params = StandardMapParams(gamma=gamma, hbar=hbar)
            values = lattice_probes(params, 8)[:, 0]
            for n in range(9):
                sym = symbolic_expand(params, n)
                rel = abs(sym - values[n]) / max(1.0, abs(values[n]))
                worst = max(worst, rel)
                if rel >= 1e-9:
                    failures.append(
                        f"gamma={gamma} hbar={hbar} n={n}: symbolic {sym} vs "
                        f"lattice {values[n]} (rel {rel:.2e})")
    conclude(6, "symbolic/lattice equivalence",
             f"worst relative deviation {worst:.2e} over n<=8, "
             "gamma in (0.5, 1, 2), classical+quantum", failures)


def test_acceptance_7_tomography_properties():
    failures = []
    start = time.perf_counter()
    density = GaussianDensity(mean_q=0.3, mean_p=-0.4, sigma_q=1.2, sigma_p=0.9)

    # normalization over a sweep of directions
    worst_mass = 0.0
    for theta in np.linspace(0.0, np.pi, 9)[:-1]:
        tom = forward_tomogram(density, np.cos(theta), np.sin(theta))
        worst_mass = max(worst_mass, abs(tom.mass() - 1.0))
    if worst_mass >= 1e-4:
        failures.append(f"normalization defect {worst_mass:.2e} not below 1e-4")

    # homogeneity under random scalings
    rng = np.random.default_rng(42)
    base = forward_tomogram(density, 0.8, 0.6)
    worst_hom = 0.0
    for _ in range(5):
        lam = rng.uniform(0.1, 10.0)
        scaled = forward_tomogram(density, lam * 0.8, lam * 0.6, x_grid=lam * base.x)
        worst_hom = max(worst_hom, float(np.max(np.abs(lam * scaled.values - base.values))))
    if worst_hom >= 1e-8:
        failures.append(f"homogeneity defect {worst_hom:.2e} not below 1e-8")

    # Gaussian round trip
    family = gaussian_tomogram_family(GaussianDensity(), 64)
    recon = inverse_tomogram(family)
    exact = GaussianDensity().pdf(recon.q[:, None], recon.p[None, :])
    rt_err = float(np.max(np.abs(recon.values - exact)) / exact.max())
    if rt_err >= 1e-2:
        failures.append(f"round-trip error {rt_err:.2e} not below 1e-2 of peak")

    # pure-state versus phase-space route
    psi = ground_state()
    wigner = GaussianDensity(sigma_q=1.0 / np.sqrt(2.0), sigma_p=1.0 / np.sqrt(2.0))
    worst_consistency = 0.0
    for theta in (0.4, 1.0, 2.2):
        mu, nu = np.cos(theta), np.sin(theta)
        quad = pure_state_tomogram(psi, mu, nu)
        line = forward_tomogram(wigner, mu, nu, x_grid=quad.x)
        worst_consistency = max(worst_consistency,
                                float(np.max(np.abs(quad.values - line.values))))
    if worst_consistency >= 1e-6:
        failures.append(f"pure-state/Wigner mismatch {worst_consistency:.2e} "
                        "not below 1e-6")

    # mean position
    mean = tomogram_mean_position(forward_tomogram(GaussianDensity(mean_q=2.0), 1.0, 0.0))
    if abs(mean - 2.0) >= 1e-6:
        failures.append(f"mean position {mean!r} not within 1e-6 of 2")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    conclude(7, "tomography properties",
             f"mass={worst_mass:.1e} homogeneity={worst_hom:.1e} roundtrip={rt_err:.1e} "
             f"consistency={worst_consistency:.1e} mean_err={abs(mean-2):.1e} "
             f"runtime={elapsed:.1f}s", failures)


def test_acceptance_8_cross_system_coincidence():
    failures = []
    values = {
        "harmonic closed form": harmonic_lyapunov(5.0),
        "cat spectral radius": cat_lyapunov(CatVariant.KICK_ONLY),
        "standard map formula": classical_lyapunov(1.0),
        "harmonic pipeline": estimate_exponent(harmonic_derivative_series(5.0, 200)).slope,
        "standard map engine": run_standard_map(StandardMapParams(gamma=1.0), 60)[1].slope,
        "tangent oracle": tangent_map_lyapunov(KickedMapSpec.standard_map(1.0), 10_000),
    }
    names = list(values)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if abs(values[a] - values[b]) >= 1e-6:
                failures.append(f"{a} = {values[a]!r} vs {b} = {values[b]!r}")
    spread = max(values.values()) - min(values.values())
    conclude(8, "cross-system coincidence",
             f"six routes to ln((3+sqrt5)/2), spread {spread:.2e}", failures)
