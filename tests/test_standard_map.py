import tracemalloc

import numpy as np
import pytest

from tomolyap import (
    ConeError,
    GField,
    ResourceError,
    StandardMapParams,
    ValidationError,
    classical_closed_form,
    classical_lyapunov,
    derivative_iteration,
    run_standard_map,
)
from tomolyap.standard_map import (
    _cone_table,
    hbar_resonance,
    lattice_extents,
)
from oracles import (
    _dictionary_lattice,
    _full_cone_table,
    brute_force_probes,
    brute_force_windows,
    full_lattice_probes,
)

LAMBDA_GOLDEN = 0.9624236501192069
QUANTUM_STEP1 = 4.917702154416812  # 3 + 4 sin(1/2)


def classical_params(**kw):
    return StandardMapParams(gamma=kw.pop("gamma", 1.0), **kw)


def window_values(field, jmax, kmax):
    """G over |j| <= jmax, |k| <= kmax, read cell by cell through `value`."""
    return np.array([[field.value(j, k) for k in range(-kmax, kmax + 1)]
                     for j in range(-jmax, jmax + 1)])


# ---------------------------------------------------------------------------
# parameters and construction
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValidationError):
        StandardMapParams(gamma=np.nan)
    with pytest.raises(ValidationError):
        StandardMapParams(gamma=1.0, tau=0.0)
    with pytest.raises(ValidationError):
        StandardMapParams(gamma=1.0, hbar=-1.0)


def test_initial_values():
    field = GField(classical_params(), 4)
    assert field.value(1, 1) == 2.0
    assert field.value(0, 0) == 0.0
    assert field.value(-1, -1) == -2.0


def test_initial_values_pi_base_point():
    field = GField(classical_params(q0=np.pi), 4)
    assert abs(field.value(1, 1) - (-2.0)) < 1e-12


def test_initial_values_direct_mode_generic_phase():
    params = classical_params(q0=0.7, p0=0.3)
    field = GField(params, 4)
    assert not field.split
    expected = 2.0 * np.exp(1j * (0.7 + 0.3))
    assert abs(field.value(1, 1) - expected) < 1e-12


def test_memory_budget_enforced():
    with pytest.raises(ResourceError, match="float64"):
        GField(classical_params(), 200, max_bytes=10_000_000)
    with pytest.raises(ResourceError, match="complex128"):
        GField(classical_params(q0=0.7), 200, max_bytes=10_000_000)


def test_memory_budget_checked_before_the_cone_table_is_built():
    # the n = 200 table alone takes 200 x 4 x 203 int32 entries, 650 KB
    with pytest.raises(ResourceError, match="cone table .* float64"):
        GField(classical_params(), 200, max_bytes=500_000)


# p0 tau = pi puts a (-1)^k column sign on the split-mode kick source; at
# small n the run's Python objects are a visible part of the peak
@pytest.mark.parametrize("n, mode, p0", [
    pytest.param(n, mode, p0, id=name if n == 60 else f"{name}-n{n}")
    for n in (60, 20, 30)
    for mode, p0, name in [("split", 0.0, "split"), ("direct", 0.0, "direct"),
                           ("split", np.pi, "split-p0pi"), ("direct", np.pi, "direct-p0pi")]])
def test_lattice_bytes_is_the_traced_peak(n, mode, p0):
    params = StandardMapParams(gamma=1.0, hbar=1.0, p0=p0)
    budget = GField(params, n, mode=mode).lattice_bytes
    tracemalloc.start()
    try:
        run_standard_map(params, n, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak - budget) <= 0.03 * budget


def test_lattice_extents_formula():
    j, k = lattice_extents(10)
    assert j == 12
    assert k == 1 + 10 + 55 + 2


# ---------------------------------------------------------------------------
# single-period stepping
# ---------------------------------------------------------------------------


def test_step_classical_probe():
    field = GField(classical_params(), 2)
    field.advance()
    assert abs(field.value(1, 1) - 5.0) < 1e-12


def test_step_quantum_probe():
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0), 2)
    field.advance()
    assert abs(field.value(1, 1) - QUANTUM_STEP1) < 1e-12


def test_step_zero_gamma_is_pure_shear():
    params = classical_params(gamma=0.0)
    field = GField(params, 3, keep=(2, 6), mode="direct")
    field.advance()
    window = window_values(field, 2, 6)
    j = np.arange(-2, 3)[:, None]
    k = np.arange(-6, 7)[None, :]
    assert np.max(np.abs(window - (j + (k + j)))) < 1e-12


def test_split_and_direct_agree_classical():
    n = 25
    probes = {}
    for mode in ("split", "direct"):
        field = GField(classical_params(), n, mode=mode)
        vals = []
        for _ in range(n):
            field.advance()
            vals.append(field.value(1, 1))
        probes[mode] = np.array(vals)
    scale = np.abs(probes["split"])
    assert np.max(np.abs(probes["split"] - probes["direct"]) / scale) < 1e-12


def test_split_and_direct_agree_quantum():
    n = 25
    probes = {}
    for mode in ("split", "direct"):
        field = GField(StandardMapParams(gamma=1.0, hbar=1.0), n, mode=mode)
        vals = []
        for _ in range(n):
            field.advance()
            vals.append(field.value(1, 1))
        probes[mode] = np.array(vals)
    scale = np.maximum(np.abs(probes["split"]), 1.0)
    assert np.max(np.abs(probes["split"] - probes["direct"]) / scale) < 1e-11


def test_split_and_direct_agree_elliptic():
    # the direct stencil seeds roundoff into fast lattice modes (kick factor
    # ~ k/2 at the window edge), so the comparison window stays short; the
    # split representation is the production path for long elliptic runs
    n = 8
    probes = {}
    for mode in ("split", "direct"):
        field = GField(classical_params(q0=np.pi), n, mode=mode)
        vals = []
        for _ in range(n):
            field.advance()
            vals.append(field.value(1, 1))
        probes[mode] = np.array(vals)
    assert np.max(np.abs(probes["split"] - probes["direct"])) < 1e-10


@pytest.mark.parametrize("hbar", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_engine_matches_brute_force(gamma, hbar):
    n = 8
    params = StandardMapParams(gamma=gamma, hbar=hbar)
    field = GField(params, n)
    got = [field.probe_pair()]
    for _ in range(n):
        field.advance()
        got.append(field.probe_pair())
    expected = brute_force_probes(gamma, hbar, 1.0, n)
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12


@pytest.mark.parametrize("q0", [0.0, np.pi])
def test_split_column_sign_source_matches_brute_force(q0):
    # p0 tau = pi puts a (-1)^k column sign on the quantum source term
    n = 12
    params = StandardMapParams(gamma=1.0, hbar=1.0, q0=q0, p0=np.pi)
    field = GField(params, n, mode="split")
    got = [field.probe_pair()]
    for _ in range(n):
        field.advance()
        got.append(field.probe_pair())
    expected = brute_force_probes(1.0, 1.0, 1.0, n, q0=q0, p0=np.pi)
    np.testing.assert_allclose(np.array(got), expected, rtol=1e-10, atol=0.0)


# no classical q0 = pi case: the dictionary lattice's own roundoff in
# exp(i pi j) grows through the unbounded classical kick coefficient
@pytest.mark.parametrize("mode, q0, hbar", [
    ("split", 0.0, 0.0), ("split", 0.0, 1.0), ("split", np.pi, 1.0),
    ("direct", 0.0, 0.0), ("direct", 0.0, 1.0), ("direct", 1.3, 0.0), ("direct", 1.3, 1.0)])
@pytest.mark.parametrize("keep", [(1, 1), (2, 5), (3, 2)])
def test_keep_window_matches_dictionary_lattice(keep, mode, q0, hbar):
    # every cell of the keep window is readable after every period, so a
    # sweep hull that misses one shows here even when the probes are right
    n = 10
    params = StandardMapParams(gamma=1.0, hbar=hbar, q0=q0)
    field = GField(params, n, keep=keep, mode=mode)
    expected = brute_force_windows(1.0, hbar, 1.0, n, keep, q0=q0)
    for t in range(n + 1):
        if t:
            field.advance()
        window = window_values(field, *keep)
        scale = max(1.0, np.max(np.abs(expected[t])))
        assert np.max(np.abs(window - expected[t])) <= 1e-10 * scale, t


def engine_probes(params, n, mode):
    field = GField(params, n, mode=mode)
    probes = np.empty((n + 1, 2), dtype=complex)
    probes[0] = field.probe_pair()
    for t in range(1, n + 1):
        field.advance()
        probes[t] = field.probe_pair()
    return probes


@pytest.mark.parametrize("mode", ["auto", "direct"])
@pytest.mark.parametrize("p0", [0.0, np.pi, 0.4])
@pytest.mark.parametrize("q0", [0.0, np.pi, 1.3])
@pytest.mark.parametrize("hbar", [0.0, 0.7, 1.0])
def test_half_lattice_equals_full_lattice(hbar, q0, p0, mode):
    # rows j < 0 come from the mirror G(-j, -k) = -conj G(j, k); the full
    # sweep computes them, so any lost bit shows as an inequality.  Bytes, not
    # values, are compared: direct mode runs its complex cells as float pairs,
    # and that could differ from complex arithmetic in the sign of a zero
    params = StandardMapParams(gamma=1.0, hbar=hbar, q0=q0, p0=p0, v1=0.6, v2=-1.1)
    expected = full_lattice_probes(params, 30, mode)
    assert engine_probes(params, 30, mode).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, q0, split", [(200, 0.0, True), (140, 1.3, False)])
def test_half_lattice_equals_full_lattice_at_benchmark_size(n, q0, split):
    params = StandardMapParams(gamma=1.0, hbar=1.0, q0=q0)
    assert GField(params, 1).split == split
    assert engine_probes(params, n, "auto").tobytes() == full_lattice_probes(params, n).tobytes()


@pytest.mark.parametrize("n", [1, 2, 30])
def test_cone_table_keeps_the_rows_the_half_sweep_reads(n):
    J, K = lattice_extents(n)
    table, _, _ = _cone_table(n, (1, 1), J, K)
    assert table.shape == (n, 4, J + 2)
    assert np.array_equal(table, _full_cone_table(n, (1, 1), J, K)[:, :, J - 1 :])


def stored_ranges(field):
    """Comoving column range [lo, hi] each stored row j = 0..J holds (the
    lattice columns at t = 0)."""
    off = field._offset
    return [(off[j] - base, off[j + 1] - base - 1) for j, base in enumerate(field._base)]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30])
@pytest.mark.parametrize("keep", [(1, 1), (2, 5), (3, 2)])
def test_stored_rows_are_the_cells_the_sweep_touches(keep, n):
    # enumerate, period by period, every comoving column x = c + j t of row
    # j >= 0 the sweep reads or writes: row j over its own post-kick hull
    # (read and written) and over those of rows j - 1 and j + 1 (read into
    # their differences), and row 1 as the mirror of pre-kick row -1 over row
    # 0's post-kick hull (c -> 2K - c); row -1 is not swept
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0, q0=0.4), n, keep=keep)
    J, K = field.J, field.K
    table = _full_cone_table(n, keep, J, K)
    touched = [set() for _ in range(J + 1)]
    for t, (_, _, post_lo, post_hi) in enumerate(table, start=1):
        for j in range(J + 1):
            hull = range(post_lo[j + J], post_hi[j + J] + 1)
            for i in (j - 1, j, j + 1):
                if 0 <= i <= J:
                    touched[i].update(c + i * t for c in hull)
        touched[1].update(2 * K - c + t for c in range(post_lo[J], post_hi[J] + 1))
    for j, (lo, hi) in enumerate(stored_ranges(field)):
        assert touched[j] == set(range(lo, hi + 1)), j


def test_stored_cone_size_at_benchmark_size():
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0), 200)
    assert field._dev is None
    assert field._offset[-1] == 2_717_007
    assert field.lattice_bytes < 24.2e6


def test_direct_initial_data_is_bit_exact_in_every_stored_cell():
    params = StandardMapParams(gamma=1.0, hbar=1.0, q0=0.4, p0=0.9, v1=0.6, v2=-1.1)
    field = GField(params, 12, keep=(2, 5))
    assert not field.split
    k = np.arange(-field.K, field.K + 1)
    rows = []
    for j, (lo, hi) in enumerate(stored_ranges(field)):
        row = ((params.v1 * j + params.v2 * params.tau * k)
               * np.exp(1j * (params.q0 * j + params.p0 * params.tau * k)))
        rows.append(row[lo : hi + 1])
    assert field._dev.tobytes() == np.concatenate(rows).tobytes()


def test_direct_read_outside_stored_cone_raises_at_initial_time():
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0, q0=0.4, p0=0.9), 12)
    lo, hi = stored_ranges(field)[2]
    field.value(2, hi - field.K)  # the last stored cell of row 2 reads
    for j, k in [(2, hi + 1 - field.K), (2, lo - 1 - field.K), (-2, field.K - hi - 1),
                 (field.J, 0)]:
        with pytest.raises(ConeError, match="stored backward cone"):
            field.value(j, k)
    with pytest.raises(ConeError, match="stored backward cone"):
        window_values(field, field.J, 1)


@pytest.mark.parametrize("hbar", [0.0, 1.0])
def test_dictionary_lattice_is_point_symmetric(hbar):
    # the symmetry the half-lattice engine rests on, checked on the plain
    # recursion: every cell whose mirror is also evolved, at every time
    keep = (2, 3)
    targets = [(j, k) for j in range(-keep[0], keep[0] + 1)
               for k in range(-keep[1], keep[1] + 1)]
    lattices = _dictionary_lattice(1.0, hbar, 1.0, 10, targets, 0.6, -1.1, 0.4, 0.9)
    for t, cur in enumerate(lattices):
        cells = [cell for cell in cur if (-cell[0], -cell[1]) in cur]
        assert len(cells) >= len(targets), t
        got = np.array([cur[(-j, -k)] for j, k in cells])
        expected = np.array([-np.conj(cur[cell]) for cell in cells])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=f"t = {t}")


def test_classical_linearity_preserved_direct_mode():
    # direct-mode stencil keeps linear data exactly linear (relative to the
    # field magnitude) over a window of rows and columns
    n = 20
    params = classical_params()
    field = GField(params, n, keep=(3, 30), mode="direct")
    for _ in range(n):
        field.advance()
    window = window_values(field, 3, 30)
    g2, g3 = classical_closed_form(1.0, 1.0, 1.0, n)
    j = np.arange(-3, 4)[:, None]
    k = np.arange(-30, 31)[None, :]
    expected = g2 * j + g3 * k
    assert np.max(np.abs(window - expected)) < 1e-10 * np.max(np.abs(window))


# ---------------------------------------------------------------------------
# cone accounting
# ---------------------------------------------------------------------------


def test_probe_outside_window_raises():
    field = GField(classical_params(), 3)
    field.advance()
    with pytest.raises(ConeError):
        field.value(2, 2)


def test_advance_past_budget_raises():
    field = GField(classical_params(), 2)
    field.advance()
    field.advance()
    with pytest.raises(ConeError):
        field.advance()


def test_initial_time_allows_full_box():
    field = GField(classical_params(), 3)
    assert field.value(3, 5) == 3.0 + 5.0


# ---------------------------------------------------------------------------
# derivative iteration
# ---------------------------------------------------------------------------


def test_derivative_first_step_classical():
    params = classical_params()
    probes = np.array([[2.0, -2.0], [5.0, -5.0]], dtype=complex)
    series = derivative_iteration(probes, params)
    assert series.g2[1] == 2.0
    assert series.g3[1] == 3.0


def test_derivative_first_step_quantum_matches_classical():
    params = StandardMapParams(gamma=1.0, hbar=1.0)
    field = GField(params, 1)
    probes = np.array([field.probe_pair()])
    series = derivative_iteration(probes, params)
    # the deviation from the classical value appears only at t >= 2
    assert series.g2[0] == 1.0 and series.g3[0] == 1.0
    field.advance()
    full = derivative_iteration(np.array([probes[0], field.probe_pair()]), params)
    assert full.g3[1] == 3.0


def test_derivative_zero_gamma_shear_growth():
    params = classical_params(gamma=0.0)
    probes = np.zeros((11, 2), dtype=complex)  # probe values unused at gamma=0
    series = derivative_iteration(probes, params)
    assert np.array_equal(series.g2.real, 1.0 + np.arange(11))
    assert np.array_equal(series.g3.real, np.ones(11))


# ---------------------------------------------------------------------------
# classical closed form
# ---------------------------------------------------------------------------


def test_closed_form_identity_at_zero():
    assert classical_closed_form(1.0, 0.3, -0.7, 0) == (0.3, -0.7)


def test_closed_form_first_step():
    g2, g3 = classical_closed_form(1.0, 1.0, 1.0, 1)
    assert (g2, g3) == (2.0, 3.0)


def test_closed_form_free_limit():
    g2, g3 = classical_closed_form(0.0, 1.0, 1.0, 7)
    assert (g2, g3) == (8.0, 1.0)


def test_closed_form_matches_engine_series():
    n = 40
    series, _ = run_standard_map(classical_params(), n)
    closed = np.array([classical_closed_form(1.0, 1.0, 1.0, t) for t in range(n + 1)])
    rel = np.abs(series.g2 - closed[:, 0]) / np.maximum(1.0, np.abs(closed[:, 0]))
    assert np.max(rel) < 1e-8
    rel = np.abs(series.g3 - closed[:, 1]) / np.maximum(1.0, np.abs(closed[:, 1]))
    assert np.max(rel) < 1e-8


def test_closed_form_matches_iterated_recursion():
    # the one-period map (g2, g3) -> (g2 + g3, gamma g2 + (1+gamma) g3)
    for gamma in (0.5, 1.0, 2.0):
        g2, g3 = 1.0, 1.0
        for n in range(1, 41):
            g2, g3 = g2 + g3, gamma * g2 + (1.0 + gamma) * g3
            c2, c3 = classical_closed_form(gamma, 1.0, 1.0, n)
            assert abs(c2 - g2) < 1e-8 * max(1.0, abs(g2))
            assert abs(c3 - g3) < 1e-8 * max(1.0, abs(g3))


# ---------------------------------------------------------------------------
# classical exponent formula
# ---------------------------------------------------------------------------


def test_classical_lyapunov_values():
    assert abs(classical_lyapunov(1.0) - LAMBDA_GOLDEN) < 1e-12
    assert classical_lyapunov(0.0) == 0.0
    assert classical_lyapunov(-1.0) == 0.0
    assert classical_lyapunov(-3.9) == 0.0
    assert abs(classical_lyapunov(-5.0) - LAMBDA_GOLDEN) < 1e-12
    assert abs(classical_lyapunov(2.0) - np.log(2.0 + np.sqrt(3.0))) < 1e-12


def test_run_zero_gamma_zero_estimate():
    params = StandardMapParams(gamma=0.0, v1=1.0, v2=0.0)
    _, est = run_standard_map(params, 60)
    assert abs(est.slope) < 1e-6
    assert est.classification == "zero"


def test_run_classical_estimate():
    series, est = run_standard_map(classical_params(), 60)
    assert abs(est.slope - LAMBDA_GOLDEN) < 1e-2
    assert est.classification == "positive"
    from tomolyap import running_estimate

    lam60 = running_estimate(series)[-1, 1]
    assert abs(lam60 - LAMBDA_GOLDEN) < 1e-2


# ---------------------------------------------------------------------------
# resonance warning helper
# ---------------------------------------------------------------------------


def test_hbar_resonance_detects_rational():
    assert hbar_resonance(StandardMapParams(gamma=1.0, hbar=np.pi)) == (1, 4)
    assert hbar_resonance(StandardMapParams(gamma=1.0, hbar=1.0)) is None
    assert hbar_resonance(classical_params()) is None
