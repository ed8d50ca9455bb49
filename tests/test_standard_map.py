import tracemalloc

import numpy as np
import pytest

from tomolyap import (
    ConeError,
    NumericalError,
    ResourceError,
    StandardMapParams,
    ValidationError,
    classical_closed_form,
    classical_lyapunov,
    derivative_iteration,
    lattice_probes,
    run_standard_map,
    standard_map,
)
from tomolyap.standard_map import (
    GField,
    _cone_table,
    _gfield_probes,
    _plane_wave_bytes,
    _plane_wave_probes,
    hbar_resonance,
    lattice_extents,
)
from tomolyap.symbolic import symbolic_expand
from oracles import (
    _dictionary_lattice,
    _full_cone_table,
    brute_force_probes,
    brute_force_windows,
    full_lattice_probes,
    long_double_plane_wave_probes,
)

LAMBDA_GOLDEN = 0.9624236501192069
QUANTUM_STEP1 = 4.917702154416812  # 3 + 4 sin(1/2)


def classical_params(**kw):
    return StandardMapParams(gamma=kw.pop("gamma", 1.0), **kw)


def force_direct(monkeypatch):
    """Make every GField built afterwards take the direct path, as at a
    generic base point, even where q0 and p0 tau are multiples of pi."""
    monkeypatch.setattr(standard_map, "_pi_multiple", lambda x: None)


def stored_window(field, keep):
    """G over |j| <= keep[0], |k| <= keep[1] now, read cell by cell from the
    stored rows j >= 0 and, for j < 0, through the mirror -conj G(-j, -k);
    every cell read must lie in its row's storage."""
    def deviation(j, k):
        if field._dev is None:
            return 0.0
        lo, hi = stored_ranges(field)[j]
        x = field.K + k + j * field.t  # comoving column
        assert lo <= x <= hi, (j, k, field.t)
        return complex(field._dev[field._base[j] + x])

    return np.array([[field._carried_value(j, k)
                      + (deviation(j, k) if j >= 0 else -np.conj(deviation(-j, -k)))
                      for k in range(-keep[1], keep[1] + 1)]
                     for j in range(-keep[0], keep[0] + 1)])


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
    assert GField(classical_params(), 4).probe_pair() == (2.0, -2.0)


def test_initial_values_pi_base_point():
    plus, _ = GField(classical_params(q0=np.pi), 4).probe_pair()
    assert abs(plus - (-2.0)) < 1e-12


def test_initial_values_direct_mode_generic_phase():
    params = classical_params(q0=0.7, p0=0.3)
    field = GField(params, 4)
    assert not field.split
    expected = 2.0 * np.exp(1j * (0.7 + 0.3))
    assert abs(field.probe_pair()[0] - expected) < 1e-12


def test_numpy_integer_run_length_is_accepted():
    params = StandardMapParams(gamma=1.0, hbar=1.0)
    expected = lattice_probes(params, 3).tobytes()
    for n in (np.int64(3), np.int32(3), np.uint8(3)):
        assert lattice_probes(params, n).tobytes() == expected


def test_memory_budget_enforced(monkeypatch):
    monkeypatch.setattr(standard_map, "MAX_BYTES", 10_000_000)
    with pytest.raises(ResourceError, match="float64"):
        _gfield_probes(StandardMapParams(gamma=1.0, hbar=1.0), 200)
    with pytest.raises(ResourceError, match="complex128"):
        lattice_probes(classical_params(q0=0.7), 200)


def test_memory_budget_checked_before_the_cone_table_is_built(monkeypatch):
    # the n = 200 table alone takes 200 x 4 x 203 int32 entries, 650 KB
    monkeypatch.setattr(standard_map, "MAX_BYTES", 500_000)
    with pytest.raises(ResourceError, match="cone table .* float64"):
        _gfield_probes(StandardMapParams(gamma=1.0, hbar=1.0), 200)


# p0 tau = pi puts a (-1)^k column sign on the split-mode kick source; at
# small n the run's Python objects are a visible part of the peak.  The mode
# follows the base point: q0 = 0 runs split, q0 = 1.3 direct.  A classical
# split field builds no lattice, so its budget is the probe history and the
# field's own objects
@pytest.mark.parametrize("n, q0, p0, hbar", [
    pytest.param(n, q0, p0, 1.0, id=name if n == 60 else f"{name}-n{n}")
    for n in (60, 20, 30)
    for q0, p0, name in [(0.0, 0.0, "split"), (1.3, 0.0, "direct"),
                         (0.0, np.pi, "split-p0pi"), (1.3, np.pi, "direct-p0pi")]] + [
    pytest.param(n, 0.0, 0.0, 0.0, id=f"classical-split-n{n}") for n in (60, 200)])
def test_lattice_bytes_is_the_traced_peak(n, q0, p0, hbar):
    params = StandardMapParams(gamma=1.0, hbar=hbar, q0=q0, p0=p0)
    field = GField(params, n)
    assert field.split == (q0 == 0.0)
    budget = field.lattice_bytes
    del field
    tracemalloc.start()
    try:
        _gfield_probes(params, n)
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
    assert abs(lattice_probes(classical_params(), 2)[1, 0] - 5.0) < 1e-12


def test_step_quantum_probe():
    probes = lattice_probes(StandardMapParams(gamma=1.0, hbar=1.0), 2)
    assert abs(probes[1, 0] - QUANTUM_STEP1) < 1e-12


def test_step_zero_gamma_is_pure_shear():
    # free flight alone takes G(1, 1) to G(1, 1 + t): (v1 + v2 (1 + t)) exp(i q0)
    n = 3
    probes = lattice_probes(classical_params(gamma=0.0, q0=1.3), n)
    expected = (2.0 + np.arange(n + 1)) * np.exp(1.3j)
    assert np.max(np.abs(probes[:, 0] - expected)) < 1e-12
    assert np.max(np.abs(probes[:, 1] + np.conj(expected))) < 1e-12


# the cross-check of split mode: the whole-lattice reference forced to run
# direct at the same splittable base point
def test_split_and_direct_agree_classical():
    n = 25
    split = lattice_probes(classical_params(), n)[1:, 0]
    direct = full_lattice_probes(classical_params(), n, "direct")[1:, 0]
    scale = np.abs(split)
    assert np.max(np.abs(split - direct) / scale) < 1e-12


def test_split_and_direct_agree_quantum():
    n = 25
    params = StandardMapParams(gamma=1.0, hbar=1.0)
    split = lattice_probes(params, n)[1:, 0]
    direct = full_lattice_probes(params, n, "direct")[1:, 0]
    scale = np.maximum(np.abs(split), 1.0)
    assert np.max(np.abs(split - direct) / scale) < 1e-11


def test_split_and_direct_agree_elliptic():
    # the direct stencil seeds roundoff into fast lattice modes (kick factor
    # ~ k/2 at the window edge), so the comparison window stays short; the
    # split representation is the production path for long elliptic runs
    n = 8
    params = classical_params(q0=np.pi)
    split = lattice_probes(params, n)[1:, 0]
    direct = full_lattice_probes(params, n, "direct")[1:, 0]
    assert np.max(np.abs(split - direct)) < 1e-10


@pytest.mark.parametrize("hbar", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_engine_matches_brute_force(gamma, hbar):
    n = 8
    got = lattice_probes(StandardMapParams(gamma=gamma, hbar=hbar), n)
    expected = brute_force_probes(gamma, hbar, 1.0, n)
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("q0", [0.0, np.pi])
def test_split_column_sign_source_matches_brute_force(q0):
    # p0 tau = pi puts a (-1)^k column sign on the quantum source term
    n = 12
    params = StandardMapParams(gamma=1.0, hbar=1.0, q0=q0, p0=np.pi)
    assert GField(params, 1).split
    expected = brute_force_probes(1.0, 1.0, 1.0, n, q0=q0, p0=np.pi)
    np.testing.assert_allclose(lattice_probes(params, n), expected, rtol=1e-10, atol=0.0)


# no classical q0 = pi case: the dictionary lattice's own roundoff in
# exp(i pi j) grows through the unbounded classical kick coefficient
@pytest.mark.parametrize("mode, q0, hbar", [
    ("split", 0.0, 0.0), ("split", 0.0, 1.0), ("split", np.pi, 1.0),
    ("direct", 0.0, 0.0), ("direct", 0.0, 1.0), ("direct", 1.3, 0.0), ("direct", 1.3, 1.0)])
@pytest.mark.parametrize("keep", [(1, 1)])
def test_keep_window_matches_dictionary_lattice(keep, mode, q0, hbar, monkeypatch):
    # every cell of the probe window the cone keeps is stored after every
    # period, so a sweep hull that misses one shows here even when the probes
    # are right; direct at q0 = 0 is forced
    n = 10
    if mode == "direct":
        force_direct(monkeypatch)
    params = StandardMapParams(gamma=1.0, hbar=hbar, q0=q0)
    field = GField(params, n)
    assert field.split == (mode == "split")
    expected = brute_force_windows(1.0, hbar, 1.0, n, keep, q0=q0)
    probes = _gfield_probes(params, n)
    for t in range(n + 1):
        if t:
            field.advance()
        window = stored_window(field, keep)
        scale = max(1.0, np.max(np.abs(expected[t])))
        assert np.max(np.abs(window - expected[t])) <= 1e-10 * scale, t
        assert probes[t].tobytes() == np.array(field.probe_pair()).tobytes(), t


@pytest.mark.parametrize("mode", ["auto", "direct"])
@pytest.mark.parametrize("p0", [0.0, np.pi, 0.4])
@pytest.mark.parametrize("q0", [0.0, np.pi, 1.3])
@pytest.mark.parametrize("hbar", [0.0, 0.7, 1.0])
def test_half_lattice_equals_full_lattice(hbar, q0, p0, mode, monkeypatch):
    # rows j < 0 come from the mirror G(-j, -k) = -conj G(j, k); the full
    # sweep computes them, so any lost bit shows as an inequality.  Bytes, not
    # values, are compared: direct mode runs its complex cells as float pairs,
    # and that could differ from complex arithmetic in the sign of a zero.
    # Mode "direct" forces the direct path at the splittable base points too
    params = StandardMapParams(gamma=1.0, hbar=hbar, q0=q0, p0=p0, v1=0.6, v2=-1.1)
    expected = full_lattice_probes(params, 30, mode)
    if mode == "direct":
        force_direct(monkeypatch)
    assert _gfield_probes(params, 30).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, q0, split", [(200, 0.0, True), (140, 1.3, False)])
def test_half_lattice_equals_full_lattice_at_benchmark_size(n, q0, split):
    params = StandardMapParams(gamma=1.0, hbar=1.0, q0=q0)
    assert GField(params, 1).split == split
    assert _gfield_probes(params, n).tobytes() == full_lattice_probes(params, n).tobytes()


@pytest.mark.parametrize("n", [1, 2, 30])
def test_cone_table_keeps_the_rows_the_half_sweep_reads(n):
    J, K = lattice_extents(n)
    table, _, _ = _cone_table(n, J, K)
    assert table.shape == (n, 4, J + 2)
    assert np.array_equal(table, _full_cone_table(n, J, K)[:, :, J - 1 :])


def stored_ranges(field):
    """Comoving column range [lo, hi] each stored row j = 0..J holds (the
    lattice columns at t = 0)."""
    off = field._offset
    return [(off[j] - base, off[j + 1] - base - 1) for j, base in enumerate(field._base)]


@pytest.mark.parametrize("n", [1, 2, 3, 10, 30])
def test_stored_rows_are_the_cells_the_sweep_touches(n):
    # enumerate, period by period, every comoving column x = c + j t of row
    # j >= 0 the sweep reads or writes: row j over its own post-kick hull
    # (read and written) and over those of rows j - 1 and j + 1 (read into
    # their differences), and row 1 as the mirror of pre-kick row -1 over row
    # 0's post-kick hull (c -> 2K - c); row -1 is not swept
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0, q0=0.4), n)
    J, K = field.J, field.K
    table = _full_cone_table(n, J, K)
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
    field = GField(params, 12)
    assert not field.split
    k = np.arange(-field.K, field.K + 1)
    rows = []
    for j, (lo, hi) in enumerate(stored_ranges(field)):
        row = ((params.v1 * j + params.v2 * params.tau * k)
               * np.exp(1j * (params.q0 * j + params.p0 * params.tau * k)))
        rows.append(row[lo : hi + 1])
    assert field._dev.tobytes() == np.concatenate(rows).tobytes()


@pytest.mark.parametrize("hbar", [0.0, 1.0])
def test_dictionary_lattice_is_point_symmetric(hbar):
    # the symmetry the half-lattice engine rests on, checked on the plain
    # recursion: every cell whose mirror is also evolved, at every time
    window = (2, 3)
    targets = [(j, k) for j in range(-window[0], window[0] + 1)
               for k in range(-window[1], window[1] + 1)]
    lattices = _dictionary_lattice(1.0, hbar, 1.0, 10, targets, 0.6, -1.1, 0.4, 0.9)
    for t, cur in enumerate(lattices):
        cells = [cell for cell in cur if (-cell[0], -cell[1]) in cur]
        assert len(cells) >= len(targets), t
        got = np.array([cur[(-j, -k)] for j, k in cells])
        expected = np.array([-np.conj(cur[cell]) for cell in cells])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=f"t = {t}")


def test_classical_linearity_preserved_direct_mode(monkeypatch):
    # direct-mode stencil keeps linear data exactly linear (relative to the
    # field magnitude) over the stored window, period by period
    n = 20
    force_direct(monkeypatch)
    field = GField(classical_params(), n)
    assert not field.split
    j = np.arange(-1, 2)[:, None]
    k = np.arange(-1, 2)[None, :]
    for t in range(1, n + 1):
        field.advance()
        window = stored_window(field, (1, 1))
        g2, g3 = classical_closed_form(1.0, 1.0, 1.0, t)
        expected = g2 * j + g3 * k
        assert np.max(np.abs(window - expected)) < 1e-10 * np.max(np.abs(window)), t


# ---------------------------------------------------------------------------
# cone accounting
# ---------------------------------------------------------------------------


def test_probe_cell_outside_stored_cone_raises():
    # a period past the run's cone moves the probe cell out of row 1's storage
    field = GField(StandardMapParams(gamma=1.0, hbar=1.0, q0=0.4), 3)
    field.t = field.n_max + field.K
    with pytest.raises(ConeError, match="stored backward cone"):
        field.probe_pair()


def test_advance_past_budget_raises():
    field = GField(classical_params(), 2)
    field.advance()
    field.advance()
    with pytest.raises(ConeError):
        field.advance()


# ---------------------------------------------------------------------------
# plane-wave evaluation of the first-order law (hbar > 0)
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * np.pi

# (params, tolerance on |plane wave - reference| / max(1, |reference|)), the
# tolerance about 4 times the worst floor measured over the three references.
# Most cases sit at 1e-14 to 3e-14.  The wider ones, and their causes:
# - p0 tau = 2 pi (8.4e-13 against the whole lattice at n = 40): beta_m =
#   2 pi + m hbar tau / 2 is rounded, where the lattice's split mode carries
#   the exact multiple of pi;
# - q0 = pi (1.6e-12, the same reference): the plane waves start from
#   exp(i q0 j) at the rounded pi, the split lattice from exact signs;
# - tau = 0.5, p0 tau = pi (1.2e-13 against the dictionary lattice): the
#   dictionary lattice's own phases exp(i p0 tau k), k up to about 90;
# - hbar tau = 0.15 (5.4e-12 against the symbolic expansion, whose own
#   roundoff it is: the lattice reads 6.3e-12 there; 1.2e-12 against the
#   whole lattice): the probe sum cancels, kappa = 1.7e4 at n = 40.
PLANE_WAVE_CASES = {
    "origin": (StandardMapParams(1.0, hbar=1.0, v1=0.6, v2=-1.1), 1e-13),
    "generic": (StandardMapParams(1.0, hbar=1.0, q0=0.4, p0=0.9, v1=0.6, v2=-1.1), 1e-13),
    "p0tau-pi": (StandardMapParams(1.0, hbar=1.0, p0=np.pi), 1e-13),
    "p0tau-2pi": (StandardMapParams(1.0, hbar=1.0, p0=TWO_PI), 4e-12),
    "q0-pi": (StandardMapParams(1.0, hbar=1.0, q0=np.pi), 6e-12),
    "tau": (StandardMapParams(1.0, hbar=0.8, tau=0.7, q0=0.4, p0=0.9), 1e-13),
    "tau-p0tau-pi": (StandardMapParams(1.0, hbar=0.8, tau=0.5, p0=TWO_PI), 5e-13),
    "gamma-negative": (StandardMapParams(-0.8, hbar=1.0, v1=0.6, v2=-1.1), 1e-13),
    "gamma-zero": (StandardMapParams(0.0, hbar=1.0, v1=0.6, v2=-1.1), 1e-14),
    "resonant-2pi": (StandardMapParams(1.0, hbar=TWO_PI), 1e-14),
    "resonant-4pi": (StandardMapParams(1.0, hbar=2.0 * TWO_PI), 1e-14),
    "hbar-tau-0.15": (StandardMapParams(1.0, hbar=0.15), 2e-11),
}


def relative_gap(got, expected):
    return float(np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))))


def plane_wave_run(params, n):
    probes = _plane_wave_probes(params, n)
    assert probes is not None, "the plane-wave run was abandoned"
    return probes


@pytest.mark.parametrize("case", PLANE_WAVE_CASES)
def test_plane_waves_match_whole_lattice(case):
    params, tol = PLANE_WAVE_CASES[case]
    assert relative_gap(plane_wave_run(params, 40), full_lattice_probes(params, 40)) <= tol


@pytest.mark.parametrize("case", PLANE_WAVE_CASES)
def test_plane_waves_match_dictionary_lattice(case):
    params, tol = PLANE_WAVE_CASES[case]
    expected = brute_force_probes(params.gamma, params.hbar, params.tau, 12,
                                  params.v1, params.v2, params.q0, params.p0)
    assert relative_gap(plane_wave_run(params, 12), expected) <= tol


@pytest.mark.parametrize("case", [case for case, (params, _) in PLANE_WAVE_CASES.items()
                                  if params.tau == 1.0 and params.q0 == params.p0 == 0.0])
def test_plane_waves_match_symbolic_expansion(case):
    params, tol = PLANE_WAVE_CASES[case]
    expected = np.array([symbolic_expand(params, t) for t in range(11)])
    assert relative_gap(plane_wave_run(params, 10)[:, 0], expected) <= tol


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
def test_plane_wave_phases_stay_consistent_at_large_beta():
    # at p0 tau = 2 pi, hbar = 3 the phases beta_m reach 2 pi + 151.5; formed
    # as powers of exp(i beta_m) the plane waves are within 1.1e-13 of the
    # long-double recursion at n = 100, while phases formed as exp(i j beta_m)
    # row by row read 3.1e-12 (at hbar = 1: 7.3e-14 against 1.2e-12)
    params = StandardMapParams(1.0, hbar=3.0, p0=TWO_PI)
    expected = long_double_plane_wave_probes(params, 100)
    assert relative_gap(plane_wave_run(params, 100)[:, 0], expected) <= 4e-13


def test_plane_wave_probes_are_real_at_the_origin():
    # the terms at m and -m are conjugate bit for bit at p0 = 0 and are added
    # in pairs, so a real field gives real probes, as on the lattice
    probes = plane_wave_run(StandardMapParams(1.0, hbar=1.0), 200)
    assert not np.any(probes.imag)


def spy_on_plane_waves(monkeypatch):
    """Record every result `lattice_probes` gets from the plane-wave run."""
    results = []
    run = standard_map._plane_wave_probes

    def spy(params, n):
        results.append(run(params, n))
        return results[-1]

    monkeypatch.setattr(standard_map, "_plane_wave_probes", spy)
    return results


def test_lattice_probes_falls_back_where_plane_waves_lose_digits(monkeypatch):
    # at hbar tau = 0.05 the probe sum cancels: kappa passes 4.5e4 and the
    # run is abandoned for the lattice, which stays accurate there
    params = StandardMapParams(1.0, hbar=0.05)
    results = spy_on_plane_waves(monkeypatch)
    probes = lattice_probes(params, 60)
    assert len(results) == 1 and results[0] is None
    assert probes.tobytes() == _gfield_probes(params, 60).tobytes()


def test_lattice_probes_builds_no_lattice_at_benchmark_size(monkeypatch):
    params = StandardMapParams(1.0, hbar=1.0)

    def no_lattice(*args):
        raise AssertionError("a GField was built")

    monkeypatch.setattr(standard_map, "GField", no_lattice)
    assert lattice_probes(params, 200).tobytes() == plane_wave_run(params, 200).tobytes()


def test_lattice_probes_takes_the_lattice_at_hbar_zero(monkeypatch):
    results = spy_on_plane_waves(monkeypatch)
    params = StandardMapParams(1.0, q0=0.7)
    assert lattice_probes(params, 20).tobytes() == _gfield_probes(params, 20).tobytes()
    assert results == []


def test_plane_wave_overflow_keeps_the_lattice_error(monkeypatch):
    # the plane waves give up on the overflowing run; the lattice then raises
    # its own error at its own period
    params = StandardMapParams(1e4, hbar=1.0)
    results = spy_on_plane_waves(monkeypatch)
    with pytest.raises(NumericalError, match="left the finite range at period 76$"):
        lattice_probes(params, 100)
    assert len(results) == 1 and results[0] is None


def test_plane_waves_over_budget_allocate_nothing(monkeypatch):
    # one (n + 2) x (2n + 3) plane-wave array is 1.3 MB at n = 200; the
    # lattice then raises its budget error before it builds its cone table
    monkeypatch.setattr(standard_map, "MAX_BYTES", 500_000)
    results = spy_on_plane_waves(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="cone table .* float64"):
            lattice_probes(StandardMapParams(1.0, hbar=1.0), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results == [None]
    assert peak < 100_000


@pytest.mark.parametrize("n", [20, 60, 200])
@pytest.mark.parametrize("q0, p0", [(0.0, 0.0), (1.3, 0.4)])
def test_plane_wave_bytes_is_the_traced_peak(n, q0, p0):
    params = StandardMapParams(1.0, hbar=1.0, q0=q0, p0=p0)
    budget = _plane_wave_bytes(n)
    tracemalloc.start()
    try:
        probes = _plane_wave_probes(params, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probes is not None
    assert abs(peak - budget) <= 0.03 * budget


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
    probes = lattice_probes(params, 1)
    series = derivative_iteration(probes[:1], params)
    # the deviation from the classical value appears only at t >= 2
    assert series.g2[0] == 1.0 and series.g3[0] == 1.0
    full = derivative_iteration(probes, params)
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
