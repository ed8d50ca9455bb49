import tracemalloc

import pytest

from tomolyap import (
    ResourceError,
    StandardMapParams,
    ValidationError,
    lattice_probes,
    symbolic_expand,
)
from tomolyap.symbolic import M0, M_MINUS, M_PLUS, X0, Y0
from oracles import symbolic_expand_by_word_matrices

QUANTUM_STEP1 = 4.917702154416812  # 3 + 4 sin(1/2)


def lattice_probe(params, n):
    return lattice_probes(params, max(n, 1))[n, 0]


def test_empty_expansion():
    assert symbolic_expand(StandardMapParams(gamma=1.0), 0) == 2.0


def test_branch_traces_after_one_step():
    # base-vector transport under the three branch matrices
    assert (M0 @ X0).sum() == 3
    assert (M_PLUS @ X0).sum() == 5
    assert (M_MINUS @ X0).sum() == 1
    assert (M0 @ Y0).sum() == 2
    assert (M_PLUS @ Y0).sum() == 3
    assert (M_MINUS @ Y0).sum() == 1


def test_single_period_classical():
    assert abs(symbolic_expand(StandardMapParams(gamma=1.0), 1) - 5.0) < 1e-12


def test_single_period_quantum():
    value = symbolic_expand(StandardMapParams(gamma=1.0, hbar=1.0), 1)
    assert abs(value - QUANTUM_STEP1) < 1e-12


@pytest.mark.parametrize("hbar", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_expansion_matches_lattice(gamma, hbar):
    params = StandardMapParams(gamma=gamma, hbar=hbar)
    for n in range(9):
        symbolic = symbolic_expand(params, n)
        lattice = lattice_probe(params, n)
        scale = max(1.0, abs(lattice))
        assert abs(symbolic - lattice) / scale < 1e-9


@pytest.mark.parametrize("hbar", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2])
def test_column_sums_equal_word_matrices(gamma, hbar):
    params = StandardMapParams(gamma=gamma, hbar=hbar, v1=0.7, v2=-1.3)
    for n in range(13):
        assert symbolic_expand(params, n) == symbolic_expand_by_word_matrices(params, n)


def test_expansion_at_the_budget_keeps_a_bounded_working_set():
    # two 3^12 float64 vectors are 8.1 MiB; the integer sums of all words
    # at once would add over 20 MiB more
    tracemalloc.start()
    try:
        symbolic_expand(StandardMapParams(gamma=1.0, hbar=1.0), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_expansion_general_direction():
    params = StandardMapParams(gamma=1.0, hbar=1.0, v1=2.0, v2=-0.5)
    for n in (3, 5):
        assert abs(symbolic_expand(params, n) - lattice_probe(params, n)) < 1e-9


def test_budget_enforced():
    with pytest.raises(ResourceError):
        symbolic_expand(StandardMapParams(gamma=1.0), 13)


def test_requires_unit_period_and_origin_base_point():
    with pytest.raises(ValidationError):
        symbolic_expand(StandardMapParams(gamma=1.0, tau=2.0), 3)
    with pytest.raises(ValidationError):
        symbolic_expand(StandardMapParams(gamma=1.0, q0=0.5), 3)
