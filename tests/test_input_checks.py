"""Input checks of the library entry points: each bad input raises
`ValidationError` with the message of its own check."""

import re

import numpy as np
import pytest

from tomolyap import (
    CatVariant,
    FloquetMatrix,
    GaussianDensity,
    GridDensity,
    QuadraticModel,
    StandardMapParams,
    ValidationError,
    WignerGrid,
    build_cat_model,
    classical_closed_form,
    derivative_iteration,
    floquet_lambda,
    forward_tomogram,
    gaussian_tomogram_family,
    harmonic_derivative_series,
    lattice_probes,
    propagate_tomogram_params,
    pure_state_tomogram_family,
    quantum_probes,
    symbolic_expand,
)
from tomolyap.standard_map import GField
from oracles import ground_state

PARAMS = StandardMapParams(1.0)
QUANTUM = StandardMapParams(1.0, hbar=1.0)
# a 5 x 5 grid with cell area 1/4 on which ones have mass 6.25
AXIS = np.linspace(-1.0, 1.0, 5)
UNEVEN = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])


def with_entry(value, fill=0.04):
    values = np.full((5, 5), fill)
    values[2, 2] = value
    return values

CASES = {
    "derivative_iteration-probe-columns": (
        lambda: derivative_iteration(np.zeros((4, 3)), PARAMS), "probes must be an"),
    "derivative_iteration-no-probes": (
        lambda: derivative_iteration(np.zeros((0, 2)), PARAMS), "probes must be an"),
    "harmonic_derivative_series-no-period": (
        lambda: harmonic_derivative_series(5.0, 0), "need at least one period"),
    "floquet_lambda-negative-kicks": (
        lambda: floquet_lambda(build_cat_model(CatVariant.H1), -1), "n_kicks must be nonnegative"),
    "QuadraticModel-dimension": (
        lambda: QuadraticModel(3, np.zeros((6, 6)), np.zeros((6, 6))), "dimension must be 1 or 2"),
    "QuadraticModel-B-shape": (
        lambda: QuadraticModel(2, np.zeros((2, 2)), np.zeros((2, 2))), "B matrices must be 4x4"),
    "QuadraticModel-tau": (
        lambda: QuadraticModel(1, np.eye(2), np.eye(2), tau=0.0), "tau must be positive"),
    "QuadraticModel-square": (
        lambda: QuadraticModel(1, np.zeros((2, 3)), np.zeros((2, 2))), "B0 must be a square matrix"),
    "FloquetMatrix-symplectic": (
        lambda: FloquetMatrix(2.0 * np.eye(2)), "matrix is not symplectic"),
    "propagate_tomogram_params-length": (
        lambda: propagate_tomogram_params(build_cat_model(CatVariant.H1), 1, np.zeros(3), np.zeros(2)),
        "mu and nu must be length-2 vectors"),
    "GField-n_max": (lambda: GField(PARAMS, 0), "n_max must be at least 1"),
    "lattice_probes-fraction": (
        lambda: lattice_probes(PARAMS, 2.5), "n_max must be an integer, got 2.5"),
    "lattice_probes-integral-float": (
        lambda: lattice_probes(PARAMS, 3.0), "n_max must be an integer, got 3.0"),
    "lattice_probes-bool": (lambda: lattice_probes(PARAMS, True), "n_max must be an integer, got True"),
    "lattice_probes-numpy-float": (
        lambda: lattice_probes(PARAMS, np.float64(20.5)), "n_max must be an integer, got 20.5"),
    "quantum_probes-fraction": (
        lambda: quantum_probes(QUANTUM, 2.5), "n_max must be an integer, got 2.5"),
    "quantum_probes-bool": (lambda: quantum_probes(QUANTUM, True), "n_max must be an integer, got True"),
    "classical_closed_form-negative-n": (
        lambda: classical_closed_form(1.0, 1.0, 1.0, -1), "n must be nonnegative"),
    "symbolic_expand-negative-n": (lambda: symbolic_expand(PARAMS, -1), "n must be nonnegative"),
    "GridDensity-shape": (
        lambda: GridDensity(AXIS, AXIS[:4], np.ones((5, 5))), "values must have shape (len(q), len(p))"),
    "GridDensity-axis": (
        lambda: GridDensity(UNEVEN, AXIS, np.ones((5, 5))), "q grid must be finite and uniformly increasing"),
    "GridDensity-non-finite": (
        lambda: GridDensity(AXIS, AXIS, with_entry(np.nan)), "density values must be finite"),
    "GridDensity-negative": (
        lambda: GridDensity(AXIS, AXIS, with_entry(-0.5)), "density has negative values (min -0.5)"),
    "GridDensity-mass": (
        lambda: GridDensity(AXIS, AXIS, np.ones((5, 5))), "density mass 6.25 deviates from 1 beyond 1e-06"),
    "WignerGrid-shape": (
        lambda: WignerGrid(AXIS[:4], AXIS, np.ones((5, 5))), "values must have shape (len(q), len(p))"),
    "WignerGrid-axis": (
        lambda: WignerGrid(AXIS, UNEVEN, np.ones((5, 5))), "p grid must be finite and uniformly increasing"),
    "WignerGrid-non-finite": (
        lambda: WignerGrid(AXIS, AXIS, with_entry(np.inf)), "Wigner mass inf deviates from 1 beyond 0.01"),
    "WignerGrid-mass": (
        lambda: WignerGrid(AXIS, AXIS, with_entry(-0.5, fill=0.25)),
        "Wigner mass 1.375 deviates from 1 beyond 0.01"),
    "gaussian_tomogram_family-zero": (
        lambda: gaussian_tomogram_family(GaussianDensity(), 0),
        "n_directions must be a positive integer, got 0"),
    "gaussian_tomogram_family-negative": (
        lambda: gaussian_tomogram_family(GaussianDensity(), -3),
        "n_directions must be a positive integer, got -3"),
    "gaussian_tomogram_family-fraction": (
        lambda: gaussian_tomogram_family(GaussianDensity(), 2.5),
        "n_directions must be a positive integer, got 2.5"),
    "forward_tomogram-negative-count": (
        lambda: forward_tomogram(GaussianDensity(), 1.0, 0.0, x_grid=-5),
        "x grid must be a 1-d grid with at least 2 points"),
    "pure_state_tomogram_family-zero": (
        lambda: pure_state_tomogram_family(ground_state(), 0),
        "n_directions must be a positive integer, got 0"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_own_validation_error(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
