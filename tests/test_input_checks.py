"""Input checks of the library entry points: each bad input raises
`ValidationError` with the message of its own check."""

import numpy as np
import pytest

from tomolyap import (
    CatVariant,
    FloquetMatrix,
    GField,
    QuadraticModel,
    StandardMapParams,
    ValidationError,
    build_cat_model,
    classical_closed_form,
    derivative_iteration,
    floquet_lambda,
    harmonic_derivative_series,
    propagate_tomogram_params,
    symbolic_expand,
)

PARAMS = StandardMapParams(1.0)

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
    "GField-mode": (lambda: GField(PARAMS, 2, mode="fast"), "unknown engine mode: fast"),
    "GField-keep": (lambda: GField(PARAMS, 2, keep=(0, 1)), "probe window must include"),
    "GField-split": (
        lambda: GField(StandardMapParams(1.0, q0=0.7), 2, mode="split"), "split mode needs"),
    "classical_closed_form-negative-n": (
        lambda: classical_closed_form(1.0, 1.0, 1.0, -1), "n must be nonnegative"),
    "symbolic_expand-negative-n": (lambda: symbolic_expand(PARAMS, -1), "n must be nonnegative"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_its_own_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
