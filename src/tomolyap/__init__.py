"""Classical and quantum Lyapunov exponents for kicked systems, computed
through the marginal-distribution (symplectic tomography) representation of
phase-space dynamics."""

__version__ = "0.1.0"

import types as _types

from .errors import (
    ConeError,
    ConfigError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidDirectionError,
    NumericalError,
    ResourceError,
    TomolyapError,
    UnsupportedDirectionError,
    ValidationError,
)
from .estimator import ExponentEstimate, estimate_exponent, running_estimate
from .floquet import (
    CatVariant,
    FloquetMatrix,
    QuadraticModel,
    build_cat_model,
    cat_lyapunov,
    floquet_lambda,
    harmonic_derivative_series,
    harmonic_floquet_eigenvalues,
    harmonic_lyapunov,
    propagate_tomogram_params,
    verify_quadratic_deformation_vanishes,
)
from .hilbert import quantum_probes
from .oracle import KickedMapSpec, tangent_map_lyapunov
from .series import DerivativeSeries
from .standard_map import (
    StandardMapParams,
    classical_closed_form,
    classical_lyapunov,
    derivative_iteration,
    lattice_probes,
    run_standard_map,
)
from .symbolic import symbolic_expand
from .tomography import (
    GaussianDensity,
    GridDensity,
    Tomogram,
    WaveFunction,
    WignerGrid,
    forward_tomogram,
    gaussian_tomogram_family,
    inverse_tomogram,
    pure_state_tomogram,
    pure_state_tomogram_family,
    tomogram_mean_position,
    wigner_from_tomogram,
)

# the public names bound above; the submodules the imports bind are not API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
