"""Time series of the perturbation derivatives used for exponent extraction.

The growth rate of an infinitesimal phase-space perturbation is read off the
pair of first derivatives of the perturbation symbol at the origin of the
(mu, nu) parameter plane.  Every kicked-system engine in this package emits
one :class:`DerivativeSeries`; the exponent estimator consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class DerivativeSeries:
    """Per-period samples of the two perturbation derivatives.

    ``g2[t]`` is the derivative along mu at the origin after t kick periods,
    ``g3[t]`` the derivative along nu.  Both are stored complex; engines with
    real dynamics simply leave the imaginary parts at zero.  ``probe_values``
    optionally carries the raw lattice probe G(1, 1, tau, t) used to drive the
    iteration (handy for reports and trend checks).
    """

    g2: np.ndarray
    g3: np.ndarray
    probe_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.g2 = np.asarray(self.g2, dtype=complex)
        self.g3 = np.asarray(self.g3, dtype=complex)
        if self.g2.ndim != 1 or self.g2.shape != self.g3.shape:
            raise ValidationError("g2 and g3 must be 1-d arrays of equal length")
        if self.probe_values is not None:
            self.probe_values = np.asarray(self.probe_values, dtype=complex)

    def __len__(self) -> int:
        return self.g2.shape[0]

    def norms(self) -> np.ndarray:
        """Euclidean norm of the complex pair at each time.

        Past about 1e154 the squares overflow and the norm is inf, without a
        warning; the estimator rejects a non-finite norm in its window.
        """
        with np.errstate(over="ignore"):
            return np.sqrt(np.abs(self.g2) ** 2 + np.abs(self.g3) ** 2)
