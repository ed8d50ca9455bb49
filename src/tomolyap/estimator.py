"""Lyapunov exponent extraction from derivative time series.

The exponent is the large-time growth rate of ``ln ||(g2(t), g3(t))||``.  A
finite run only ever sees a window of that limit, so the estimate is a
least-squares slope over the last half of the series, with a zero/positive
classification that is robust against the polynomial prefactors produced by
non-chaotic dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, ValidationError
from .series import DerivativeSeries

#: Slopes smaller than this (and than 3 standard errors) classify as zero.
ZERO_SLOPE_THRESHOLD = 0.02

#: Minimum series length accepted by estimate_exponent.
MIN_SERIES_LENGTH = 16


@dataclass(frozen=True)
class ExponentEstimate:
    slope: float
    intercept: float
    stderr: float
    window: tuple[int, int]
    classification: str  # "zero" | "positive" | "negative"

    def __post_init__(self) -> None:
        t_lo, t_hi = self.window
        if not t_lo < t_hi:
            raise ValidationError(f"estimate window must satisfy t_lo < t_hi, got {self.window}")
        if self.stderr < 0:
            raise ValidationError("stderr must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "window": list(self.window),
            "classification": self.classification,
        }


def _classify(slope: float, stderr: float) -> str:
    if abs(slope) < max(3.0 * stderr, ZERO_SLOPE_THRESHOLD):
        return "zero"
    return "positive" if slope > 0 else "negative"


def estimate_exponent(series: DerivativeSeries) -> ExponentEstimate:
    """Least-squares growth rate of the log norm over the last half.

    The fit window is the inclusive index pair (t_max // 2, t_max), with
    t_max = len(series) - 1; it is returned as `ExponentEstimate.window`.
    Norms must be strictly positive and finite on the window.
    """
    n = len(series)
    if n < MIN_SERIES_LENGTH:
        raise ValidationError(f"series too short for estimation: {n} < {MIN_SERIES_LENGTH}")
    norms = series.norms()
    if not np.any(norms > 0):
        raise DegenerateSeriesError("all norms are zero")
    t_hi = n - 1
    t_lo = t_hi // 2
    w = norms[t_lo : t_hi + 1]
    if np.any(w == 0):
        raise DegenerateSeriesError("zero norm inside the fit window")
    if not np.all(np.isfinite(w)):
        raise DegenerateSeriesError("non-finite norm inside the fit window")

    t = np.arange(t_lo, t_hi + 1, dtype=float)
    y = np.log(w)
    tc = t - t.mean()
    stt = np.dot(tc, tc)
    slope = float(np.dot(tc, y) / stt)
    intercept = float(y.mean() - slope * t.mean())
    resid = y - (intercept + slope * t)
    m = len(t)
    if m > 2:
        stderr = float(np.sqrt(np.dot(resid, resid) / (m - 2) / stt))
    else:
        stderr = 0.0
    return ExponentEstimate(slope, intercept, stderr, (t_lo, t_hi), _classify(slope, stderr))


def running_estimate(series: DerivativeSeries) -> np.ndarray:
    """Convergence diagnostic: two-point rate over a moving tail.

    Returns rows (t, lam_hat(t)) for t = 1 .. t_max with

        lam_hat(t) = ln(||.||(t) / ||.||(t0)) / (t - t0),   t0 = t // 2,

    i.e. the reference point trails at half the elapsed time, mirroring the
    estimator's default last-half window.  Exponential growth gives a constant
    sequence; polynomial growth decays to zero like log(t)/t.
    """
    n = len(series)
    if n < 4:
        raise ValidationError(f"series too short for a running estimate: {n} < 4")
    norms = series.norms()
    rows = np.empty((n - 1, 2))
    for t in range(1, n):
        t0 = t // 2
        if norms[t0] == 0:
            raise DegenerateSeriesError(f"zero norm at reference time t0={t0}")
        rows[t - 1] = (t, np.log(norms[t] / norms[t0]) / (t - t0))
    return rows
