"""Forward and inverse symplectic tomography for one degree of freedom.

A phase-space state rho(q, p) is represented by the family of its marginal
distributions

    w(X, mu, nu) = Int rho(q, p) delta(X - mu q - nu p) dq dp,

one nonnegative, X-normalized probability density per direction (mu, nu).
The same object exists for quantum states (where rho is replaced by the
Wigner function), which is what makes these marginals a common language for
classical and quantum dynamics.

Conventions
-----------
* Homogeneity  w(s X, s mu, s nu) = |s|^-1 w(X, mu, nu)  is enforced exactly:
  every direction is internally reduced to the unit circle before quadrature.
* Reconstructions (`inverse_tomogram`, `wigner_from_tomogram`) share one
  filtered back-projection pipeline and both use the normalization in which
  the reconstructed function integrates to 1 over (q, p).  For n = 1 the
  marginal-to-Wigner and marginal-to-density inversion formulas coincide up
  to this choice of prefactor; we pin the probability convention.
* Wave functions carry their own hbar; X = mu q + nu p throughout.

Default grids: 256 X points spanning 8 standard deviations of X on either
side of its mean, and 64 projection angles.  Every state type
(`GaussianDensity`, `GridDensity`, `WaveFunction`) answers
`projected_moments(mu, nu)`, the mean and variance of X that size a window.
A single tomogram also takes a point count (of any integer type) or an
explicit uniform grid.  Both families come from one builder, which puts all
directions on one grid over the union of their windows; they differ only in
their directions, theta_i = i pi / n for densities and (i + 1/2) pi / n for
wave functions.  A reconstruction spans the family's X window.

Cost: a Gaussian tomogram integrates `GAUSSIAN_LINE_POINTS` (2001) line
points per X, and a gridded density one point per half grid step across its
diagonal; both sweep blocks of X rows holding at most `LINE_BLOCK_POINTS`
line points (4 rows at 2001), so every temporary stays within 64 KiB.  That is below glibc's mmap
threshold, so the blocks reuse freed heap memory instead of faulting in a
fresh mapping each time: a 64-direction Gaussian family takes under 20 minor
page faults in a fresh process.  A pure-state tomogram is one chirp-z
transform of the N wave-function samples onto the M X points, computed by
Bluestein's algorithm with one zero-padded FFT convolution:
O((N + M) log(N + M)) rather than N M complex exponentials.

Imports: numpy only.  The line quadratures use `_simpson_rows`, which on
their odd numbers of points is scipy's composite Simpson expression and bit
for bit `scipy.integrate.simpson`; gridded densities are read by
`GridDensity.pdf`, a bilinear interpolation that agrees with scipy's
`RegularGridInterpolator` to roundoff.  Tomogram moments and pure-state
tomograms use `_simpson_weights`, the same rule as a weight vector.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidDirectionError,
    UnsupportedDirectionError,
    ValidationError,
)

DEFAULT_X_POINTS = 256
DEFAULT_DIRECTIONS = 64
SUPPORT_SIGMAS = 8.0

#: Line points of a Gaussian tomogram, within 10 standard deviations either
#: side of each line's centre (odd, as `_simpson_rows` needs).
GAUSSIAN_LINE_POINTS = 2001

#: Line points per block of the line quadratures: a block holds
#: max(1, LINE_BLOCK_POINTS // points per line) X rows, so each float64
#: temporary stays within 64 KiB.  Larger temporaries cross glibc's mmap
#: threshold and are mapped and zero-faulted anew on every block.
LINE_BLOCK_POINTS = 8192

#: Allowance for quadrature jitter when validating nonnegative data.
NEGATIVITY_JITTER = 1e-12


def _require_uniform(axis: np.ndarray, name: str) -> float:
    if axis.ndim != 1 or axis.size < 2:
        raise ValidationError(f"{name} must be a 1-d grid with at least 2 points")
    steps = np.diff(axis)
    d = steps[0]
    # written so that a NaN or infinite sample fails the check
    if not (0 < d < np.inf and np.all(np.abs(steps - d) <= 1e-9 * d)):
        raise ValidationError(f"{name} must be finite and uniformly increasing")
    return float(d)


@lru_cache(maxsize=16)
def _simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w with w @ f equal to `simpson(f, dx=dx)` for n >= 2 samples.

    Odd n is composite Simpson (1, 4, 2, ..., 4, 1) dx/3; even n applies it to
    the first n - 1 samples and adds Cartwright's last-interval correction
    (-1/12, 2/3, 5/12) dx, as scipy does; n = 2 is the trapezoid.  Built
    once per grid, shared by every tomogram on it, so the array is read-only.
    """
    n_odd = n - 1 + n % 2
    w = np.zeros(n)
    w[1 : n_odd - 1 : 2] = 4.0 * dx / 3.0
    w[2 : n_odd - 1 : 2] = 2.0 * dx / 3.0
    w[0] = w[n_odd - 1] = dx / 3.0
    if n == 2:
        w[:] = 0.5 * dx
    elif n % 2 == 0:
        w[-3:] += np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0]) * dx
    w.flags.writeable = False
    return w


def _check_direction(mu: float, nu: float) -> float:
    """Length of a usable direction (mu, nu): finite and not the zero vector."""
    if not np.isfinite([mu, nu]).all():
        raise InvalidDirectionError(f"direction ({mu}, {nu}) must be finite")
    r = float(np.hypot(mu, nu))
    if r == 0.0:
        raise InvalidDirectionError("direction (mu, nu) must not be the zero vector")
    return r


def resolve_grid(spec, moments) -> np.ndarray:
    """Turn a grid spec into an array of sample points.

    Accepts None (`DEFAULT_X_POINTS` points over mean +- `SUPPORT_SIGMAS`
    deviations of X), an integer point count over the same window, or an
    explicit uniform array.  `moments()` gives X's mean and variance; it is
    called only for a point count.
    """
    if spec is None:
        spec = DEFAULT_X_POINTS
    if isinstance(spec, numbers.Integral):
        center, var = moments()
        width = SUPPORT_SIGMAS * np.sqrt(var)
        # a negative count is an empty grid, which the check below rejects
        arr = np.linspace(center - width, center + width, max(spec, 0))
    else:
        arr = np.asarray(spec, dtype=float)
    _require_uniform(arr, "x grid")
    return arr


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianDensity:
    """Analytic Gaussian phase-space density (always normalized)."""

    mean_q: float = 0.0
    mean_p: float = 0.0
    sigma_q: float = 1.0
    sigma_p: float = 1.0
    correlation: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite([self.mean_q, self.mean_p]).all():
            raise ValidationError("mean_q and mean_p must be finite")
        if not (0 < self.sigma_q < np.inf and 0 < self.sigma_p < np.inf):
            raise ValidationError("sigma_q and sigma_p must be positive and finite")
        if not -1.0 < self.correlation < 1.0:
            raise ValidationError("correlation must lie in (-1, 1)")

    def covariance(self) -> np.ndarray:
        c = self.correlation * self.sigma_q * self.sigma_p
        return np.array([[self.sigma_q**2, c], [c, self.sigma_p**2]])

    def pdf(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Density evaluated elementwise on broadcastable q, p arrays."""
        sq, sp, r = self.sigma_q, self.sigma_p, self.correlation
        # exp(-(dq^2 - 2 r dq dp + dp^2) / (2 (1 - r^2))) / norm, updated in
        # place on broadcast-shaped arrays: the same operations in the same
        # order as the plain expression, so the same roundings.  The line
        # quadratures pass equal shapes, and skip the broadcast call, which
        # costs about as much as one pass over a block.
        if np.shape(q) != np.shape(p):
            q, p = np.broadcast_arrays(q, p)
        dq = np.subtract(q, self.mean_q, dtype=float)
        dq /= sq
        dp = np.subtract(p, self.mean_p, dtype=float)
        dp /= sp
        quad = dq * dq
        dq *= 2.0 * r
        dq *= dp
        quad -= dq
        dp *= dp
        quad += dp
        quad /= 1.0 - r * r
        quad *= -0.5
        quad = np.exp(quad)
        quad /= 2.0 * np.pi * sq * sp * np.sqrt(1.0 - r * r)
        return quad

    def projected_moments(self, mu: float, nu: float) -> tuple[float, float]:
        """Mean and variance of X = mu q + nu p."""
        mean = mu * self.mean_q + nu * self.mean_p
        var = float(np.array([mu, nu]) @ self.covariance() @ np.array([mu, nu]))
        return mean, var


@dataclass
class WignerGrid:
    """Wigner function on a uniform (q, p) grid; values may be negative.

    values[i, j] is the value at (q[i], p[j]).  Normalized so that the grid
    sum times the cell area is 1 within `norm_tol` = 1e-2, the quadrature
    accuracy of the shared reconstruction pipeline, whose probability
    convention this is.  The grid, shape and mass checks here are the only
    ones; `GridDensity` adds its checks on the values.
    """

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray
    norm_tol: ClassVar[float] = 1e-2
    _kind: ClassVar[str] = "Wigner"

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.dq = _require_uniform(self.q, "q grid")
        self.dp = _require_uniform(self.p, "p grid")
        if self.values.shape != (self.q.size, self.p.size):
            raise ValidationError("values must have shape (len(q), len(p))")
        self._check_values()
        mass = self.mass()
        if not abs(mass - 1.0) <= self.norm_tol:
            raise ValidationError(f"{self._kind} mass {mass:.8g} deviates from 1 beyond {self.norm_tol:g}")

    def _check_values(self) -> None:
        """Checks on the values that run before the mass check; none here."""

    def mass(self) -> float:
        return float(self.values.sum() * self.dq * self.dp)


@dataclass
class GridDensity(WignerGrid):
    """Phase-space density sampled on a uniform (q, p) grid.

    values[i, j] is the density at (q[i], p[j]).  Beyond the grid checks of
    `WignerGrid`, the values must be finite and nonnegative, and the mass
    must be 1 within `norm_tol`, which exists because numerical
    reconstructions are only normalized to their documented quadrature
    tolerance.
    """

    norm_tol: float = 1e-6
    _kind: ClassVar[str] = "density"

    def _check_values(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValidationError("density values must be finite")
        if np.min(self.values) < -NEGATIVITY_JITTER:
            raise ValidationError(f"density has negative values (min {np.min(self.values):g})")

    def pdf(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the samples at broadcastable q, p arrays.

        Points on the grid's edges interpolate; points beyond them, or not
        finite, give 0.  The cell index comes from the uniform step and the
        weights from the cell's own end points, as
        `scipy.interpolate.RegularGridInterpolator` forms them.
        """
        q, p = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(p, dtype=float))
        inside = (q >= self.q[0]) & (q <= self.q[-1]) & (p >= self.p[0]) & (p <= self.p[-1])
        # points outside are evaluated at the first node, then masked
        q = np.where(inside, q, self.q[0])
        p = np.where(inside, p, self.p[0])
        i = np.minimum(((q - self.q[0]) / self.dq).astype(np.intp), self.q.size - 2)
        j = np.minimum(((p - self.p[0]) / self.dp).astype(np.intp), self.p.size - 2)
        tq = (q - self.q[i]) / (self.q[i + 1] - self.q[i])
        tp = (p - self.p[j]) / (self.p[j + 1] - self.p[j])
        v = self.values
        out = ((v[i, j] * (1.0 - tq) + v[i + 1, j] * tq) * (1.0 - tp)
               + (v[i, j + 1] * (1.0 - tq) + v[i + 1, j + 1] * tq) * tp)
        return np.where(inside, out, 0.0)

    @cached_property
    def _mass_and_means(self) -> tuple[float, float, float]:
        # once per density: a family asks for projected_moments per direction
        mass = self.mass()
        mq = float((self.values * self.q[:, None]).sum() * self.dq * self.dp)
        mp = float((self.values * self.p[None, :]).sum() * self.dq * self.dp)
        return mass, mq / mass, mp / mass

    def moments(self) -> tuple[float, float]:
        return self._mass_and_means[1:]

    def projected_moments(self, mu: float, nu: float) -> tuple[float, float]:
        mass, mq, mp = self._mass_and_means
        mean = mu * mq + nu * mp
        x = mu * self.q[:, None] + nu * self.p[None, :]
        var = float((self.values * (x - mean) ** 2).sum() * self.dq * self.dp / mass)
        return mean, var


PhaseSpaceDensity = Union[GaussianDensity, GridDensity]


@dataclass
class WaveFunction:
    """Complex wave function samples on a uniform coordinate grid."""

    y: np.ndarray
    psi: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        self.dy = _require_uniform(self.y, "y grid")
        if self.psi.shape != self.y.shape:
            raise ValidationError("psi must match the y grid")
        if not np.isfinite(self.psi).all():
            raise ValidationError("psi must be finite")
        if not 0 < self.hbar < np.inf:
            raise ValidationError("hbar must be positive and finite")
        norm = float(np.sum(np.abs(self.psi) ** 2) * self.dy)
        if not abs(norm - 1.0) <= 1e-6:
            raise ValidationError(f"wave function norm {norm:.8g} deviates from 1 beyond 1e-06")

    def position_moments(self) -> tuple[float, float]:
        prob = np.abs(self.psi) ** 2
        mean = float(np.sum(prob * self.y) * self.dy)
        var = float(np.sum(prob * (self.y - mean) ** 2) * self.dy)
        return mean, var

    def momentum_moments(self) -> tuple[float, float]:
        """Mean and variance of p from the numerical derivative of psi."""
        dpsi = np.gradient(self.psi, self.dy)
        mean = float(self.hbar * np.imag(np.sum(np.conj(self.psi) * dpsi)) * self.dy)
        second = float(self.hbar**2 * np.sum(np.abs(dpsi) ** 2) * self.dy)
        return mean, second - mean**2

    @cached_property
    def _moments(self) -> tuple[tuple[float, float], tuple[float, float]]:
        # once per wave function: a family asks for projected_moments per
        # direction, and np.gradient is the costly part
        return self.position_moments(), self.momentum_moments()

    def projected_moments(self, mu: float, nu: float) -> tuple[float, float]:
        """Mean of X = mu q + nu p, and mu^2 var(q) + nu^2 var(p) floored at
        1e-12.

        The variance leaves out the q-p covariance, so it is exact only for
        states without one; it sizes X windows.
        """
        (my, vy), (mp, vp) = self._moments
        return mu * my + nu * mp, max(mu ** 2 * vy + nu ** 2 * vp, 1e-12)


@dataclass
class Tomogram:
    """Marginal distribution of X = mu q + nu p sampled on a uniform X grid.

    Its Simpson mass must be 1 within 1e-4.
    """

    x: np.ndarray
    values: np.ndarray
    mu: float
    nu: float

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_direction(self.mu, self.nu)
        self.dx = _require_uniform(self.x, "X grid")
        if self.values.shape != self.x.shape:
            raise ValidationError("values must match the X grid")
        if not np.isfinite(self.values).all():
            raise ValidationError("tomogram values must be finite")
        if np.min(self.values) < -NEGATIVITY_JITTER:
            raise ValidationError(f"tomogram has negative values (min {np.min(self.values):g})")
        mass = self.mass()
        if not abs(mass - 1.0) <= 1e-4:
            raise ValidationError(f"tomogram mass {mass:.8g} deviates from 1 beyond 0.0001")

    def mass(self) -> float:
        return float(_simpson_weights(self.x.size, self.dx) @ self.values)

    def mean(self) -> float:
        return float(_simpson_weights(self.x.size, self.dx) @ (self.values * self.x) / self.mass())

    def variance(self) -> float:
        m = self.mean()
        w = _simpson_weights(self.x.size, self.dx)
        return float(w @ (self.values * (self.x - m) ** 2) / self.mass())


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def _simpson_rows(y: np.ndarray, dx: float) -> np.ndarray:
    """Simpson's rule along the last axis of `y`, for an odd number of
    samples `dx` apart.

    The composite rule written as `scipy.integrate.simpson` writes it, so the
    sums are bit for bit scipy's.
    """
    n = y.shape[-1]
    # (y0 + 4 y1) + y2 formed as (4 y1 + y0) + y2 in one temporary; a sum of
    # two terms does not depend on their order, so the roundings are scipy's
    acc = 4.0 * y[..., 1 : n - 1 : 2]
    acc += y[..., 0 : n - 2 : 2]
    acc += y[..., 2:n:2]
    out = np.sum(acc, axis=-1)
    out *= dx / 3.0
    return out


def _line_quadrature(pdf, xhat: np.ndarray, mu_u: float, nu_u: float, s: np.ndarray) -> np.ndarray:
    """Simpson integrals of `pdf(q, p)` along the lines mu_u q + nu_u p = xhat.

    Arc-length parametrization for a unit direction: base point
    X (mu_u, nu_u), tangent (-nu_u, mu_u), sampled at the uniform `s`.
    Simpson acts on each X row alone, so a block of rows at a time gives the
    same values as one full array, with temporaries of at most
    `LINE_BLOCK_POINTS` samples that stay in cache.
    """
    ds = s[1] - s[0]
    s_q = s[None, :] * (-nu_u)
    s_p = s[None, :] * mu_u
    rows = max(1, LINE_BLOCK_POINTS // s.size)
    out = np.empty(xhat.size)
    for start in range(0, xhat.size, rows):
        xb = xhat[start : start + rows, None]
        out[start : start + rows] = _simpson_rows(pdf(xb * mu_u + s_q, xb * nu_u + s_p), ds)
    return out


def _line_quadrature_gaussian(density: GaussianDensity, xhat: np.ndarray, mu_u: float,
                              nu_u: float) -> np.ndarray:
    tangent = np.array([-nu_u, mu_u])
    var_t = float(tangent @ density.covariance() @ tangent)
    s_center = float((np.array([density.mean_q, density.mean_p]) @ tangent))
    half = 10.0 * np.sqrt(var_t)
    s = np.linspace(s_center - half, s_center + half, GAUSSIAN_LINE_POINTS)
    return _line_quadrature(density.pdf, xhat, mu_u, nu_u, s)


def _line_quadrature_grid(density: GridDensity, xhat: np.ndarray, mu_u: float, nu_u: float) -> np.ndarray:
    # an odd number of points, half a grid step apart, over the grid's
    # diagonal plus two steps
    half = 0.5 * np.hypot(density.q[-1] - density.q[0], density.p[-1] - density.p[0])
    center = np.array([0.5 * (density.q[0] + density.q[-1]), 0.5 * (density.p[0] + density.p[-1])])
    tangent = np.array([-nu_u, mu_u])
    s_center = float(center @ tangent)
    ds = 0.5 * min(density.dq, density.dp)
    half += 2.0 * max(density.dq, density.dp)
    n_line = 2 * int(np.ceil(half / ds)) + 1
    s = np.linspace(s_center - half, s_center + half, n_line)
    return _line_quadrature(density.pdf, xhat, mu_u, nu_u, s)


def forward_tomogram(density: PhaseSpaceDensity, mu: float, nu: float, x_grid=None) -> Tomogram:
    """Marginal distribution of X = mu q + nu p by direct line integration.

    The delta constraint is integrated along the line itself (arc-length
    parametrization), which keeps the output nonnegative by construction and
    makes the homogeneity scaling exact: internally only the unit direction
    (mu, nu)/r is ever used and the result is scaled by 1/r.

    Densities are validated at construction, so any density accepted here is
    normalized; the output is normalized in X to quadrature accuracy.
    `x_grid` is as `resolve_grid` takes it.  A Gaussian density takes
    `GAUSSIAN_LINE_POINTS` line points, a gridded density one per half grid
    step.
    """
    r = _check_direction(mu, nu)
    mu_u, nu_u = mu / r, nu / r

    x = resolve_grid(x_grid, lambda: density.projected_moments(mu, nu))
    xhat = x / r

    if isinstance(density, GaussianDensity):
        w_unit = _line_quadrature_gaussian(density, xhat, mu_u, nu_u)
    elif isinstance(density, GridDensity):
        w_unit = _line_quadrature_grid(density, xhat, mu_u, nu_u)
    else:
        raise ValidationError(f"unsupported density type: {type(density).__name__}")
    return Tomogram(x, w_unit / r, mu, nu)


def _tomogram_family(state, n_directions: int, offset: float, tomogram) -> list[Tomogram]:
    """`tomogram(state, cos t, sin t, x_grid=...)` over t_i = (i + offset) pi / n
    on one X grid wide enough for every direction.

    The grid has `DEFAULT_X_POINTS` points over the union of the windows
    mean +- `SUPPORT_SIGMAS` deviations that `state.projected_moments` gives
    per direction.
    """
    if not (isinstance(n_directions, numbers.Integral) and n_directions > 0):
        raise ValidationError(f"n_directions must be a positive integer, got {n_directions}")
    thetas = (np.arange(n_directions) + offset) * np.pi / n_directions
    directions = [(np.cos(t), np.sin(t)) for t in thetas]
    moments = [state.projected_moments(mu, nu) for mu, nu in directions]
    lo = min(mean - SUPPORT_SIGMAS * np.sqrt(var) for mean, var in moments)
    hi = max(mean + SUPPORT_SIGMAS * np.sqrt(var) for mean, var in moments)
    x_grid = np.linspace(lo, hi, DEFAULT_X_POINTS)
    return [tomogram(state, mu, nu, x_grid=x_grid) for mu, nu in directions]


def gaussian_tomogram_family(density: PhaseSpaceDensity,
                             n_directions: int = DEFAULT_DIRECTIONS) -> list[Tomogram]:
    """Tomograms over theta_i = i pi / n on one X grid wide enough for every
    direction (for inversion)."""
    return _tomogram_family(density, n_directions, 0.0, forward_tomogram)


# ---------------------------------------------------------------------------
# pure-state tomogram
# ---------------------------------------------------------------------------


def pure_state_tomogram(psi: WaveFunction, mu: float, nu: float, x_grid=None) -> Tomogram:
    """Quadrature marginal of a pure state for nu != 0.

    w(X, mu, nu) = |Int psi(y) exp[(i/hbar)(mu y^2 / (2 nu) - y X / nu)] dy|^2
                   / (2 pi hbar |nu|)

    evaluated by Simpson quadrature on the wave function's own grid.  The
    nu -> 0 limit collapses to the position marginal; use `forward_tomogram`
    on a density built from |psi|^2 for that case.  The grid must resolve the
    chirp: a phase step |mu| max|y| dy / (|nu| hbar) above pi per sample
    raises `ValidationError` instead of aliasing.

    Both grids are uniform, so the sum over the N samples y_b for all M
    points X_a is one chirp-z transform, computed by Bluestein's algorithm:
    with X_a = X_0 + a dX, y_b = y_0 + b dy and a b = (a^2 + b^2 - (a - b)^2)/2,

        sum_b h_b exp(-i alpha a b) = exp(-i alpha a^2/2) sum_b
            [h_b exp(-i alpha b^2/2)] exp(i alpha (a - b)^2/2),

    alpha = dX dy / (nu hbar), a linear convolution done by one zero-padded
    FFT of length >= N + M - 1.  The cost is O((N + M) log(N + M)) and no
    N x M array of phases is formed; the per-X phase in front drops out of
    |.|^2.
    """
    _check_direction(mu, nu)
    if nu == 0.0:
        raise UnsupportedDirectionError(
            "nu = 0 reduces to the position marginal of |psi|^2; use forward_tomogram")
    hbar = psi.hbar
    # the chirp exp(i mu y^2 / (2 nu hbar)) turns by mu y dy / (nu hbar) per
    # sample; beyond pi the Simpson sum aliases
    chirp_step = abs(mu) * np.max(np.abs(psi.y)) * psi.dy / (abs(nu) * hbar)
    if chirp_step > np.pi:
        raise ValidationError(
            f"y grid [{psi.y[0]:g}, {psi.y[-1]:g}] with dy = {psi.dy:g} under-resolves the "
            f"chirp at (mu, nu) = ({mu:g}, {nu:g}): its phase step {chirp_step:.3g} rad "
            "per sample exceeds pi")
    x = resolve_grid(x_grid, lambda: psi.projected_moments(mu, nu))
    y = psi.y
    n, m = y.size, x.size
    scale = 1.0 / (nu * hbar)
    alpha = (x[-1] - x[0]) / (m - 1) * (y[-1] - y[0]) / (n - 1) * scale
    b = np.arange(n, dtype=float)
    h = (_simpson_weights(n, psi.dy) * psi.psi
         * np.exp(1j * (0.5 * mu * y * y * scale - x[0] * y * scale - 0.5 * alpha * b * b)))
    size = 1 << (n + m - 2).bit_length()
    k = np.arange(size, dtype=float)
    k[m:] -= size  # lags 0..m-1, then -(n-1)..-1 wrapped to the end
    chirp = np.exp(0.5j * alpha * k * k)
    amps = np.fft.ifft(np.fft.fft(h, size) * np.fft.fft(chirp))[:m]
    values = np.abs(amps) ** 2 / (2.0 * np.pi * hbar * abs(nu))
    return Tomogram(x, values, mu, nu)


def pure_state_tomogram_family(psi: WaveFunction,
                               n_directions: int = DEFAULT_DIRECTIONS) -> list[Tomogram]:
    """Pure-state tomograms over theta_i = (i + 1/2) pi / n on one grid wide
    enough for every direction.

    The half-step offset keeps every direction away from nu = 0 (which the
    pure-state quadrature cannot represent) while remaining an equally spaced
    family over [0, pi) as the reconstruction requires.
    """
    return _tomogram_family(psi, n_directions, 0.5, pure_state_tomogram)


# ---------------------------------------------------------------------------
# inverse maps (shared filtered back-projection)
# ---------------------------------------------------------------------------

MIN_DIRECTIONS = 32


def _validate_family(tomograms: Sequence[Tomogram]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(tomograms) < MIN_DIRECTIONS:
        raise InsufficientDataError(
            f"reconstruction needs at least {MIN_DIRECTIONS} directions, got {len(tomograms)}")
    x0 = tomograms[0].x
    thetas = []
    for tom in tomograms:
        if tom.x.shape != x0.shape or np.max(np.abs(tom.x - x0)) > 1e-9 * (abs(x0[-1]) + abs(x0[0]) + 1):
            raise ValidationError("all tomograms must share a common X grid")
        r = np.hypot(tom.mu, tom.nu)
        if abs(r - 1.0) > 1e-9:
            raise ValidationError("reconstruction expects unit directions (cos t, sin t)")
        th = np.arctan2(tom.nu, tom.mu)
        if th < -1e-12 or th >= np.pi - 1e-12:
            raise ValidationError("directions must lie in the half circle theta in [0, pi)")
        thetas.append(max(th, 0.0))
    thetas = np.asarray(thetas)
    order = np.argsort(thetas)
    thetas = thetas[order]
    gaps = np.diff(thetas)
    target = np.pi / len(tomograms)
    if np.any(np.abs(gaps - target) > 1e-9):
        raise ValidationError("directions must be equally spaced over [0, pi)")
    ws = np.stack([tomograms[i].values for i in order])
    return x0, thetas, ws


def _ramp_kernel(n: int, dx: float) -> np.ndarray:
    # Band-limited ramp filter sampled in real space; lags -n .. n.
    m = np.arange(-n, n + 1)
    h = np.zeros(2 * n + 1)
    h[n] = 1.0 / (4.0 * dx * dx)
    odd = (m % 2) != 0
    h[odd] = -1.0 / (np.pi * m[odd] * dx) ** 2
    return h


def _filtered_backprojection(tomograms: Sequence[Tomogram]
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared reconstruction core: the (q, p) grids and the back-projected values.

    The values integrate to 1 only to quadrature accuracy and are not
    renormalized; `inverse_tomogram` then clamps negative ripple to zero,
    again without renormalizing, so its mass is about 1.0001-1.0005 on the
    tested families and is checked to 1e-2 only.

    Both grids span the family's X window with as many points.  Per direction:
    convolve the marginal with the band-limited ramp filter (computed as a
    linear convolution on a zero-extended grid so the filtered tails cover
    every back-projection point), then accumulate along X0 = q cos t + p sin t
    with linear interpolation.
    """
    x, thetas, ws = _validate_family(tomograms)
    center, half_width = 0.5 * float(x[0] + x[-1]), 0.5 * float(x[-1] - x[0])
    q = np.linspace(center - half_width, center + half_width, x.size)
    p = q.copy()
    n = x.size
    dx = x[1] - x[0]
    # extend so that |X0| <= max radius of the output grid is always covered
    x0max = float(np.hypot(np.max(np.abs(q)), np.max(np.abs(p))))
    n_ext = max(0, int(np.ceil((x0max - max(abs(x[0]), abs(x[-1]))) / dx)) + 2)
    xe = np.concatenate([x[0] + dx * np.arange(-n_ext, 0), x, x[-1] + dx * np.arange(1, n_ext + 1)])
    ne = xe.size
    kernel = _ramp_kernel(ne, dx)
    nfft = 1 << int(np.ceil(np.log2(kernel.size + ne)))
    kernel_f = np.fft.fft(kernel, nfft)

    out = np.zeros((q.size, p.size))
    qq = q[:, None]
    pp = p[None, :]
    dtheta = np.pi / len(tomograms)
    for th, w in zip(thetas, ws):
        we = np.zeros(ne)
        we[n_ext : n_ext + n] = w
        filtered = np.real(np.fft.ifft(np.fft.fft(we, nfft) * kernel_f))[ne : 2 * ne] * dx
        x0 = qq * np.cos(th) + pp * np.sin(th)
        out += np.interp(x0, xe, filtered, left=0.0, right=0.0)
    return q, p, out * dtheta


def inverse_tomogram(tomograms: Sequence[Tomogram]) -> GridDensity:
    """Reconstruct the phase-space density from a half-circle of marginals.

    Small negative back-projection ripple (below 1 percent of the peak) is
    clamped to zero; anything larger indicates inadequate sampling and raises.
    The result is normalized within 1e-2 by quadrature accuracy.
    """
    q, p, values = _filtered_backprojection(tomograms)
    peak = float(values.max())
    if peak <= 0:
        raise ValidationError("reconstruction produced no positive values")
    if float(values.min()) < -0.01 * peak:
        raise ValidationError("reconstruction strongly negative; refine grids or add directions")
    values = np.where(values < 0.0, 0.0, values)
    return GridDensity(q, p, values, norm_tol=1e-2)


def wigner_from_tomogram(tomograms: Sequence[Tomogram]) -> WignerGrid:
    """Reconstruct the Wigner function; numerically identical pipeline to
    `inverse_tomogram` but negative values are kept (Wigner functions may be
    negative) and the output is normalized to unit mass within 1e-2."""
    q, p, values = _filtered_backprojection(tomograms)
    return WignerGrid(q, p, values)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def tomogram_mean_position(tomogram: Tomogram) -> float:
    """First moment of the (1, 0) tomogram, i.e. the mean position <q>."""
    if not (tomogram.mu == 1.0 and tomogram.nu == 0.0):
        raise InvalidDirectionError(
            f"mean position requires direction (1, 0), got ({tomogram.mu}, {tomogram.nu})")
    return float(_simpson_weights(tomogram.x.size, tomogram.dx) @ (tomogram.values * tomogram.x))
