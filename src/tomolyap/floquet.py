"""Exact Lyapunov exponents for kicked quadratic systems.

Two families live here:

* the harmonically kicked particle on the line, solved through the complex
  classical-equation solution eps(t) = a_n + b_n t between kicks, whose
  coefficient recurrence yields a 2x2 Floquet map with closed-form
  eigenvalues; and
* two-degree-of-freedom "configurational cat" models defined by symmetric
  quadratic forms B0 (drift) and Bk (kick) on the vector Q = (p1, p2, x1, x2),
  whose one-period propagator parameter map is Lambda(1+) = exp(S B0 tau)
  exp(S Bk) with S the standard symplectic block matrix.

For quadratic Hamiltonians, local or not, the marginal-distribution evolution
law carries no hbar-dependent correction (all third and higher derivatives of
the Hamiltonian vanish), so classical and quantum exponents coincide; the
exponent is ln(spectral radius) of the one-period matrix.

The two matrix exponentials of `floquet_lambda` are the module's own
`_expm`, in numpy: exact finite sums for the nilpotent generators of the cat
models, Pade-13 with scaling and squaring otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .series import DerivativeSeries

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

SYMMETRY_TOL = 1e-14
SYMPLECTIC_TOL = 1e-10


# ---------------------------------------------------------------------------
# harmonic kicks on the line
# ---------------------------------------------------------------------------


def harmonic_kick_matrix(z: float, n: int) -> np.ndarray:
    """Coefficient update for the kick at integer time n (unit determinant)."""
    return np.array([[1.0 + z * n, z * n * n], [-z, 1.0 - z * n]])


def _require_finite_z(z: float) -> None:
    if not np.isfinite(z):
        raise ValidationError("z must be finite")


def harmonic_floquet_matrix(z: float) -> np.ndarray:
    """One-period map for (eps, eps_dot) sampled just after each kick."""
    return np.array([[1.0, 1.0], [-z, 1.0 - z]])


def harmonic_floquet_eigenvalues(z: float) -> tuple[complex, complex]:
    """Closed-form eigenvalue pair 1 - z/2 +/- sqrt(z^2/4 - z); product is 1."""
    disc = np.sqrt(complex(z * z / 4.0 - z))
    lam0 = 1.0 - z / 2.0 + disc
    lam1 = 1.0 - z / 2.0 - disc
    return complex(lam0), complex(lam1)


def harmonic_lyapunov(z: float) -> float:
    """ln(spectral radius) of the one-period map: zero on 0 <= z <= 4."""
    _require_finite_z(z)
    if 0.0 <= z <= 4.0:
        return 0.0
    lam0, lam1 = harmonic_floquet_eigenvalues(z)
    return float(np.log(max(abs(lam0), abs(lam1))))


def harmonic_derivative_series(z: float, n_periods: int, v1: float = 1.0,
                               v2: float = 1.0) -> DerivativeSeries:
    """Derivative pair driven by a perturbation along (v1, v2).

    Between kicks the classical equation has the complex solution
    eps(t) = a + b t.  From the free solution (a, b) = (1, i), the kick at
    integer time t maps (a, b) by `harmonic_kick_matrix(z, t)`, which is real
    with unit determinant, so the Wronskian Im(conj(a) b) = 1 is conserved; in
    floating point it holds relative to |a| |b|, which grows in the hyperbolic
    regime.  The propagated perturbation symbol is the initial one evaluated
    at parameters transported by eps, so the derivatives at the origin are

        g2(t) = v1 Re eps(t) + v2 Im eps(t)
        g3(t) = v1 Re eps_dot(t) + v2 Im eps_dot(t)

    sampled just after each kick, with eps_dot(t) = b.  The directions (1, 0)
    and (0, 1) return the real and imaginary parts of eps and eps_dot.
    Feeding the series into the exponent estimator recovers
    `harmonic_lyapunov(z)` in the hyperbolic regime.
    """
    _require_finite_z(z)
    if n_periods < 1:
        raise ValidationError("need at least one period")
    g2 = np.empty(n_periods + 1, dtype=complex)
    g3 = np.empty(n_periods + 1, dtype=complex)
    vec = np.array([1.0 + 0.0j, 1.0j])
    for t in range(n_periods + 1):
        if t:
            vec = harmonic_kick_matrix(z, t) @ vec
        eps = vec[0] + vec[1] * t
        eps_dot = vec[1]
        g2[t] = v1 * eps.real + v2 * eps.imag
        g3[t] = v1 * eps_dot.real + v2 * eps_dot.imag
    return DerivativeSeries(g2, g3)


# ---------------------------------------------------------------------------
# quadratic models on 2n-dimensional phase space
# ---------------------------------------------------------------------------


def symplectic_form(n: int) -> np.ndarray:
    """Block matrix [[0, I], [-I, 0]] pairing (p-block, x-block) coordinates."""
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    return s


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix")
    if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
        raise ValidationError(f"{name} must be symmetric within {SYMMETRY_TOL:g}")
    return m


@dataclass(frozen=True)
class QuadraticModel:
    """Kicked quadratic Hamiltonian H = Q.B0.Q/2 + Q.Bk.Q/2 * (kick train).

    Q stacks momenta before positions: (p1..pn, x1..xn), n in {1, 2}.
    """

    dimension: int
    b0: np.ndarray
    bk: np.ndarray
    tau: float = 1.0

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2):
            raise ValidationError("dimension must be 1 or 2")
        d = 2 * self.dimension
        b0 = _check_symmetric(self.b0, "B0")
        bk = _check_symmetric(self.bk, "Bk")
        if b0.shape != (d, d) or bk.shape != (d, d):
            raise ValidationError(f"B matrices must be {d}x{d}")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "bk", bk)

    def hamiltonian_drift(self, qvec: np.ndarray) -> float:
        qvec = np.asarray(qvec, dtype=float)
        return 0.5 * float(qvec @ self.b0 @ qvec)

    def hamiltonian_kick(self, qvec: np.ndarray) -> float:
        qvec = np.asarray(qvec, dtype=float)
        return 0.5 * float(qvec @ self.bk @ qvec)


class CatVariant(enum.Enum):
    H1 = "h1"
    H2 = "h2"
    KICK_ONLY = "kick_only"


@dataclass(frozen=True)
class FloquetMatrix:
    """One-period (or n-period) parameter transport matrix, symplectic."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if self.symplectic_defect() > SYMPLECTIC_TOL:
            raise ValidationError(
                f"matrix is not symplectic (defect {self.symplectic_defect():g})")

    def symplectic_defect(self) -> float:
        s = symplectic_form(self.matrix.shape[0] // 2)
        return float(np.max(np.abs(self.matrix.T @ s @ self.matrix - s)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues())))


def build_cat_model(variant: CatVariant) -> QuadraticModel:
    """The three configurational-cat quadratic models (tau = 1).

    KICK_ONLY uses B0 = 0 and a pure kick form built from the golden ratio w;
    its one-kick map has spectral radius w^2, hence exponent 2 ln w.
    """
    variant = CatVariant(variant)
    if variant is CatVariant.H1:
        b0 = np.array([
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ])
        bk = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
    elif variant is CatVariant.H2:
        b0 = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        bk = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ])
    else:
        w = GOLDEN_RATIO
        block = np.array([[-w, 2.0 * (1.0 + w) / w], [2.0 * w, w]])
        b0 = np.zeros((4, 4))
        bk = np.zeros((4, 4))
        coef = np.log(1.0 + w) / (w + 2.0)
        bk[:2, 2:] = coef * block
        bk[2:, :2] = coef * block
        # the off-diagonal entries coincide for the golden ratio, but float
        # evaluation of 2(1+w)/w and 2w may differ in the last bit
        bk = 0.5 * (bk + bk.T)
    return QuadraticModel(2, b0, bk)


# numerator coefficients of the degree-13 Pade approximant to exp (the
# denominator's alternate in sign), and the 1-norm up to which it reaches
# double precision without scaling (Higham 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small square matrix.

    When some power a^k with k <= dim is exactly zero the series stops, and
    exp(a) is the finite sum of a^i / i! over i < k, formed as the
    combination of a^i with the integer weights (k-1)!/i! and divided once by
    (k-1)!.  For an integer matrix every entry is then the exact sum,
    correctly rounded.  The H1 cat model needs this: its one-period matrix has
    a defective eigenvalue pair, so a roundoff-level change of the matrix
    moves its exponent by about the square root of that change.  Otherwise
    a / 2^s, with s the least power of two that brings the 1-norm under
    _THETA13, goes through the degree-13 Pade approximant, squared s times
    (Higham 2005).
    """
    eye = np.eye(a.shape[0])
    powers = [eye]
    for k in range(1, a.shape[0] + 1):
        powers.append(powers[-1] @ a)
        if not powers[-1].any():
            top = math.factorial(k - 1)
            return sum(top // math.factorial(i) * powers[i] for i in range(k)) / top

    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def floquet_lambda(model: QuadraticModel, n_kicks: int) -> FloquetMatrix:
    """n-period transport matrix (exp(S B0 tau) exp(S Bk))^n."""
    if n_kicks < 0:
        raise ValidationError("n_kicks must be nonnegative")
    s = symplectic_form(model.dimension)
    one = _expm(s @ model.b0 * model.tau) @ _expm(s @ model.bk)
    return FloquetMatrix(np.linalg.matrix_power(one, n_kicks))


def propagate_tomogram_params(model: QuadraticModel, n_kicks: int,
                              mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transport marginal-distribution parameters backward through n kicks.

    The propagated marginal at parameters (mu, nu) equals the initial one at
    (mu', nu') given by the row-vector product (nu', mu') = (nu, mu) Lambda^-1.
    Returns (mu', nu').
    """
    n = model.dimension
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if mu.shape != (n,) or nu.shape != (n,):
        raise ValidationError(f"mu and nu must be length-{n} vectors")
    lam = floquet_lambda(model, n_kicks).matrix
    row = np.concatenate([nu, mu])
    try:
        # row . Lambda^-1  computed as a solve against Lambda^T
        out = np.linalg.solve(lam.T, row)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - symplectic => invertible
        raise NumericalError(f"singular transport matrix: {exc}") from exc
    return out[n:].copy(), out[:n].copy()


def cat_lyapunov(variant: CatVariant) -> float:
    """Lyapunov exponent of a cat variant: ln(spectral radius) of one period."""
    return float(np.log(floquet_lambda(build_cat_model(variant), 1).spectral_radius()))


# ---------------------------------------------------------------------------
# quadratic-versus-quantum check
# ---------------------------------------------------------------------------

# central stencils (offset, weight) of the third and fifth derivatives, in
# units of the step and up to the factor 1 / (2 step^order)
_STENCILS = ((3, ((2, 1.0), (1, -2.0), (-1, 2.0), (-2, -1.0))),
             (5, ((3, 1.0), (2, -4.0), (1, 5.0), (-1, -5.0), (-2, 4.0), (-3, -1.0))))


def directional_derivatives_vanish(h, dim: int) -> bool:
    """Probe whether the third and fifth directional derivatives of `h` vanish.

    `h` maps a length-`dim` vector to a scalar.  The probe draws 8 points in
    [-1, 1]^dim and unit directions (seed 7) and takes both derivatives by
    central stencils of step 0.5; one above 1e-8 times the largest |h| its
    stencil read (or 1) counts as nonzero.  Central stencils annihilate
    quadratics exactly, so for a quadratic form the probe returns true with
    only roundoff residuals, while any cubic term shows up at order 3.
    """
    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.uniform(-1.0, 1.0, size=dim)
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        for order, stencil in _STENCILS:
            acc = 0.0
            scale = 1.0
            for offset, coef in stencil:
                val = float(h(x + offset * 0.5 * v))
                acc += coef * val
                scale = max(scale, abs(val))
            if abs(acc / (2.0 * 0.5**order)) > 1e-8 * scale:
                return False
    return True


def verify_quadratic_deformation_vanishes(model: QuadraticModel) -> bool:
    """True when both quadratic forms of the model have no cubic-or-higher
    structure, i.e. the quantum correction series to the evolution law is
    identically zero and classical and quantum dynamics coincide."""
    d = 2 * model.dimension
    return (directional_derivatives_vanish(model.hamiltonian_drift, d)
            and directional_derivatives_vanish(model.hamiltonian_kick, d))
