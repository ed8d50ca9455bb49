"""Trajectory/tangent-map Lyapunov exponents: the brute-force ground truth.

Each supported kicked map iterates its phase-space state together with the
Jacobian applied to a transported tangent vector, renormalizing every step
and accumulating log stretches.  Per-period compositions are fixed so that
the fixed-point monodromies match the engines:

* standard map: kick then free flight, monodromy at the hyperbolic point
  (0, 0) for gamma = tau = 1 equal to [[2, 1], [1, 1]];
* harmonic kick: free flight then kick, one-period matrix
  [[1, 1], [-z, 1 - z]];
* cat map variants: the (constant) forward flow of the corresponding
  quadratic model, i.e. the inverse of its parameter-transport matrix,
  built once per spec and held read-only.

At a fixed point the two orderings are conjugate and share their spectrum.

Cost
----
Each map class (`StandardMap`, `HarmonicKick`, `CatMap`) owns its loop, and
`tangent_map_lyapunov` calls it once per call.  Each loop keeps the state
and the tangent vector in Python floats: `math.sin`/`cos` and `%` for the
standard map, the constant 2x2 map for the harmonic kick, the 16 entries of
the cat flow unrolled.  That is about 1 us per step for the 2-d maps and
2 us for the cat map, where numpy 2-vectors cost about 20 us a step in array
construction, `np.linalg.norm` and ufunc dispatch.  `math.sin`/`cos` and `%`
give the same bits as `np.sin`/`cos` and `np.mod` on scalars (checked on
50 000 random arguments with numpy 2.4), so the trajectory is the one the
class's `step` produces.  The tangent vector can differ in the last bit:
numpy's BLAS forms the matrix-vector product and the norm with fused
multiply-adds, which Python floats lack, and `np.log` is not correctly
rounded everywhere.  Exponents at the fixed points come out equal, or within
a few ulps where the stretch keeps changing (cat variant h1), and at chaotic
points within about 1e-15 relative.  Each class's `step` and `jacobian` stay
for `monodromy_at_fixed_point` and for checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, log, sin, sqrt
from numbers import Real

import numpy as np

from .errors import NumericalError, ValidationError
from .floquet import CatVariant, build_cat_model, floquet_lambda, harmonic_floquet_matrix

TWO_PI = 2.0 * np.pi
INF = float("inf")


class KickedMapSpec:
    """A kicked map with its parameters and initial point.

    Each map is a frozen dataclass whose fields are the parameters it reads.
    It owns `dim`, `initial`, `step`, `jacobian` and `_log_stretch_sum`, its
    loop in Python floats: that loop advances the tangent vector by the
    Jacobian at the current state, renormalizes it, then steps the state,
    checking both every step, and returns the sum of the log stretches of
    the steps from `warmup` on.
    """

    def __post_init__(self) -> None:
        if len(self.initial) != self.dim:
            raise ValidationError(f"initial point must have {self.dim} components")
        if not np.all(np.isfinite(self.initial)):
            raise ValidationError(f"initial point {self.initial} must be finite")
        for name, value in vars(self).items():
            if isinstance(value, Real) and not isfinite(value):
                raise ValidationError(f"{name} must be finite")

    @staticmethod
    def standard_map(gamma: float, tau: float = 1.0, q0: float = 0.0, p0: float = 0.0) -> "StandardMap":
        return StandardMap(gamma, tau, q0, p0)

    @staticmethod
    def harmonic_kick(z: float, q0: float = 0.0, p0: float = 0.0) -> "HarmonicKick":
        return HarmonicKick(z, q0, p0)

    @staticmethod
    def cat_map(variant: CatVariant) -> "CatMap":
        return CatMap(variant)

    def _displacement(self, state: np.ndarray) -> np.ndarray:
        return self.step(state) - state


@dataclass(frozen=True)
class StandardMap(KickedMapSpec):
    """Kick then free flight on the cylinder: p += gamma sin q, q += tau p mod 2 pi."""

    gamma: float
    tau: float = 1.0
    q0: float = 0.0
    p0: float = 0.0
    dim = 2

    @property
    def initial(self) -> tuple[float, float]:
        return (self.q0, self.p0)

    def step(self, state: np.ndarray) -> np.ndarray:
        q, p = np.asarray(state, dtype=float)
        p = p + self.gamma * np.sin(q)
        q = np.mod(q + self.tau * p, TWO_PI)
        return np.array([q, p])

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        c = self.gamma * np.cos(np.asarray(state, dtype=float)[0])
        return np.array([[1.0 + self.tau * c, self.tau], [c, 1.0]])

    def _displacement(self, state: np.ndarray) -> np.ndarray:
        delta = self.step(state) - state
        # position lives on the circle
        delta[0] = (delta[0] + np.pi) % TWO_PI - np.pi
        return delta

    def _log_stretch_sum(self, v: list[float], state: list[float], n_steps: int, warmup: int) -> float:
        gamma, tau = self.gamma, self.tau
        a, b = v
        q, p = state
        total = 0.0
        for step in range(n_steps):
            c = gamma * cos(q)
            a, b = (1.0 + tau * c) * a + tau * b, c * a + b
            stretch = sqrt(a * a + b * b)
            if not 0.0 < stretch < INF:
                raise NumericalError(f"tangent vector degenerated at step {step}")
            a /= stretch
            b /= stretch
            p = p + gamma * sin(q)
            q = (q + tau * p) % TWO_PI
            if not (isfinite(q) and isfinite(p)):
                raise NumericalError(f"trajectory left the finite domain at step {step}")
            if step >= warmup:
                total += log(stretch)
        return total


@dataclass(frozen=True)
class HarmonicKick(KickedMapSpec):
    """Free flight then kick on the line: q += p, p -= z q."""

    z: float
    q0: float = 0.0
    p0: float = 0.0
    dim = 2

    @property
    def initial(self) -> tuple[float, float]:
        return (self.q0, self.p0)

    def step(self, state: np.ndarray) -> np.ndarray:
        q, p = np.asarray(state, dtype=float)
        q = q + p
        p = p - self.z * q
        return np.array([q, p])

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        return harmonic_floquet_matrix(self.z)

    def _log_stretch_sum(self, v: list[float], state: list[float], n_steps: int, warmup: int) -> float:
        z = self.z
        one_minus_z = 1.0 - z
        a, b = v
        q, p = state
        total = 0.0
        for step in range(n_steps):
            a, b = a + b, one_minus_z * b - z * a
            stretch = sqrt(a * a + b * b)
            if not 0.0 < stretch < INF:
                raise NumericalError(f"tangent vector degenerated at step {step}")
            a /= stretch
            b /= stretch
            q = q + p
            p = p - z * q
            if not (isfinite(q) and isfinite(p)):
                raise NumericalError(f"trajectory left the finite domain at step {step}")
            if step >= warmup:
                total += log(stretch)
        return total


@dataclass(frozen=True)
class CatMap(KickedMapSpec):
    """The forward flow of a configurational cat model over one period."""

    variant: CatVariant
    initial: tuple[float, ...] = (0.0,) * 4
    dim = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", CatVariant(self.variant))
        super().__post_init__()
        # parameter transport is the inverse flow, so the trajectory map is
        # the inverse of the one-period transport matrix; it is constant, so
        # it is built once and shared read-only
        flow = np.linalg.inv(floquet_lambda(build_cat_model(self.variant), 1).matrix)
        flow.flags.writeable = False
        object.__setattr__(self, "_flow", flow)

    def step(self, state: np.ndarray) -> np.ndarray:
        return self._flow @ np.asarray(state, dtype=float)

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        return self._flow

    def _log_stretch_sum(self, v: list[float], state: list[float], n_steps: int, warmup: int) -> float:
        (f00, f01, f02, f03, f10, f11, f12, f13,
         f20, f21, f22, f23, f30, f31, f32, f33) = self._flow.ravel().tolist()
        a, b, c, d = v
        x0, x1, x2, x3 = state
        # rows are summed in the pairs (0, 2) and (1, 3), the order of numpy's
        # BLAS product `flow @ v`, so the vectors match a matrix-product loop
        total = 0.0
        for step in range(n_steps):
            a, b, c, d = ((f00 * a + f02 * c) + (f01 * b + f03 * d),
                          (f10 * a + f12 * c) + (f11 * b + f13 * d),
                          (f20 * a + f22 * c) + (f21 * b + f23 * d),
                          (f30 * a + f32 * c) + (f31 * b + f33 * d))
            stretch = sqrt(a * a + b * b + c * c + d * d)
            if not 0.0 < stretch < INF:
                raise NumericalError(f"tangent vector degenerated at step {step}")
            a /= stretch
            b /= stretch
            c /= stretch
            d /= stretch
            x0, x1, x2, x3 = ((f00 * x0 + f02 * x2) + (f01 * x1 + f03 * x3),
                              (f10 * x0 + f12 * x2) + (f11 * x1 + f13 * x3),
                              (f20 * x0 + f22 * x2) + (f21 * x1 + f23 * x3),
                              (f30 * x0 + f32 * x2) + (f31 * x1 + f33 * x3))
            if not (isfinite(x0) and isfinite(x1) and isfinite(x2) and isfinite(x3)):
                raise NumericalError(f"trajectory left the finite domain at step {step}")
            if step >= warmup:
                total += log(stretch)
        return total


def tangent_map_lyapunov(spec: KickedMapSpec, n_steps: int, v: np.ndarray | None = None) -> float:
    """Average log stretch of a transported tangent vector.

    The vector is renormalized every period and log factors accumulate, so
    exponents of order one stay far from overflow over 1e4+ steps.  The first
    tenth of the run (n_steps // 10 steps) is a discarded warmup: by then the
    vector has aligned with the leading direction and the average is
    transient-free.
    """
    if n_steps < 100:
        raise ValidationError("need at least 100 steps")
    warmup = n_steps // 10
    dim = spec.dim
    if v is None:
        v = np.zeros(dim)
        v[0] = 1.0
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValidationError(f"tangent vector must have {dim} components")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError("tangent vector must be nonzero")
    total = spec._log_stretch_sum((v / norm).tolist(), [float(x) for x in spec.initial], n_steps, warmup)
    return total / (n_steps - warmup)


def monodromy_at_fixed_point(spec: KickedMapSpec, tol: float = 1e-12) -> np.ndarray:
    """Per-period tangent matrix at a fixed point of the period map.

    Raises unless the spec's initial point is fixed to within `tol`; its
    log spectral radius is then the exponent `tangent_map_lyapunov` converges
    to from that point.
    """
    state = np.asarray(spec.initial, dtype=float)
    delta = spec._displacement(state)
    if np.max(np.abs(delta)) > tol:
        raise ValidationError(
            f"initial point {tuple(state)} is not fixed (moves by {np.max(np.abs(delta)):g})")
    return spec.jacobian(state)
