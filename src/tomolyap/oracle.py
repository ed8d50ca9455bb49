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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .floquet import CatVariant, build_cat_model, floquet_lambda

TWO_PI = 2.0 * np.pi

FAMILIES = ("standard_map", "harmonic_kick", "cat_map")


@dataclass(frozen=True)
class KickedMapSpec:
    """A kicked map family plus its parameters and initial point."""

    family: str
    gamma: float = 0.0
    tau: float = 1.0
    z: float = 0.0
    variant: CatVariant | None = None
    initial: tuple[float, ...] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown map family: {self.family}")
        if self.family == "cat_map" and self.variant is None:
            raise ValidationError("cat_map spec needs a variant")
        for name in ("gamma", "tau", "z"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if len(self.initial) != self.dim:
            raise ValidationError(f"initial point must have {self.dim} components")
        if not np.all(np.isfinite(self.initial)):
            raise ValidationError(f"initial point {self.initial} must be finite")
        flow = None
        if self.family == "cat_map":
            # parameter transport is the inverse flow, so the trajectory map
            # is the inverse of the one-period transport matrix; it is
            # constant, so it is built once and shared read-only
            flow = np.linalg.inv(floquet_lambda(build_cat_model(self.variant), 1).matrix)
            flow.flags.writeable = False
        object.__setattr__(self, "_flow", flow)

    @staticmethod
    def standard_map(gamma: float, tau: float = 1.0, q0: float = 0.0, p0: float = 0.0) -> "KickedMapSpec":
        return KickedMapSpec("standard_map", gamma=gamma, tau=tau, initial=(q0, p0))

    @staticmethod
    def harmonic_kick(z: float, q0: float = 0.0, p0: float = 0.0) -> "KickedMapSpec":
        return KickedMapSpec("harmonic_kick", z=z, initial=(q0, p0))

    @staticmethod
    def cat_map(variant: CatVariant) -> "KickedMapSpec":
        return KickedMapSpec("cat_map", variant=CatVariant(variant), initial=(0.0,) * 4)

    @property
    def dim(self) -> int:
        return 4 if self.family == "cat_map" else 2

    def step(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if self.family == "standard_map":
            q, p = state
            p = p + self.gamma * np.sin(q)
            q = np.mod(q + self.tau * p, TWO_PI)
            return np.array([q, p])
        if self.family == "harmonic_kick":
            q, p = state
            q = q + p
            p = p - self.z * q
            return np.array([q, p])
        return self._flow @ state

    def jacobian(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if self.family == "standard_map":
            c = self.gamma * np.cos(state[0])
            return np.array([[1.0 + self.tau * c, self.tau], [c, 1.0]])
        if self.family == "harmonic_kick":
            return np.array([[1.0, 1.0], [-self.z, 1.0 - self.z]])
        return self._flow


def tangent_map_lyapunov(spec: KickedMapSpec, n_steps: int, v: np.ndarray | None = None,
                         warmup: int | None = None) -> float:
    """Average log stretch of a transported tangent vector.

    The vector is renormalized every period and log factors accumulate, so
    exponents of order one stay far from overflow over 1e4+ steps.  A warmup
    prefix (default a tenth of the run) is discarded: by then the vector has
    aligned with the leading direction and the average is transient-free.
    It must leave at least one counted step: 0 <= warmup < n_steps.
    """
    if n_steps < 100:
        raise ValidationError("need at least 100 steps")
    if warmup is None:
        warmup = n_steps // 10
    if not 0 <= warmup < n_steps:
        raise ValidationError(f"warmup must lie in [0, {n_steps}), got {warmup}")
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
    v = v / norm
    state = np.asarray(spec.initial, dtype=float)
    total = 0.0
    counted = 0
    # overflow is detected through the finite checks below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            v = spec.jacobian(state) @ v
            stretch = np.linalg.norm(v)
            if not np.isfinite(stretch) or stretch == 0.0:
                raise NumericalError(f"tangent vector degenerated at step {step}")
            v /= stretch
            state = spec.step(state)
            if not np.all(np.isfinite(state)):
                raise NumericalError(f"trajectory left the finite domain at step {step}")
            if step >= warmup:
                total += np.log(stretch)
                counted += 1
    return total / counted


def monodromy_at_fixed_point(spec: KickedMapSpec, tol: float = 1e-12) -> np.ndarray:
    """Per-period tangent matrix at a fixed point of the period map.

    Raises unless the spec's initial point is fixed to within `tol`; its
    log spectral radius is then the exponent `tangent_map_lyapunov` converges
    to from that point.
    """
    state = np.asarray(spec.initial, dtype=float)
    image = spec.step(state)
    delta = image - state
    if spec.family == "standard_map":
        # position lives on the circle
        delta[0] = (delta[0] + np.pi) % TWO_PI - np.pi
    if np.max(np.abs(delta)) > tol:
        raise ValidationError(
            f"initial point {tuple(state)} is not fixed (moves by {np.max(np.abs(delta)):g})")
    return spec.jacobian(state)
