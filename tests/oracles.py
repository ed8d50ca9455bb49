"""Independent reference computations used to pin expected values.

Everything here is deliberately written along a different route than the
production code: closed forms where the production path integrates, plain
dictionary iteration where the production path uses pruned array sweeps.
"""

from __future__ import annotations

import cmath

import numpy as np

from tomolyap.tomography import GaussianDensity, WaveFunction


def gaussian_tomogram_values(x, mu, nu, density: GaussianDensity):
    """Closed-form marginal of a Gaussian: X is Gaussian with the projected
    mean and variance."""
    mean = mu * density.mean_q + nu * density.mean_p
    var = (mu * mu * density.sigma_q**2
           + 2.0 * mu * nu * density.correlation * density.sigma_q * density.sigma_p
           + nu * nu * density.sigma_p**2)
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def tomogram_by_vertical_quadrature(x, mu, nu, density: GaussianDensity, n_q: int = 4001):
    """Second route for the delta-line integral: eliminate the delta against p.

    w(X) = Int rho(q, (X - mu q)/nu) dq / |nu|, valid for nu != 0.  Uses a
    plain trapezoid over q, independent of the arc-length parametrization.
    """
    assert nu != 0.0
    span = 12.0 * max(density.sigma_q, density.sigma_p, 1.0)
    q = np.linspace(density.mean_q - span, density.mean_q + span, n_q)
    x = np.asarray(x, dtype=float)
    p = (x[:, None] - mu * q[None, :]) / nu
    vals = density.pdf(q[None, :], p)
    return np.trapezoid(vals, q, axis=1) / abs(nu)


def ground_state(dy: float = 0.004, span: float = 10.0, shift_q: float = 0.0,
                 shift_p: float = 0.0, hbar: float = 1.0) -> WaveFunction:
    """Coherent state exp(-(y-q0)^2/2 + i p0 y / hbar), numerically normalized."""
    y = np.arange(-span + shift_q, span + shift_q + dy / 2, dy)
    psi = np.exp(-((y - shift_q) ** 2) / 2.0) * np.exp(1j * shift_p * y / hbar)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dy)
    return WaveFunction(y, psi, hbar=hbar)


def _dictionary_lattice(gamma: float, hbar: float, tau: float, n_max: int,
                        targets, v1: float, v2: float, q0: float, p0: float):
    """Dictionary-lattice evolution of the shear/kick recursion.

    Evolves every cell reachable backward from the target cells over n_max
    periods, starting from (v1 mu + v2 nu) exp(i(q0 mu + p0 nu)); no arrays,
    no pruning arithmetic, just the recursion as written.  Yields the lattice
    (a dict keyed by (j, k)) at t = 0..n_max; every stored value is exact.
    """
    need = set()
    frontier = set(targets)
    for _ in range(n_max + 1):
        need |= frontier
        nxt = set()
        for (j, k) in frontier:
            for dj in (-1, 0, 1):
                nxt.add((j + dj, k + j + dj))
        frontier = nxt
    need |= frontier

    def f(nu):
        return nu if hbar == 0 else (2.0 / hbar) * np.sin(hbar * nu / 2.0)

    cur = {(j, k): complex(v1 * j + v2 * k * tau) * cmath.exp(1j * (q0 * j + p0 * tau * k))
           for (j, k) in need}
    yield cur
    for _ in range(n_max):
        # free flight shears the whole domain: source (j, k) lands on (j, k - j)
        shifted = {(j, k - j): val for (j, k), val in cur.items()}
        out = {}
        for (j, k), val in shifted.items():
            up, down = (j + 1, k), (j - 1, k)
            if up in shifted and down in shifted:
                out[(j, k)] = val + 0.5 * gamma * f(k * tau) * (shifted[up] - shifted[down])
        cur = out
        yield cur


def brute_force_probes(gamma: float, hbar: float, tau: float, n_max: int,
                       v1: float = 1.0, v2: float = 1.0, q0: float = 0.0, p0: float = 0.0):
    """Probe rows (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, from the
    dictionary lattice."""
    probes = ((1, 1), (-1, -1))
    lattices = _dictionary_lattice(gamma, hbar, tau, n_max, probes, v1, v2, q0, p0)
    return np.array([[cur[cell] for cell in probes] for cur in lattices])


def brute_force_windows(gamma: float, hbar: float, tau: float, n_max: int,
                        keep: tuple[int, int], v1: float = 1.0, v2: float = 1.0,
                        q0: float = 0.0, p0: float = 0.0):
    """G on the window |j| <= keep[0], |k| <= keep[1] at t = 0..n_max, from the
    dictionary lattice; shape (n_max + 1, 2 keep[0] + 1, 2 keep[1] + 1)."""
    cells = [[(j, k) for k in range(-keep[1], keep[1] + 1)]
             for j in range(-keep[0], keep[0] + 1)]
    targets = [cell for row in cells for cell in row]
    lattices = _dictionary_lattice(gamma, hbar, tau, n_max, targets, v1, v2, q0, p0)
    return np.array([[[cur[cell] for cell in row] for row in cells] for cur in lattices])
