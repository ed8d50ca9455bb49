"""Independent references and the cone-cell counter.

Everything here takes a different route than the library: plain dictionary
iteration where the engine sweeps pruned arrays, closed forms where the
library integrates, and interval bookkeeping for a property of the recursion
that no engine change can alter.
"""

from __future__ import annotations

import math

import numpy as np


def lattice_probes(gamma: float, hbar: float, tau: float, q0: float, p0: float,
                   v1: float, v2: float, n_max: int) -> np.ndarray:
    """Dictionary-lattice evolution of the shear/kick recursion.

    Same recursion as the test suite's brute-force oracle, with the base-point
    phase exp(i (q0 mu + p0 nu)) in the initial data so that generic base
    points (direct engine mode) can be checked too.  Every cell reachable
    backward from the probe pair over n_max periods is evolved; no arrays, no
    pruning arithmetic.  Returns rows (G(1, tau, t), G(-1, -tau, t)).
    """
    need = set()
    frontier = {(1, 1), (-1, -1)}
    for _ in range(n_max + 1):
        need |= frontier
        frontier = {(j + dj, k + j + dj) for (j, k) in frontier for dj in (-1, 0, 1)}
    need |= frontier

    def f(nu):
        return nu if hbar == 0 else (2.0 / hbar) * math.sin(hbar * nu / 2.0)

    cur = {(j, k): (v1 * j + v2 * k * tau) * complex(math.cos(q0 * j + p0 * tau * k),
                                                     math.sin(q0 * j + p0 * tau * k))
           for (j, k) in need}
    probes = [(cur[(1, 1)], cur[(-1, -1)])]
    for _ in range(n_max):
        # free flight: the value at (j, k) moves to (j, k - j)
        shifted = {(j, k - j): val for (j, k), val in cur.items()}
        out = {}
        for (j, k), val in shifted.items():
            up, down = (j + 1, k), (j - 1, k)
            if up in shifted and down in shifted:
                out[(j, k)] = val + 0.5 * gamma * f(k * tau) * (shifted[up] - shifted[down])
        cur = out
        probes.append((cur[(1, 1)], cur[(-1, -1)]))
    return np.array(probes)


def derivatives_from_probes(probes: np.ndarray, gamma: float, tau: float,
                            v1: float, v2: float) -> tuple[np.ndarray, np.ndarray]:
    """(g2, g3) driven by a probe history, iterated in plain Python."""
    g2, g3 = [complex(v1)], [complex(v2)]
    for p_plus, p_minus in probes[:-1]:
        g2.append(g2[-1] + tau * g3[-1])
        g3.append(g3[-1] + 0.5 * gamma * (p_plus - p_minus))
    return np.array(g2), np.array(g3)


def gaussian_marginal(x, mu: float, nu: float, mean_q: float, mean_p: float,
                      sigma_q: float, sigma_p: float, correlation: float) -> np.ndarray:
    """Closed-form marginal of a Gaussian: X is Gaussian with projected moments."""
    mean = mu * mean_q + nu * mean_p
    var = (mu * mu * sigma_q**2 + 2.0 * mu * nu * correlation * sigma_q * sigma_p
           + nu * nu * sigma_p**2)
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def gaussian_pdf(q, p, mean_q: float, mean_p: float, sigma_q: float, sigma_p: float,
                 correlation: float) -> np.ndarray:
    """Bivariate normal density on broadcastable q, p."""
    dq = (np.asarray(q) - mean_q) / sigma_q
    dp = (np.asarray(p) - mean_p) / sigma_p
    r = correlation
    quad = (dq * dq - 2.0 * r * dq * dp + dp * dp) / (1.0 - r * r)
    return np.exp(-0.5 * quad) / (2.0 * np.pi * sigma_q * sigma_p * math.sqrt(1.0 - r * r))


# ---------------------------------------------------------------------------
# cone cells
# ---------------------------------------------------------------------------

PROBE_CELLS = ((1, 1), (-1, -1))


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def cone_cells(n: int) -> int:
    """Number of (period, cell) pairs whose pre-kick value reaches a probe.

    The probe pair is read after every period t = 0..n.  Walking backward
    from period n, `rows` holds, per lattice row j, the post-kick cells of the
    current period that reach a probe read then or later, as merged integer
    intervals of k (the kick's j-coupling can leave a gap, so a row may hold
    two).  Pre-kick cells are rows j-1..j+1 of that set; free flight maps
    pre-kick (j, k) to post-kick (j, k + j) of the period before.
    """
    rows: dict[int, list[tuple[int, int]]] = {j: [(k, k)] for j, k in PROBE_CELLS}
    total = 0
    for _ in range(n):
        spread: dict[int, list[tuple[int, int]]] = {}
        for j, ivs in rows.items():
            for dj in (-1, 0, 1):
                spread.setdefault(j + dj, []).extend(ivs)
        pre = {j: _merge(ivs) for j, ivs in spread.items()}
        total += sum(hi - lo + 1 for ivs in pre.values() for lo, hi in ivs)
        rows = {j: [(lo + j, hi + j) for lo, hi in ivs] for j, ivs in pre.items()}
        for j, k in PROBE_CELLS:
            rows[j] = _merge(rows.get(j, []) + [(k, k)])
    return total


def cone_cells_by_sets(n: int) -> int:
    """`cone_cells` by plain set enumeration (reference for small n)."""
    post = set(PROBE_CELLS)
    total = 0
    for _ in range(n):
        pre = {(j + dj, k) for (j, k) in post for dj in (-1, 0, 1)}
        total += len(pre)
        post = {(j, k + j) for (j, k) in pre} | set(PROBE_CELLS)
    return total


# ---------------------------------------------------------------------------
# Floquet closed forms
# ---------------------------------------------------------------------------


def harmonic_lyapunov(z: float) -> float:
    """ln of the larger |eigenvalue| 1 - z/2 -+ sqrt(z^2/4 - z), hyperbolic z > 4."""
    if z <= 4.0:
        raise ValueError("reference covers the hyperbolic regime z > 4 only")
    return math.log(z / 2.0 - 1.0 + math.sqrt(z * z / 4.0 - z))


def _expm_taylor(a: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def cat_lyapunov(model) -> float:
    """ln spectral radius of exp(S B0 tau) exp(S Bk) by plain Taylor series.

    The quadratic forms of the cat models have norms of order one, so sixty
    terms are far past convergence; the library takes scipy's Pade route.
    """
    n = model.dimension
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    one = _expm_taylor(s @ model.b0 * model.tau) @ _expm_taylor(s @ model.bk)
    return float(math.log(np.max(np.abs(np.linalg.eigvals(one)))))
