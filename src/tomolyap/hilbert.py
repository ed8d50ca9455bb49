"""Quantum standard-map probes under the exact kick, computed in Hilbert space.

At hbar > 0 the exact one-period law for the perturbation symbol is

    free flight   G(mu, nu) <- G(mu, nu + mu tau)
    kick          G(mu, nu) <- sum_m J_m(gamma f(nu)) G(mu + m, nu),
                  f(nu) = (2/hbar) sin(hbar nu / 2),

which follows from U_K^+ D(mu, nu) U_K = sum_m J_m(gamma f(nu)) D(mu + m, nu)
for the kick U_K = exp(-i gamma cos(q)/hbar), the free flight
U_F = exp(-i tau p^2/(2 hbar)) and the displacement D(mu, nu) =
exp(i(mu q + nu p)).  The lattice engine's two-term stencil in
`standard_map` is its first order in gamma f.  Rather than a Bessel-weighted
lattice, whose mu-cone widens by the Bessel reach every period, the symbol is
read off the Heisenberg-evolved displacement in Hilbert space:

    G(mu, nu, t) = -i (v1 d/dq0 + v2 d/dp0) a_t(q0, p0),

with a_t the Weyl symbol of A_t = U^-t D(mu, nu) U^t and U = U_K U_F.  A_t
shifts momentum by integer multiples of hbar, so

    a_t(q0, p0) = sum_m exp(i m q0) <p0 + hbar m/2| A_t |p0 - hbar m/2>
                = sum_m exp(i m q0) <U^t e_k'| D |U^t e_k>,

where e_k is the momentum state beta + hbar k of a Bloch fibre: beta = p0
with (k', k) = (s, -s) for m = 2s, and beta = p0 - hbar/2 with
(k', k) = (s, 1 - s) for m = 2s - 1.  Each fibre's basis states are evolved
by split-step FFT (U_F diagonal in k, U_K diagonal in the conjugate angle).
The p0-derivative acts through beta only and is carried exactly by tangent
states d/dbeta U^t e_k, evolved alongside.

The momentum grid (N points) and the m-sum half-width W = 2S are chosen here:
starting from the reach of a single kick, each is doubled until, over the
whole run, the amplitude in the outer eighth of the grid at each end and the
terms in the outer quarter of the m-sum stay below `LEAK_TOL` relative to the
scale of the states and their tangents.  A grid that would need more than
`MAX_BYTES` raises `NumericalError` before it is allocated; nothing is
truncated silently.  At gamma = hbar = 1, n = 200 the grid chosen is
N = 256, S = 26, and its probes agree to about 1e-10 with N = 1024, S = 96.

The kick's reach takes J_m(x) from Miller's backward recurrence, in plain
Python floats, so the module needs numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError
from .standard_map import StandardMapParams, check_run_length

LEAK_TOL = 1e-12
MAX_BYTES = 256 * 1024**2


def _kick_reach(x: float) -> int:
    """Smallest M > |x| with |J_M(x)| below LEAK_TOL: one kick's reach in k.

    J_m(x) comes from Miller's backward recurrence J_(m-1) = (2m/x) J_m -
    J_(m+1), started from (0, 1) far enough above |x| that the start's error
    has died out by the reach, and normalised by J_0 + 2 sum_k J_2k = 1.  Only
    the values from int(|x|) + 1 up are kept; those below enter the sum.  The
    recurrence takes about |x| steps.
    """
    x = abs(x)
    first = int(x) + 1
    if x == 0.0:
        return first
    top = first + 30 + int(20.0 * x ** (1.0 / 3.0))
    above, f = 0.0, 1.0
    kept, even = [], 0.0
    for m in range(top, 0, -1):
        if m >= first:
            kept.append(f)
        if m % 2 == 0:
            even += f
        above, f = f, (2.0 * m / x) * f - above
        if abs(f) > 1e250:
            above, f, even = above * 1e-250, f * 1e-250, even * 1e-250
            kept = [v * 1e-250 for v in kept]
    norm = abs(f + 2.0 * even)
    for m, v in zip(range(first, top + 1), reversed(kept)):
        if abs(v) < LEAK_TOL * norm:
            return m
    raise NumericalError(f"the Bessel recurrence at x = {x} did not decay by order {top}")


def _state_bytes(s: int, n_points: int) -> int:
    """States and tangents of both fibres, with room for the FFT and D temporaries.

    The traced peak is about 4.3 times the state array.
    """
    return 5 * 2 * 2 * (2 * s + 1) * n_points * np.dtype(complex).itemsize


def _grid_for(s: int, reach: int, n_points: int = 16) -> int:
    """Power-of-two grid whose outer eighths lie beyond |k| = s + reach."""
    while 3 * n_points < 8 * (s + reach):
        n_points *= 2
    return n_points


def _evolve(params: StandardMapParams, n_max: int, n_points: int, s: int):
    """G(1, tau, t) for t = 0..n_max on a grid of n_points with m-sum |m| <= 2s.

    Returns the probe history and the two leakages, each the largest over the
    run so far: the amplitude in the outer grid band, and the outer m-terms,
    both relative to the scale of the states (1) and of their tangents (the
    largest tangent norm).  The run stops at the first step where either
    leakage exceeds LEAK_TOL; the probe history is then incomplete.
    """
    gamma, tau, hbar, v1, v2 = params.gamma, params.tau, params.hbar, params.v1, params.v2
    k = np.fft.fftfreq(n_points, 1.0 / n_points)
    kick = np.exp(-1j * (gamma / hbar) * np.cos(2.0 * np.pi * np.arange(n_points) / n_points))
    band = slice(3 * n_points // 8, 5 * n_points // 8)  # |k| >= 3N/8 in FFT order

    # basis k = -s..s in both fibres; x[f, 0] holds the states, x[f, 1] their tangents
    basis = np.arange(-s, s + 1)
    x = np.zeros((2, 2, basis.size, n_points), dtype=complex)
    x[:, 0, np.arange(basis.size), basis % n_points] = 1.0
    p = (np.array([params.p0, params.p0 - 0.5 * hbar])[:, None] + hbar * k)[:, None, :]
    free = np.exp(-1j * tau * p * p / (2.0 * hbar))
    dfree = (-1j * tau / hbar) * p
    # D(1, tau) e_k = exp(i tau (p + hbar/2)) e_{k+1}
    dphase = np.exp(1j * tau * (p + 0.5 * hbar))
    s_odd = basis[1:]
    pairs = [(basis + s, -basis + s, 2 * basis), (s_odd + s, 1 - s_odd + s, 2 * s_odd - 1)]
    weights = [np.exp(1j * m * params.q0) for _, _, m in pairs]
    outer = [np.abs(m) > 3 * s // 2 for _, _, m in pairs]

    probes = np.empty(n_max + 1, dtype=complex)
    grid_leak = m_leak = 0.0
    for t in range(n_max + 1):
        if t > 0:
            x[:, 1] += dfree * x[:, 0]
            x *= free[:, None]
            x = np.fft.fft(kick * np.fft.ifft(x, axis=-1), axis=-1)
        tangent = max(1.0, float(np.sqrt(np.max(np.sum(np.abs(x[:, 1]) ** 2, axis=-1)))))
        # D applied to states and tangents, plus d/dbeta of D itself on the states
        dx = np.roll(dphase[:, None] * x, 1, axis=-1)
        dx[:, 1] += np.roll(1j * tau * dphase * x[:, 0], 1, axis=-1)
        # bound on |term_m|: |c_m| <= 1, |d_m| <= 2 |tangent| + tau
        scale = abs(v1) * 2 * s + abs(v2) * (2.0 * tangent + tau)
        total = 0j
        for f, (ip, ic, m) in enumerate(pairs):
            c = np.einsum("in,in->i", x[f, 0, ip].conj(), dx[f, 0, ic])
            d = (np.einsum("in,in->i", x[f, 1, ip].conj(), dx[f, 0, ic])
                 + np.einsum("in,in->i", x[f, 0, ip].conj(), dx[f, 1, ic]))
            terms = weights[f] * (v1 * m * c - 1j * v2 * d)
            total += terms.sum()
            m_leak = max(m_leak, np.abs(terms[outer[f]]).max() / scale)
        probes[t] = total
        edge = np.abs(x[..., band])
        grid_leak = max(grid_leak, edge[:, 0].max(), edge[:, 1].max() / tangent)
        if grid_leak > LEAK_TOL or m_leak > LEAK_TOL:
            break
    return probes, grid_leak, m_leak


def quantum_probes(params: StandardMapParams, n_max: int) -> np.ndarray:
    """Probe history (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, exact quantum map.

    Feeds `derivative_iteration` directly.  The second probe is the Weyl
    symbol of the adjoint displacement, so G(-1, -tau, t) = -conj(G(1, tau, t))
    for the real direction (v1, v2).  Raises `ValidationError` for hbar = 0,
    a non-finite gamma/hbar or an n_max that is not an integer of at least 1,
    and `NumericalError` when the grid needed to hold the evolved states
    exceeds `MAX_BYTES` (for example at a quantum resonance, where momentum
    spreads without bound).
    """
    if params.classical:
        raise ValidationError("the Hilbert-space route needs hbar > 0")
    n_max = check_run_length(n_max)
    x = params.gamma / params.hbar
    if not np.isfinite(x):
        raise ValidationError(
            f"gamma/hbar = {params.gamma:g}/{params.hbar:g} is not a finite kick strength")
    # the reach exceeds |x|: skip its O(|x|) recurrence when that alone overflows the grid
    reach = int(abs(x)) + 1
    if _state_bytes(reach + 1, _grid_for(reach + 1, reach)) <= MAX_BYTES:
        reach = _kick_reach(x)
    s = max(8, reach + 1)
    n_points = _grid_for(s, reach)
    while True:
        need = _state_bytes(s, n_points)
        if need > MAX_BYTES:
            raise NumericalError(
                f"the Hilbert-space grid of {n_points} momenta and {2 * s + 1} basis "
                f"states per fibre needs {need} bytes, over the ceiling of {MAX_BYTES}; "
                "the momentum spread did not converge")
        g, grid_leak, m_leak = _evolve(params, n_max, n_points, s)
        if grid_leak <= LEAK_TOL and m_leak <= LEAK_TOL:
            if not np.all(np.isfinite(g)):
                raise NumericalError("non-finite probe value in the Hilbert-space evolution")
            return np.stack([g, -g.conj()], axis=1)
        if m_leak > LEAK_TOL:
            s *= 2
        n_points = _grid_for(s, reach, 2 * n_points if grid_leak > LEAK_TOL else n_points)
