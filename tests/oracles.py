"""Independent reference computations used to pin expected values.

Everything here is deliberately written along a different route than the
production code: closed forms where the production path integrates, plain
dictionary iteration where the production path uses pruned array sweeps,
direct sums and full matrices where it uses transforms and reduced
bookkeeping.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.integrate import simpson
from scipy.special import jv

from tomolyap.errors import NumericalError
from tomolyap.oracle import KickedMapSpec
from tomolyap.standard_map import StandardMapParams, _pi_multiple, lattice_extents
from tomolyap.tomography import GaussianDensity, WaveFunction


def tangent_map_lyapunov_by_steps(spec: KickedMapSpec, n_steps: int, v=None) -> float:
    """Tangent-map exponent from numpy 2-/4-vectors and `spec.step`/`spec.jacobian`.

    The oracle's loop as it was before each family got a scalar loop: the
    Jacobian is built as a matrix every step, the vector is advanced by a
    matrix product and renormalized by `np.linalg.norm`, and the state by
    `spec.step`.  Same checks, in the same order, with the same messages.
    """
    warmup = n_steps // 10
    if v is None:
        v = np.zeros(spec.dim)
        v[0] = 1.0
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    state = np.asarray(spec.initial, dtype=float)
    total = 0.0
    counted = 0
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


def tomogram_by_line_quadrature(density: GaussianDensity, xhat, mu_u: float, nu_u: float,
                                n_line: int):
    """Arc-length line quadrature of a Gaussian density for every X at once.

    The same sums as the blocked production sweep, formed as one full
    (X, line) array, so the two must agree bit for bit.
    """
    tangent = np.array([-nu_u, mu_u])
    half = 10.0 * np.sqrt(float(tangent @ density.covariance() @ tangent))
    s_center = float(np.array([density.mean_q, density.mean_p]) @ tangent)
    s = np.linspace(s_center - half, s_center + half, n_line)
    q = xhat[:, None] * mu_u + s[None, :] * (-nu_u)
    p = xhat[:, None] * nu_u + s[None, :] * mu_u
    return simpson(density.pdf(q, p), dx=s[1] - s[0], axis=1)


def pure_state_tomogram_by_phase_matrix(psi: WaveFunction, mu: float, nu: float, x):
    """Pure-state marginal from the explicit (X, y) matrix of phases.

    Every exp(-i X y / (nu hbar)) is formed and the y integral is done by
    `scipy.integrate.simpson`, 64 X points at a time.
    """
    x = np.asarray(x, dtype=float)
    quad_phase = np.exp(1j * mu * psi.y * psi.y / (2.0 * nu * psi.hbar)) * psi.psi
    amps = np.empty(x.size, dtype=complex)
    for start in range(0, x.size, 64):
        phases = np.exp(-1j * np.outer(x[start : start + 64], psi.y) / (nu * psi.hbar))
        amps[start : start + 64] = simpson(phases * quad_phase[None, :], dx=psi.dy, axis=1)
    return np.abs(amps) ** 2 / (2.0 * np.pi * psi.hbar * abs(nu))


def symbolic_expand_by_word_matrices(params: StandardMapParams, n: int) -> complex:
    """G(1, 1, tau, n) over all 3^n words, each carried as its full 3x3
    integer matrix product (tau = 1, q0 = p0 = 0)."""
    m0 = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    m_plus = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 1]], dtype=np.int64)
    m_minus = np.array([[1, 1, 0], [0, 1, 0], [-1, -1, 1]], dtype=np.int64)
    words = np.eye(3, dtype=np.int64)[None, :, :]
    coeff = np.ones(1)
    for _ in range(n):
        weight = 0.5 * params.gamma * params.f(words[:, :, 1].sum(axis=1).astype(float))
        words = np.concatenate([words @ m0, words @ m_plus, words @ m_minus])
        coeff = np.concatenate([coeff, coeff * weight, -coeff * weight])
    mu_end = words[:, :, 0].sum(axis=1)
    nu_end = words[:, :, 1].sum(axis=1)
    return complex(np.dot(coeff, params.v1 * mu_end + params.v2 * nu_end))


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


def _full_cone_table(n_max: int, J: int, K: int) -> np.ndarray:
    """The engine's hull table with all rows j = -J..J, row j at index j + J."""
    rows, cols = 2 * J + 1, 2 * K + 1
    j = np.arange(-J, J + 1)
    in_probe = np.abs(j) <= 1
    table = np.empty((n_max, 4, rows), dtype=np.int32)
    lo, hi = np.full(rows, cols), np.full(rows, -1)
    for t in range(n_max, 0, -1):
        lo[in_probe] = np.minimum(lo[in_probe], K - 1)
        hi[in_probe] = np.maximum(hi[in_probe], K + 1)
        lo_pad = np.pad(lo, 1, constant_values=cols)
        hi_pad = np.pad(hi, 1, constant_values=-1)
        pre_lo = np.minimum(np.minimum(lo_pad[:-2], lo_pad[1:-1]), lo_pad[2:])
        pre_hi = np.maximum(np.maximum(hi_pad[:-2], hi_pad[1:-1]), hi_pad[2:])
        table[t - 1] = pre_lo, pre_hi, lo, hi
        filled = pre_lo <= pre_hi
        lo = np.where(filled, pre_lo + j, cols)
        hi = np.where(filled, pre_hi + j, -1)
    return table


def full_lattice_probes(params: StandardMapParams, n_max: int, mode: str = "auto"):
    """Probe rows (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, from a sweep
    of the whole lattice, rows j = -J..J.

    The engine's evolution as it was before it stored only rows j >= 0: the
    same initial data, carried part, source and per-cell arithmetic in the
    same order, with no use of the symmetry G(-j, -k) = -conj G(j, k).  The
    half-lattice engine must reproduce it bit for bit.  Mode "auto" follows
    the base point as the engine does; "split" and "direct" force a mode, and
    "direct" at a splittable base point is the cross-check of split mode.
    """
    J, K = lattice_extents(n_max)
    rows, cols = 2 * J + 1, 2 * K + 1
    gamma, tau = params.gamma, params.tau
    m0, mb = _pi_multiple(params.q0), _pi_multiple(params.p0 * tau)
    split = (m0 is not None and mb is not None) if mode == "auto" else mode == "split"
    cone = _full_cone_table(n_max, J, K)
    k_all = np.arange(-K, K + 1)
    fcol = params.f(tau * k_all)
    half_gamma_f = (gamma / 2.0) * fcol
    if split:
        c_mu, c_nu, dev = complex(params.v1), complex(params.v2), None
    else:
        m0 = mb = 0
        c_mu = c_nu = 0.0 + 0.0j
        dev = np.empty((rows, cols), dtype=complex)
        for r, j in enumerate(range(-J, J + 1)):
            phase = np.exp(1j * (params.q0 * j + params.p0 * tau * k_all))
            np.multiply(params.v1 * j + params.v2 * tau * k_all, phase, out=dev[r])

    def value(t, j, k):
        carried = 0.0 + 0.0j
        if split:
            sign = -1.0 if ((((m0 + mb * t) % 2) * j + mb * k) % 2) else 1.0
            carried = (c_mu * j + c_nu * k * tau) * sign
        return carried if dev is None else carried + complex(dev[J + j, K + k])

    def sweep(t, source, flip_odd_rows):
        pre, below, diff = (np.empty(cols, dtype=dev.dtype) for _ in range(3))
        pre_lo, pre_hi, post_lo, post_hi = cone[t - 1].tolist()
        below_lo = 0
        for r in range(rows):
            lo, hi = pre_lo[r], pre_hi[r]
            if lo > hi:
                continue
            j = r - J
            np.copyto(pre[: hi - lo + 1], dev[r, lo + j : hi + j + 1])
            a, b = post_lo[r], post_hi[r] + 1
            if a < b:
                d = diff[: b - a]
                np.subtract(dev[r + 1, a + j + 1 : b + j + 1],
                            below[a - below_lo : b - below_lo], out=d)
                np.multiply(half_gamma_f[a:b], d, out=d)
                out = dev[r, a:b]
                np.add(pre[a - lo : b - lo], d, out=out)
                if source is not None:
                    if flip_odd_rows and j % 2:
                        out -= source[a:b]
                    else:
                        out += source[a:b]
            pre, below, below_lo = below, pre, lo

    probes = np.empty((n_max + 1, 2), dtype=complex)
    probes[0] = value(0, 1, 1), value(0, -1, -1)
    for t in range(1, n_max + 1):
        post_free_c_mu = c_mu + tau * c_nu if split else c_mu
        need_source = split and not params.classical and post_free_c_mu != 0.0
        if need_source and dev is None:
            dev = np.zeros((rows, cols), dtype=float)
        parity = (m0 + mb * t) % 2
        sign = -1.0 if parity else 1.0
        if dev is not None:
            source = None
            if need_source:
                source = (sign * gamma * post_free_c_mu).real * fcol
                if mb % 2:
                    source = source * np.where(k_all % 2, -1.0, 1.0)
            sweep(t, source, bool(parity))
        if split:
            c_mu = post_free_c_mu
            if params.classical:
                c_nu = c_nu + sign * gamma * post_free_c_mu
        probes[t] = value(t, 1, 1), value(t, -1, -1)
    return probes


def long_double_plane_wave_probes(params: StandardMapParams, n_max: int) -> np.ndarray:
    """Probes G(1, tau, t), t = 0..n_max, of the first-order law at hbar > 0 from
    its plane-wave recursion in long double.

    G_t[j, k] = sum_m (c(j, m) + k d(j, m)) exp(i k beta_m), beta_m = p0 tau +
    m hbar tau / 2: free flight takes c to (c + j d) exp(i j beta_m) and d to
    d exp(i j beta_m), and the kick adds alpha (Dc(j, m - 1) - Dc(j, m + 1)),
    alpha = gamma / (2 i hbar), Dc(j) = c(j + 1) - c(j - 1), and the same for
    d.  Unlike the library, every period updates the whole box of rows
    j = -1..n_max + 1 and plane waves |m| <= n_max + 1 (row -1 refilled from
    the mirror -conj c(1), conj d(1)), forms each phase exp(i j beta_m)
    directly, and sums the probe terms in index order, all in long double.
    """
    ld = np.longdouble
    mid = n_max + 1
    j = np.arange(-1, n_max + 2).astype(ld)
    tau = ld(params.tau)
    beta = ld(params.p0) * tau + np.arange(-mid, mid + 1).astype(ld) * (ld(params.hbar) * tau / 2)
    flight = np.exp(1j * np.multiply.outer(j, beta))
    q_phase = np.exp(1j * (ld(params.q0) * j))
    c = np.zeros(flight.shape, dtype=np.clongdouble)
    d = np.zeros_like(c)
    c[:, mid] = ld(params.v1) * j * q_phase
    d[:, mid] = ld(params.v2) * tau * q_phase
    alpha = -1j * (ld(params.gamma) / (2 * ld(params.hbar)))
    probes = [np.sum((c[2] + d[2]) * flight[2])]  # row 1 sits at index 2
    for _ in range(n_max):
        c = (c + j[:, None] * d) * flight
        d = d * flight
        for a in (c, d):
            diff = a[2:] - a[:-2]
            a[1:-1, 1:-1] += alpha * (diff[:, :-2] - diff[:, 2:])
        c[0], d[0] = -np.conj(c[2]), np.conj(d[2])
        probes.append(np.sum((c[2] + d[2]) * flight[2]))
    return np.array(probes).astype(complex)


def _bessel_dictionary_lattice(gamma: float, hbar: float, tau: float, n_max: int,
                               targets, v1: float, v2: float, q0: float, p0: float):
    """Dictionary-lattice evolution of the shear recursion under the exact kick.

    The quantum kick G(j, k) <- sum_m J_m(gamma f(k tau)) G(j + m, k) is cut
    at |m| <= M, the smallest M above 2 gamma/hbar with |J_M(2 gamma/hbar)|
    below 1e-17 (|gamma f| never exceeds 2 gamma/hbar).  The lattice is a
    dictionary of rows, j -> (k_lo, values), holding at each time the column
    hull of every cell that a target at that time or later depends on.
    Yields (lattice, M) at t = 0..n_max.
    """
    x_max = 2.0 * gamma / hbar
    reach = int(x_max) + 1
    while abs(jv(reach, x_max)) >= 1e-17:
        reach += 1

    def add(rows, j, lo, hi):
        a, b = rows.get(j, (lo, hi))
        rows[j] = (min(a, lo), max(b, hi))

    # backward: a cell (j, k) at time t reads (j + m, k + j + m) at time t - 1
    hulls = [{} for _ in range(n_max + 1)]
    for t in range(n_max, -1, -1):
        for (j, k) in targets:
            add(hulls[t], j, k, k)
        if t:
            for j, (lo, hi) in hulls[t].items():
                for src in range(j - reach, j + reach + 1):
                    add(hulls[t - 1], src, lo + src, hi + src)

    k_min = min(lo for rows in hulls for lo, _ in rows.values())
    k_max = max(hi for rows in hulls for _, hi in rows.values())
    k_all = np.arange(k_min, k_max + 1)
    arg = gamma * (2.0 / hbar) * np.sin(hbar * k_all * tau / 2.0)
    weights = {m: jv(m, arg) for m in range(-reach, reach + 1)}

    cur = {}
    for j, (lo, hi) in hulls[0].items():
        k = np.arange(lo, hi + 1)
        cur[j] = (lo, (v1 * j + v2 * k * tau) * np.exp(1j * (q0 * j + p0 * tau * k)))
    yield cur, reach
    for t in range(1, n_max + 1):
        out = {}
        for j, (lo, hi) in hulls[t].items():
            acc = np.zeros(hi - lo + 1, dtype=complex)
            for m in range(-reach, reach + 1):
                src_lo, src = cur[j + m]
                start = lo + j + m - src_lo
                acc += weights[m][lo - k_min : hi - k_min + 1] * src[start : start + acc.size]
            out[j] = (lo, acc)
        cur = out
        yield cur, reach


def bessel_brute_force_probes(gamma: float, hbar: float, tau: float, n_max: int,
                              v1: float = 1.0, v2: float = 1.0, q0: float = 0.0,
                              p0: float = 0.0):
    """Probe rows (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, under the exact
    quantum kick, from the Bessel-weighted dictionary lattice."""
    probes = ((1, 1), (-1, -1))
    lattices = _bessel_dictionary_lattice(gamma, hbar, tau, n_max, probes, v1, v2, q0, p0)
    return np.array([[cur[j][1][k - cur[j][0]] for j, k in probes] for cur, _ in lattices])


def floquet_probes(gamma: float, hbar: float, tau: float, n_max: int,
                   v1: float = 1.0, v2: float = 1.0, q0: float = 0.0, p0: float = 0.0,
                   k_max: int = 64, s_max: int = 24, h: float = 3e-6):
    """Probe rows (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, of the exact
    quantum map, from dense Floquet matrices and a finite difference in p0.

    A second route to `tomolyap.hilbert.quantum_probes` that shares neither
    its FFT kick, its tangent states nor its grid choice.  The Weyl symbol

        a_t(q0, p0) = sum_m exp(i m q0) <p0 + hbar m/2| U^-t D(mu, nu) U^t |p0 - hbar m/2>

    is evaluated on the momenta b + hbar k, |k| <= k_max, of the two fibres
    b = p0 (m = 2s: k' = s, k = -s) and b = p0 - hbar/2 (m = 2s - 1: k' = s,
    k = 1 - s), with the m-sum cut at |s| <= s_max.  U = U_K U_F is a dense
    matrix, <k'|exp(-i x cos q)|k> = (-i)^(k' - k) J_(k' - k)(x) with
    x = gamma/hbar, applied to the columns |k| <= s_max; D(mu, nu) maps
    |p> to exp(i nu (p + hbar mu/2)) |p + hbar mu>.  d/dq0 is taken term by
    term and d/dp0 by the fourth-order central difference of step h.  The
    cuts are the caller's: they must hold the momentum spread of the run.
    """
    k = np.arange(-k_max, k_max + 1)
    d = k[:, None] - k[None, :]
    kick = (-1j) ** (d % 4) * jv(d, gamma / hbar)
    s = np.arange(-s_max, s_max + 1)
    cols = s + k_max
    fibres = [(0.0, s, -s, 2 * s), (-0.5 * hbar, s[1:], 1 - s[1:], 2 * s[1:] - 1)]
    directions = ((1, tau), (-1, -tau))

    def symbol(base):
        """a_t and d/dq0 a_t at (q0, base) for both directions, t = 0..n_max."""
        a = np.zeros((n_max + 1, 2), dtype=complex)
        a_q = np.zeros((n_max + 1, 2), dtype=complex)
        for offset, k_out, k_in, m in fibres:
            p = base + offset + hbar * k
            step = kick * np.exp(-1j * tau * p * p / (2.0 * hbar))
            states = np.zeros((k.size, s.size), dtype=complex)
            states[cols, np.arange(s.size)] = 1.0
            weight = np.exp(1j * m * q0)
            for t in range(n_max + 1):
                if t:
                    states = step @ states
                for i, (mu, nu) in enumerate(directions):
                    shifted = np.roll(np.exp(1j * nu * (p + 0.5 * hbar * mu))[:, None] * states,
                                      mu, axis=0)
                    shifted[0 if mu > 0 else -1] = 0.0  # nothing enters from beyond the cut
                    c = np.einsum("ni,ni->i", states[:, k_out + s_max].conj(),
                                  shifted[:, k_in + s_max])
                    a[t, i] += np.sum(weight * c)
                    a_q[t, i] += np.sum(1j * m * weight * c)
        return a, a_q

    a, a_q = symbol(p0)
    f = {j: symbol(p0 + j * h)[0] for j in (-2, -1, 1, 2)}
    a_p = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h)
    return -1j * (v1 * a_q + v2 * a_p)
