"""Kicked-rotor (standard map) evolution of the perturbation symbol G.

The dynamical object is the complex field G(mu, nu, t) on the integer shear
lattice mu = j, nu = k tau.  One kick period acts in two stages:

    free flight   G[j, k] <- G[j, k + j]                  (shear nu <- nu+mu tau)
    kick          G[j, k] <- G[j, k]
                          + (gamma/2) f(k tau) (G[j+1, k] - G[j-1, k])

with f(nu) = nu in the classical regime (hbar = 0) and
f(nu) = (2/hbar) sin(hbar nu / 2) in the quantum one.  The kick reads only
pre-kick values.  Initial data is the dipole-perturbation symbol
(v1 mu + v2 nu) exp(i(q0 mu + p0 nu)).

The two-term kick is the first order of the exact kick in both regimes.
Classically the exact kick is sum_m J_m(gamma nu) G(mu + m, nu); the two
terms reproduce it only on the phased-linear family at q0, p0 tau in pi Z,
which is what split mode carries.  At hbar > 0 it is the first-order,
non-unitary lattice recursion that the symbolic and dictionary oracles pin
down: the exact quantum kick is sum_m J_m(gamma f(nu)) G(mu + m, nu), unitary
on each column, whereas the two-term stencil amplifies a column by up to
sqrt(1 + 4 gamma^2/hbar^2) per period.  Probes of the exact quantum map come
from `hilbert.quantum_probes`.

Exactness and cost
------------------
The lattice is sized to contain the full backward dependency cone of the
probe cells over the whole run, so there is no truncation error; any access
outside the guaranteed cone raises instead of silently truncating.  The field
is point-symmetric at every time, in both modes and at every base point:

    G(-j, -k) = -conj G(j, k).

The initial data has this symmetry; free flight G[j, k] <- G[j, k + j]
commutes with the reflection (j, k) -> (-j, -k); the kick coefficient
(gamma/2) f(k tau) is real and odd in k, so the kick keeps it; and in split
mode the carried phased-linear part is real and odd, so the real deviation
is odd.  The backward cone of the probe pair is point-symmetric too.  So only
rows j >= 0 are stored and swept, and rows j < 0 are read through the
identity.  Rounding is symmetric under negation and conjugation, and
f(-k tau) evaluates to exactly -f(k tau), so the stored half holds, bit for
bit, what a sweep of the whole lattice would hold.

There is one lattice, float64 in split mode and complex128 in direct mode.
The J x K box (`lattice_extents`) has (J + 1)(2K + 1) = O(n^3) cells in
rows j >= 0, but a sweep reads or writes only about a third of them (8 %
in any one period), so each row stores only the columns its sweep touches
in some period (`_cone_table`), the rows one after another in one flat
array: 2,717,107 of 8,243,221 cells at n = 200.  Each period is swept in
place, row by row, over the per-row column hull of the backward cone only,
keeping three rows of scratch; a table of those hulls, for the rows
j >= -1 the sweep reads, is built once.
Time is proportional to the swept half of the cone, O(n^4): about half of
the 2.75e8 cells of the probe pair's cone at n = 200.  `GField.lattice_bytes`
is the whole allocation (stored cells, row buffers, hull table, four column
vectors) and is what the memory budget is checked against; at n = 200 in
split mode it is about 24 MB (46 MB in direct mode), within 0.3 % of the
traced peak.  All of it is resident: numpy asks for transparent huge pages
on arrays this large, so the kernel backs untouched cells too, which a
whole-box lattice paid for in full (62 of 66 MB in huge pages after five
periods at n = 200).

The evolution is linear, and phased-linear fields

    (c_mu mu + c_nu nu) exp(i(a mu + b nu)),   a, b multiples of pi

form an exactly invariant family under the classical kick (and under free
flight always).  The engine therefore carries that part in closed form and
evolves only the deviation field on the lattice ("split" mode).  For the
classical map with a base point at q0 in {0, pi} the deviation is identically
zero and the probe values are exact for any run length; the direct all-lattice
mode is kept as a cross-check and for generic base points.  Direct classical
runs amplify roundoff through the unbounded kick coefficient at the window
edge and are accurate only to moderate run lengths (about 40 periods at
gamma = 1); the split representation exists precisely to avoid that.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConeError, NumericalError, ResourceError, ValidationError
from .estimator import ExponentEstimate, estimate_exponent
from .series import DerivativeSeries

DEFAULT_MAX_BYTES = 6 * 1024**3


@dataclass(frozen=True)
class StandardMapParams:
    """Kick strength, period, regime selector and perturbation base point."""

    gamma: float
    tau: float = 1.0
    hbar: float = 0.0
    q0: float = 0.0
    p0: float = 0.0
    v1: float = 1.0
    v2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gamma", "tau", "hbar", "q0", "p0", "v1", "v2"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        if self.hbar < 0:
            raise ValidationError("hbar must be nonnegative")

    @property
    def classical(self) -> bool:
        return self.hbar == 0.0

    def f(self, nu):
        """Kick profile: nu classically, bounded sine in the quantum regime."""
        nu = np.asarray(nu, dtype=float)
        if self.classical:
            return nu
        return (2.0 / self.hbar) * np.sin(0.5 * self.hbar * nu)

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name))
                for name in ("gamma", "tau", "hbar", "q0", "p0", "v1", "v2")}


def lattice_extents(n_max: int, keep: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """Half-extents (J, K) containing the backward cone of the probe window.

    A probe at (j0, k0) with |j0| <= keep_j, |k0| <= keep_k read after any
    s <= n_max periods depends on initial cells with |j| <= keep_j + s and
    |k| <= keep_k + s keep_j + s(s+1)/2; one extra row and two extra columns
    give the stencil sweeps room.
    """
    kj, kk = keep
    return kj + n_max + 1, kk + n_max * kj + n_max * (n_max + 1) // 2 + 2


def _pi_multiple(x: float) -> int | None:
    m = round(x / np.pi)
    return int(m) if abs(x - m * np.pi) <= 1e-12 * max(1.0, abs(x)) else None


def _cone_table(n_max: int, keep: tuple[int, int], J: int,
                K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column hulls, per period and lattice row, of the cells a sweep evaluates.

    Entry [t - 1] of the table holds four rows of lattice column indices: the
    pre-kick hull (lo, hi) and the post-kick hull (lo, hi) of period t, with
    lo > hi for an empty row.  Built backward from period n_max: the keep
    window is read after every period; a post-kick cell needs the pre-kick
    cells of its own row and of the two neighbouring rows; free flight moves
    pre-kick (j, k) of period t to post-kick (j, k + j) of period t - 1.  The
    build runs over all rows -J..J, but the sweep of the stored half reads
    only rows j >= -1, so only those are kept, row j at index j + 1.

    Also returned, for each stored row j = 0..J, is the column range
    [lo, hi] the sweep touches over the whole run (lo > hi if none): the
    union, over periods, of the columns it reads (pre-kick hull + j) and
    writes (post-kick hull).  The row above is read inside its own pre-kick
    hull, and the cone is point-symmetric, so row 1 read as the mirror of
    pre-kick row -1 stays inside row 1's own pre-kick read.
    """
    rows, cols = 2 * J + 1, 2 * K + 1
    j = np.arange(-J, J + 1)
    keep_rows = slice(J - keep[0], J + keep[0] + 1)
    table = np.empty((n_max, 4, J + 2), dtype=np.int32)
    # post-kick hulls of rows -J..J, between one empty row on either side
    lo_pad, hi_pad = np.full(rows + 2, cols), np.full(rows + 2, -1)
    lo, hi = lo_pad[1:-1], hi_pad[1:-1]
    store_lo, store_hi = np.full(J + 1, cols), np.full(J + 1, -1)
    for t in range(n_max, 0, -1):
        np.minimum(lo[keep_rows], K - keep[1], out=lo[keep_rows])
        np.maximum(hi[keep_rows], K + keep[1], out=hi[keep_rows])
        np.minimum(store_lo, lo[J:], out=store_lo)
        np.maximum(store_hi, hi[J:], out=store_hi)
        pre_lo = np.minimum(np.minimum(lo_pad[:-2], lo), lo_pad[2:])
        pre_hi = np.maximum(np.maximum(hi_pad[:-2], hi), hi_pad[2:])
        table[t - 1] = pre_lo[J - 1 :], pre_hi[J - 1 :], lo[J - 1 :], hi[J - 1 :]
        filled = pre_lo <= pre_hi
        np.copyto(lo, np.where(filled, pre_lo + j, cols))
        np.copyto(hi, np.where(filled, pre_hi + j, -1))
        np.minimum(store_lo, lo[J:], out=store_lo)
        np.maximum(store_hi, hi[J:], out=store_hi)
    return table, store_lo, store_hi


class GField:
    """Perturbation symbol on the shear lattice, advanced period by period.

    A fresh field holds the data (v1 mu + v2 nu) exp(i(q0 mu + p0 nu)) at
    t = 0; the overall scale of G drops out of the exponent (a log-ratio), so
    the constant prefactor of the dipole perturbation is dropped.  `advance()`
    steps it one period in place.  `value(j, k)` returns G(mu=j, nu=k tau) at
    the current time; after the first step only the declared probe window
    (|j| <= keep_j, |k| <= keep_k) is guaranteed by the cone bookkeeping and
    anything else raises `ConeError`.

    Only rows j = 0..J are stored, and each only over the columns its sweep
    touches in some period (`_cone_table`): the rows lie one after another
    in one flat array, row j at `_offset[j]` up to `_offset[j + 1]`, with
    lattice column c at flat index `_base[j] + c`.  A read of a cell that is not stored raises
    `ConeError`, at t = 0 too; a split field whose deviation is still
    identically zero (`_dev is None`) answers anywhere in the J x K box.
    Rows j < 0 are read through the symmetry G(-j, -k) = -conj G(j, k),
    which the initial data has and which free flight, the real odd kick
    coefficient and, in split mode, the real odd carried part all preserve
    (see the module docstring).
    """

    def __init__(self, params: StandardMapParams, n_max: int,
                 keep: tuple[int, int] = (1, 1), mode: str = "auto",
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if n_max < 1:
            raise ValidationError("n_max must be at least 1")
        if mode not in ("auto", "split", "direct"):
            raise ValidationError(f"unknown engine mode: {mode}")
        self.params = params
        self.n_max = int(n_max)
        self.keep = (int(keep[0]), int(keep[1]))
        if self.keep[0] < 1 or self.keep[1] < 1:
            raise ValidationError("probe window must include (1, 1)")
        self.t = 0
        self.J, self.K = lattice_extents(self.n_max, self.keep)

        m0 = _pi_multiple(params.q0)
        mb = _pi_multiple(params.p0 * params.tau)
        splittable = m0 is not None and mb is not None
        if mode == "split" and not splittable:
            raise ValidationError("split mode needs q0 and p0*tau to be multiples of pi")
        self.split = splittable if mode == "auto" else (mode == "split")

        # the split deviation stays real: carried part, kick and source are real
        dtype = np.dtype(float if self.split else complex)
        cols = 2 * self.K + 1
        table_bytes = self.n_max * 4 * (self.J + 2) * np.dtype(np.int32).itemsize
        vector_bytes = 4 * cols * np.dtype(float).itemsize
        if table_bytes + vector_bytes > max_bytes:
            raise ResourceError(
                f"the cone table and four column vectors of a {dtype} lattice need "
                f"{table_bytes + vector_bytes} bytes, exceeding the budget of {max_bytes}")
        self._cone, lo, hi = _cone_table(self.n_max, self.keep, self.J, self.K)
        width = np.maximum(hi - lo + 1, 0)
        offset = np.zeros(self.J + 2, dtype=np.int64)
        np.cumsum(width, out=offset[1:])
        # row j holds lattice columns c = lo[j]..hi[j] at flat indices base[j] + c
        self._offset, self._base = offset.tolist(), (offset[:-1] - lo).tolist()
        cells, widest = self._offset[-1], int(width.max())
        self._lattice_bytes = (cells + 3 * widest) * dtype.itemsize + table_bytes + vector_bytes
        if self._lattice_bytes > max_bytes:
            raise ResourceError(
                f"lattice of {cells} {dtype} cells (rows 0..{self.J} over the backward "
                f"cone) with three row buffers, four column vectors and the cone table "
                f"needs {self._lattice_bytes} bytes, exceeding the budget of {max_bytes}")

        self._k = np.arange(-self.K, self.K + 1)
        if self.split:
            self._m0, self._mb = m0, mb
            self.c_mu = complex(params.v1)
            self.c_nu = complex(params.v2)
            # deviation lattice: identically zero until a quantum kick sources it
            self._dev: np.ndarray | None = None
        else:
            self._m0 = self._mb = 0
            self.c_mu = self.c_nu = 0.0 + 0.0j
            self._dev = np.empty(cells, dtype=dtype)
            p_k = params.p0 * params.tau * self._k
            v_k = params.v2 * params.tau * self._k
            for j, base in enumerate(self._base):
                a, b = self._offset[j] - base, self._offset[j + 1] - base
                phase = np.exp(1j * (params.q0 * j + p_k[a:b]))
                np.multiply(params.v1 * j + v_k[a:b], phase, out=self._dev[base + a : base + b])
            # freed before the sweep's column vectors exist: the budget counts four
            del p_k, v_k
        fcol = params.f(params.tau * self._k)
        self._half_gamma_f = (params.gamma / 2.0) * fcol
        # the quantum kick's source column: f times, when p0 tau is an odd
        # multiple of pi, the (-1)^k column sign of the carried part (the kick
        # coefficient above carries no sign); column c holds k = c - K
        if self._mb % 2:
            fcol[(self.K + 1) % 2 :: 2] *= -1.0
        self._source_f = fcol
        # the sweep's three row buffers, allocated once (after the fill's
        # temporaries are gone): fresh ones every period would be mapped and
        # faulted in again whenever the allocator returns their pages
        self._scratch = np.empty((3, widest), dtype=dtype)

    @property
    def lattice_bytes(self) -> int:
        """Bytes the evolution allocates at most.

        The stored cells, three row buffers as wide as the widest stored
        row, the cone table, and four (2K + 1)-vectors of 8-byte entries:
        the columns `_k`, `_source_f` and `_half_gamma_f`, and one period's
        kick source.
        """
        return self._lattice_bytes

    # -- carried phased-linear part -----------------------------------------

    def _kick_parity(self, t: int) -> int:
        # phase slope a(t) = q0 + p0 tau t in units of pi, at the kick of period t
        return (self._m0 + self._mb * t) % 2

    def _carried_value(self, j: int, k: int) -> complex:
        if not self.split:
            return 0.0 + 0.0j
        sign = -1.0 if ((self._kick_parity(self.t) * j + self._mb * k) % 2) else 1.0
        return (self.c_mu * j + self.c_nu * k * self.params.tau) * sign

    # -- public access --------------------------------------------------------

    def _check_window(self, j: int, k: int) -> None:
        if abs(j) > self.J or abs(k) > self.K:
            raise ConeError(f"cell ({j}, {k}) outside the allocated lattice")
        if self.t > 0 and (abs(j) > self.keep[0] or abs(k) > self.keep[1]):
            raise ConeError(
                f"cell ({j}, {k}) outside the declared probe window {self.keep}; "
                "construct the field with a larger keep window")

    def _stored(self, j: int, k_lo: int, k_hi: int) -> int:
        """Flat index of G(j, k_lo), j >= 0; cells k_lo..k_hi must be stored."""
        zero = self._base[j] + self.K
        if zero + k_lo < self._offset[j] or zero + k_hi >= self._offset[j + 1]:
            raise ConeError(
                f"cells ({j}, {k_lo}..{k_hi}) outside the stored backward cone "
                f"(row {j} holds k = {self._offset[j] - zero}..{self._offset[j + 1] - zero - 1})")
        return zero + k_lo

    def value(self, j: int, k: int) -> complex:
        """G at lattice point (mu = j, nu = k tau), current time."""
        self._check_window(j, k)
        carried = self._carried_value(j, k)
        if self._dev is None:
            return carried
        if j >= 0:
            return carried + complex(self._dev[self._stored(j, k, k)])
        return carried - complex(self._dev[self._stored(-j, -k, -k)]).conjugate()

    def probe_pair(self) -> tuple[complex, complex]:
        """The two derivative-iteration probes G(1, tau) and G(-1, -tau)."""
        return self.value(1, 1), self.value(-1, -1)

    # -- evolution -------------------------------------------------------------

    def _sweep(self, t: int, source: np.ndarray | None, flip_odd_rows: bool) -> None:
        """Free flight and kick of period t, in place, over the backward cone.

        Rows j = 0..J go in ascending order; lattice column c of row j sits
        at flat index `base[j] + c`.  Row j's pre-kick values (old row j read
        at k + j) are copied to `pre` before row j is overwritten; the row
        below, already overwritten, is read from its copy `below`, and the
        row above is still old and is read in place at k + j + 1.  Row 0's
        lower neighbour is pre-kick row -1, the mirror of old row 1:
        pre_{-1}[k] = old[-1, k - 1] = -conj old[1, 1 - k].  It is copied into
        `below` before the loop, while row 1 is still old.
        """
        dev, base, J, K = self._dev, self._base, self.J, self.K
        pre, below, diff = self._scratch
        pre_lo, pre_hi, post_lo, post_hi = self._cone[t - 1].tolist()
        # the hull table has rows j = -1..J at index j + 1; lattice column c
        # holds k = c - K, so k -> 1 - k takes column c to 2K + 1 - c
        below_lo, below_hi = pre_lo[0], pre_hi[0]
        mirror = below[: below_hi - below_lo + 1]
        flip = base[1] + 2 * K + 1
        np.negative(dev[flip - below_hi : flip + 1 - below_lo][::-1], out=mirror)
        if not self.split:
            np.conjugate(mirror, out=mirror)
        for j in range(J + 1):
            lo, hi = pre_lo[j + 1], pre_hi[j + 1]
            if lo > hi:
                continue
            row = base[j]
            np.copyto(pre[: hi - lo + 1], dev[row + lo + j : row + hi + j + 1])
            a, b = post_lo[j + 1], post_hi[j + 1] + 1
            if a < b:
                d = diff[: b - a]
                up = base[j + 1] + j + 1
                np.subtract(dev[up + a : up + b], below[a - below_lo : b - below_lo], out=d)
                np.multiply(self._half_gamma_f[a:b], d, out=d)
                out = dev[row + a : row + b]
                np.add(pre[a - lo : b - lo], d, out=out)
                if source is not None:
                    if flip_odd_rows and j % 2:
                        out -= source[a:b]
                    else:
                        out += source[a:b]
            pre, below, below_lo = below, pre, lo

    def advance(self) -> None:
        """Advance one full period in place (free flight, then kick)."""
        t = self.t + 1
        if t > self.n_max:
            raise ConeError(
                f"lattice window was sized for {self.n_max} periods; "
                "probe validity is not guaranteed beyond that")
        params = self.params
        gamma, tau = params.gamma, params.tau

        post_free_c_mu = self.c_mu + tau * self.c_nu if self.split else self.c_mu
        need_source = self.split and not params.classical and post_free_c_mu != 0.0
        if need_source and self._dev is None:
            self._dev = np.zeros(self._offset[-1], dtype=float)
        parity = self._kick_parity(t)
        sign = -1.0 if parity else 1.0

        if self._dev is not None:
            source = None
            if need_source:
                source = (sign * gamma * post_free_c_mu).real * self._source_f
            # overflow is caught through the probes (`run_standard_map`)
            with np.errstate(over="ignore", invalid="ignore"):
                self._sweep(t, source, flip_odd_rows=bool(parity))

        if self.split:
            self.c_mu = post_free_c_mu
            if params.classical:
                self.c_nu = self.c_nu + sign * gamma * post_free_c_mu
        self.t = t


# ---------------------------------------------------------------------------
# derivative iteration and the exponent pipeline
# ---------------------------------------------------------------------------


def derivative_iteration(probes: np.ndarray, params: StandardMapParams,
                         n_max: int | None = None) -> DerivativeSeries:
    """Evolve the origin derivatives from the probe history.

    ``probes[t]`` holds (G(1, tau, t), G(-1, -tau, t)) at post-kick times, as
    `GField.probe_pair` and `hilbert.quantum_probes` return them; the free
    flight adds tau g3 to g2, and the kick shifts g3 by gamma/2 times the
    probe difference (the kick leaves g2 alone because f(0) = 0, and
    contributes to g3 through f'(0) = 1 in both regimes):

        g2[t+1] = g2[t] + tau g3[t]
        g3[t+1] = g3[t] + (gamma/2) (G(1, tau, t) - G(-1, -tau, t))

    starting from (g2, g3)(0) = (v1, v2).  The same iteration holds for the
    exact quantum kick sum_m J_m(gamma f(nu)) G(mu + m, nu): at the origin
    J_m(0) = delta_m0 and only J_{+-1}'(0) = +-1/2 contribute to d/dnu.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim != 2 or probes.shape[1] != 2:
        raise ValidationError("probes must be an (n+1, 2) array")
    if n_max is None:
        n_max = probes.shape[0] - 1
    if probes.shape[0] < n_max + 1:
        raise ConeError(f"need probes for t = 0..{n_max}, got {probes.shape[0]} rows")
    g2 = np.empty(n_max + 1, dtype=complex)
    g3 = np.empty(n_max + 1, dtype=complex)
    g2[0], g3[0] = params.v1, params.v2
    half_gamma = 0.5 * params.gamma
    for t in range(n_max):
        g2[t + 1] = g2[t] + params.tau * g3[t]
        g3[t + 1] = g3[t] + half_gamma * (probes[t, 0] - probes[t, 1])
    return DerivativeSeries(g2, g3, params=params, probe_values=probes[: n_max + 1, 0].copy())


def run_standard_map(params: StandardMapParams, n_max: int,
                     mode: str = "auto") -> tuple[DerivativeSeries, ExponentEstimate]:
    """Full pipeline: evolve the lattice, iterate derivatives, fit the rate
    over the estimator's default window.

    Raises `NumericalError` at the first period whose probes overflow; a
    derivative norm that overflows inside the fit window raises
    `DegenerateSeriesError` in the estimator.
    """
    field = GField(params, n_max, mode=mode)
    probes = np.empty((n_max + 1, 2), dtype=complex)
    probes[0] = field.probe_pair()
    for t in range(1, n_max + 1):
        field.advance()
        probes[t] = pair = field.probe_pair()
        if not (cmath.isfinite(pair[0]) and cmath.isfinite(pair[1])):
            raise NumericalError(f"lattice probes left the finite range at period {t}")
    series = derivative_iteration(probes, params, n_max)
    return series, estimate_exponent(series)


# ---------------------------------------------------------------------------
# classical closed form
# ---------------------------------------------------------------------------


def _chebyshev_u(half_z: float, n: int) -> float:
    """Second-kind Chebyshev value U_n(half_z) by the three-term recurrence.

    Valid for any real argument (hyperbolic included); U_{-1} = 0, U_{-2} = -1.
    """
    if n == -2:
        return -1.0
    if n == -1:
        return 0.0
    prev, cur = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(n):
        prev, cur = cur, 2.0 * half_z * cur - prev
    return cur


def classical_closed_form(gamma: float, v1: float, v2: float, n: int) -> tuple[float, float]:
    """Exact classical (g2, g3) after n periods at the hyperbolic base point.

    With z = 2 + gamma the transfer coefficients are Chebyshev combinations

        A_n = U_{n-1} - U_{n-2}
        B_n = C_n / (z - 2)          (B_n -> n in the free limit gamma -> 0)
        C_n = U_n - 2 U_{n-1} + U_{n-2}
        D_n = U_n - U_{n-1}

    all evaluated at z/2, and (g2, g3)(n) = (A_n v1 + B_n v2, C_n v1 + D_n v2).
    Requires the tau = 1, q0 = p0 = 0 configuration the coefficients encode.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    z = 2.0 + gamma
    half_z = 0.5 * z
    u_n = _chebyshev_u(half_z, n)
    u_n1 = _chebyshev_u(half_z, n - 1)
    u_n2 = _chebyshev_u(half_z, n - 2)
    a_n = u_n1 - u_n2
    c_n = u_n - 2.0 * u_n1 + u_n2
    d_n = u_n - u_n1
    if abs(z - 2.0) < 1e-12:
        b_n = float(n)
    else:
        b_n = c_n / (z - 2.0)
    return a_n * v1 + b_n * v2, c_n * v1 + d_n * v2


def classical_closed_form_series(gamma: float, v1: float, v2: float, n_max: int) -> DerivativeSeries:
    g2 = np.empty(n_max + 1, dtype=complex)
    g3 = np.empty(n_max + 1, dtype=complex)
    for n in range(n_max + 1):
        g2[n], g3[n] = classical_closed_form(gamma, v1, v2, n)
    return DerivativeSeries(g2, g3, params={"kind": "classical_closed_form", "gamma": gamma})


def classical_lyapunov(gamma: float) -> float:
    """Classical exponent at the kick strength gamma (tau = 1).

    Positive gamma is the hyperbolic base point with
    lambda = ln(1 + gamma/2 + sqrt(gamma^2/4 + gamma)); negative gamma encodes
    the elliptic base point (q0 = pi), where the exponent vanishes for
    -4 < gamma < 0 and turns positive again below -4.
    """
    if not np.isfinite(gamma):
        raise ValidationError("gamma must be finite")
    disc = gamma * gamma / 4.0 + gamma
    if disc <= 0.0:
        return 0.0
    root = np.sqrt(disc)
    return float(np.log(max(abs(1.0 + gamma / 2.0 + root), abs(1.0 + gamma / 2.0 - root))))


def hbar_resonance(params: StandardMapParams) -> tuple[int, int] | None:
    """Detect hbar tau / (4 pi) close to a small rational (resonant kicking).

    Returns the (p, q) pair when |hbar tau/(4 pi) - p/q| <= 1e-9 with
    q <= 64, else None.  The generic (irrational) case is the one the
    quantum engine is meant for.
    """
    if params.classical:
        return None
    x = params.hbar * params.tau / (4.0 * np.pi)
    frac = Fraction(x).limit_denominator(64)
    if abs(x - float(frac)) <= 1e-9:
        return frac.numerator, frac.denominator
    return None
