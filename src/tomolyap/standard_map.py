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
One law, two evaluations.  At hbar > 0 the kick coefficient is a
trigonometric polynomial in k, (gamma/2) f(k tau) = alpha (exp(i k hbar
tau/2) - exp(-i k hbar tau/2)) with alpha = gamma / (2 i hbar), so the field
is a finite sum of plane waves in k,

    G_t[j, k] = sum_m (c_t(j, m) + k d_t(j, m)) exp(i k beta_m),
    beta_m = p0 tau + m hbar tau / 2,   |m| <= t,

in which free flight is diagonal and the kick is a two-term shift in m
(`_plane_wave_probes`).  Each period is a few whole-array operations on the
rows and plane waves the later probes still read: about n^3/3 cells per
array over a run, O(n^3), 0.1 s at n = 200 in five 1.3 MB arrays.  That basis
is ill-conditioned at small hbar tau, where the terms of the probe sum
cancel, and it cannot represent hbar = 0, where f(nu) = nu.  So the run
measures kappa = sum_m |term_m| / max(1, |G(1, tau)|) after every period and
gives way to the lattice (`GField`) at the first period where 10 eps kappa
passes `_PLANE_WAVE_MAX_ERROR` = 1e-10 or a probe is not finite, and before
it starts if its arrays exceed `MAX_BYTES`; the lattice also serves hbar = 0.
Kappa bounds the loss to cancellation in the probe sum: on 13 runs at
p0 = 0 (hbar tau 0.01 to 6, n 20 to 200) the error against a long-double
run of the same recursion stayed within 10 eps kappa.  It does not see the
rounding of the phases, which the inputs' own conditioning can magnify: at
p0 tau = pi, n = 200 the plane waves are 1.1e-10 from a 40-digit run at the
same inputs (10 eps kappa = 3.3e-14), where a one-ulp change of p0 moves
the probes by 2.2e-9 and the lattice, which takes p0 tau as exactly pi,
differs by 6.0e-10.

The lattice costs O(n^4).  It is sized to contain the full backward
dependency cone of the probe cells over the whole run, so there is no
truncation error; any access outside the guaranteed cone raises instead of
silently truncating.  The field is point-symmetric at every time, in both
modes and at every base point:

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
rows j >= 0.  The sweep touches about a third of them over the run (period
1 alone reads 2.72M of the 8.24M at n = 200; the average period reads 8 %),
so each row stores only the cells its sweep touches in some period
(`_cone_table`), the rows one after another in one flat array: 2,717,007
cells at n = 200.  Rows are stored in comoving columns: after period t,
lattice column c of row j sits at x = c + j t.  Free flight
G[j, k] <- G[j, k + j] keeps x, so it moves no data, and each period is
one kick, swept in place row by row over the per-row post-kick hull of the
backward cone (a table of those hulls is built once).  Each row's
neighbour difference is formed before its lower neighbour is overwritten,
so two scratch rows suffice and no row is copied.  The sweep runs on
float64 in both modes: a direct-mode cell is a (re, im) pair, and the real
kick coefficient and the additions act on each part alone.  That gives
complex arithmetic's values and could differ from it only in the sign of
a zero, so the tests compare probes byte for byte with a complex sweep.
Time is proportional to the swept half of the cone, O(n^4): about half of
the 2.75e8 cells of the probe pair's cone at n = 200.  `GField.lattice_bytes`
is the run's whole allocation (stored cells, scratch rows, hull table,
column vectors, and the Python objects of the sweep and the probe history)
and is what the memory budget is checked against; at n = 200 it is about
23 MB in split mode and 45 MB in direct mode, within 0.1 % of the traced
peak, and within 1 % of it down to n = 20.  All of it is resident: numpy
asks for transparent huge pages on arrays this large, so the kernel backs
untouched cells too, which a whole-box lattice paid for in full (62 of
66 MB in huge pages after five periods at n = 200).

The evolution is linear, and phased-linear fields

    (c_mu mu + c_nu nu) exp(i(a mu + b nu)),   a, b multiples of pi

form an exactly invariant family under the classical kick (and under free
flight always).  The engine therefore carries that part in closed form and
evolves only the deviation field on the lattice ("split" mode).  For the
classical map with a base point at q0 in {0, pi} the deviation is identically
zero and the probe values are exact for any run length; such a field builds
neither the cone table nor the lattice.  The all-lattice
"direct" mode serves the generic base points; the mode always follows the
base point.  The split/direct cross-check at splittable base points lives in
the tests (`tests/oracles.py::full_lattice_probes` with mode "direct").
Direct classical runs amplify roundoff through the unbounded kick
coefficient at the window edge and are accurate only to moderate run lengths
(about 40 periods at gamma = 1); the split representation exists precisely to
avoid that.

`lattice_probes(params, n)` returns the probe history with the contract of
`hilbert.quantum_probes`; `_plane_wave_probes` and `GField` evaluate it.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConeError, NumericalError, ResourceError, ValidationError
from .estimator import ExponentEstimate, estimate_exponent
from .series import DerivativeSeries

MAX_BYTES = 6 * 1024**3

# a plane-wave run is abandoned for the lattice once 10 eps kappa, its bound
# on the relative error of a probe, exceeds this
_PLANE_WAVE_MAX_ERROR = 1e-10
_EPS = float(np.finfo(float).eps)


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


def check_run_length(n_max) -> int:
    """`n_max` as an int, for a run of at least one period.

    A bool or a value that is not an integer raises `ValidationError`
    rather than being truncated; any NumPy integer is accepted.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral):
        raise ValidationError(f"n_max must be an integer, got {n_max}")
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    return int(n_max)


def lattice_extents(n_max: int) -> tuple[int, int]:
    """Half-extents (J, K) containing the backward cone of the probe cells.

    A probe at (j0, k0) with |j0|, |k0| <= 1 read after any s <= n_max
    periods depends on initial cells with |j| <= 1 + s and
    |k| <= 1 + s + s(s+1)/2; one extra row and two extra columns give the
    stencil sweeps room.
    """
    return n_max + 2, n_max + 3 + n_max * (n_max + 1) // 2


def _pi_multiple(x: float) -> int | None:
    m = round(x / np.pi)
    return int(m) if abs(x - m * np.pi) <= 1e-12 * max(1.0, abs(x)) else None


def _cone_table(n_max: int, J: int, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column hulls, per period and lattice row, of the cells a sweep evaluates.

    Entry [t - 1] of the table holds four rows of lattice column indices: the
    pre-kick hull (lo, hi) and the post-kick hull (lo, hi) of period t, with
    lo > hi for an empty row.  Built backward from period n_max: the probe
    window |j|, |k| <= 1 is read after every period; a post-kick cell needs
    the pre-kick cells of its own row and of the two neighbouring rows; free
    flight moves pre-kick (j, k) of period t to post-kick (j, k + j) of
    period t - 1.  The build runs over all rows -J..J, but the sweep of the
    stored half reads only rows j >= -1, so only those are kept, row j at
    index j + 1.

    Also returned, for each stored row j = 0..J, is the range [lo, hi] of
    comoving columns x = c + j t the sweep touches over the whole run (lo > hi
    if none), where c is the lattice column after period t.  Free flight
    keeps x: pre-kick column c of period t is post-kick column c + j of
    period t - 1.  Row j is read and written over its own post-kick hull and
    read over those of rows j - 1 and j + 1, so the range is the union, over
    periods, of the pre-kick hull shifted by j t, except in row 0: row -1 is
    not swept, so row 0 is not read over row -1's post-kick hull.  The cone
    is point-symmetric, so row 1 read as the mirror of pre-kick row -1 over
    row 0's post-kick hull stays inside row 1's own pre-kick hull.
    """
    rows, cols = 2 * J + 1, 2 * K + 1
    j = np.arange(-J, J + 1)
    probe_rows = slice(J - 1, J + 2)
    table = np.empty((n_max, 4, J + 2), dtype=np.int32)
    # post-kick hulls of rows -J..J, between one empty row on either side
    lo_pad, hi_pad = np.full(rows + 2, cols), np.full(rows + 2, -1)
    lo, hi = lo_pad[1:-1], hi_pad[1:-1]
    for t in range(n_max, 0, -1):
        np.minimum(lo[probe_rows], K - 1, out=lo[probe_rows])
        np.maximum(hi[probe_rows], K + 1, out=hi[probe_rows])
        pre_lo = np.minimum(np.minimum(lo_pad[:-2], lo), lo_pad[2:])
        pre_hi = np.maximum(np.maximum(hi_pad[:-2], hi), hi_pad[2:])
        table[t - 1] = pre_lo[J - 1 :], pre_hi[J - 1 :], lo[J - 1 :], hi[J - 1 :]
        filled = pre_lo <= pre_hi
        np.copyto(lo, np.where(filled, pre_lo + j, cols))
        np.copyto(hi, np.where(filled, pre_hi + j, -1))
    # comoving pre-kick hulls of rows 0..J, period t in row t - 1
    shift = np.arange(1, n_max + 1)[:, None] * np.arange(J + 1)
    pre_lo, pre_hi = table[:, 0, 1:], table[:, 1, 1:]
    filled = pre_lo <= pre_hi
    store_lo = np.where(filled, pre_lo + shift, cols).min(axis=0)
    store_hi = np.where(filled, pre_hi + shift, -1).max(axis=0)
    # row 0 is read over its own and row 1's post-kick hulls only
    store_lo[0] = table[:, 2, 1:3].min()
    store_hi[0] = table[:, 3, 1:3].max()
    return table, store_lo, store_hi


class GField:
    """Perturbation symbol on the shear lattice, advanced period by period.

    A fresh field holds the data (v1 mu + v2 nu) exp(i(q0 mu + p0 nu)) at
    t = 0; the overall scale of G drops out of the exponent (a log-ratio), so
    the constant prefactor of the dipole perturbation is dropped.  `advance()`
    steps it one period in place, and `probe_pair()` reads the probes at the
    current time.  The field runs split when q0 and p0 tau are multiples of
    pi and direct otherwise; the split/direct cross-check at splittable base
    points is `tests/oracles.py::full_lattice_probes` with mode "direct".

    Only rows j = 0..J are stored, in comoving columns: after period t,
    lattice column c of row j sits at flat index `_base[j] + j t + c`, so
    free flight moves no data.  Each row holds only the comoving columns its
    sweep touches in some period (`_cone_table`), the rows one after another
    in one flat array, row j at `_offset[j]` up to `_offset[j + 1]`.  The
    probe G(1, tau) is the stored cell (1, 1); G(-1, -tau) is read through
    the symmetry G(-j, -k) = -conj G(j, k), which the initial data has and
    which free flight, the real odd kick coefficient and, in split mode, the
    real odd carried part all preserve (see the module docstring).
    """

    # fixed slots keep the field's own size independent of the interpreter's
    # dictionary state, which a classical split field's small budget would see
    __slots__ = ("params", "n_max", "t", "J", "K", "split", "_m0", "_mb", "c_mu", "c_nu",
                 "_dev", "_lattice_bytes", "_post", "_offset", "_base", "_half_gamma_f",
                 "_source_f", "_scratch")

    def __init__(self, params: StandardMapParams, n_max: int) -> None:
        self.params = params
        self.n_max = check_run_length(n_max)
        self.t = 0
        self.J, self.K = lattice_extents(self.n_max)

        m0, mb = _pi_multiple(params.q0), _pi_multiple(params.p0 * params.tau)
        self.split = m0 is not None and mb is not None

        if self.split:
            self._m0, self._mb = m0, mb
            self.c_mu, self.c_nu = complex(params.v1), complex(params.v2)
        else:
            self._m0 = self._mb = 0
            self.c_mu = self.c_nu = 0.0 + 0.0j

        # deviation lattice: in split mode identically zero until a quantum
        # kick sources it
        self._dev: np.ndarray | None = None
        if self.split and params.classical:
            # no source ever occurs, so the carried part is the whole field and
            # neither the cone table nor the lattice is built: the run holds
            # the probe history of `lattice_probes` and about 0.7 KB of objects
            # (672 bytes once the interpreter has specialized the code, 720 on
            # the first call in a process)
            self._lattice_bytes = (self.n_max + 1) * 2 * 16 + 696
            return

        # the split deviation stays real: carried part, kick and source are
        # real; the sweep runs on float64 in both modes, a direct-mode cell
        # being a (re, im) pair of floats
        dtype = np.dtype(float if self.split else complex)
        pair = dtype.itemsize // 8
        J, cols = self.J, 2 * self.K + 1
        # split: kick coefficients, source column and one period's source;
        # direct: the kick coefficients repeated per (re, im) pair
        vector_bytes = (3 if self.split else 2) * cols * 8
        table_bytes = self.n_max * 4 * (J + 2) * 4
        # the two difference rows are at most as wide as the box
        early = table_bytes + vector_bytes + 2 * cols * dtype.itemsize
        if early > MAX_BYTES:
            raise ResourceError(
                f"the cone table with the column vectors and two row buffers of a {dtype} "
                f"lattice needs up to {early} bytes, exceeding the budget of {MAX_BYTES}")
        table, lo, hi = _cone_table(self.n_max, J, self.K)
        # the sweep reads only the post-kick hulls of rows 0..J, kept as
        # [start, stop) in floats of the float64 view of the lattice
        post = table[:, 2:, 1:] * pair
        post[:, 1] += pair
        del table
        width = np.maximum(hi - lo + 1, 0)
        offset = np.zeros(J + 2, dtype=np.int64)
        np.cumsum(width, out=offset[1:])
        # row j holds comoving columns x = lo[j]..hi[j] at flat indices base[j] + x
        self._offset, self._base = offset, (offset[:-1] - lo).tolist()
        cells, widest = int(offset[-1]), int((post[:, 1] - post[:, 0]).max())
        # the row origins and one period's two hull lists (a 56-byte header per
        # list, a pointer and an int object per entry), the probe history of
        # `lattice_probes`, and about 3 KB of other Python objects: array
        # headers and views, the field's attributes, each period's error state
        objects = 3 * (56 + 36 * (J + 1)) + (self.n_max + 1) * 2 * 16 + 3 * 1024
        self._lattice_bytes = (cells * dtype.itemsize + 2 * widest * 8 + post.nbytes
                               + offset.nbytes + vector_bytes + objects)
        if self._lattice_bytes > MAX_BYTES:
            raise ResourceError(
                f"lattice of {cells} {dtype} cells (rows 0..{J} over the backward "
                f"cone) with two row buffers, the column vectors and the hull table "
                f"needs {self._lattice_bytes} bytes, exceeding the budget of {MAX_BYTES}")
        self._post = post

        fcol = params.f(params.tau * np.arange(-self.K, self.K + 1))
        half_gamma_f = (params.gamma / 2.0) * fcol
        if self.split:
            # the quantum kick's source column: f times, when p0 tau is an odd
            # multiple of pi, the (-1)^k column sign of the carried part (the
            # kick coefficient carries no sign); column c holds k = c - K
            if self._mb % 2:
                fcol[(self.K + 1) % 2 :: 2] *= -1.0
            self._half_gamma_f, self._source_f = half_gamma_f, fcol
        else:
            self._half_gamma_f, self._source_f = np.repeat(half_gamma_f, 2), None
        # direct mode frees both before its lattice exists: the budget counts two
        del fcol, half_gamma_f

        if not self.split:
            self._dev = np.empty(cells, dtype=dtype)
            p_tau, v_tau = params.p0 * params.tau, params.v2 * params.tau
            for j, (a, b) in enumerate(zip(lo.tolist(), (hi + 1).tolist())):
                if a < b:
                    # (v1 j + v2 tau k) exp(i(q0 j + p0 tau k)), formed in the row
                    row = self._dev[offset[j] : offset[j + 1]]
                    arg = p_tau * np.arange(a - self.K, b - self.K, dtype=float)
                    arg += params.q0 * j
                    np.multiply(1j, arg, out=row)
                    np.exp(row, out=row)
                    amp = np.multiply(v_tau, np.arange(a - self.K, b - self.K, dtype=float),
                                      out=arg)
                    amp += params.v1 * j
                    row *= amp
        # the sweep's two difference rows, allocated once: fresh ones every
        # period would be mapped and faulted in again whenever the allocator
        # returns their pages
        self._scratch = np.empty((2, widest))

    @property
    def lattice_bytes(self) -> int:
        """Bytes a run of this field allocates at most.

        The stored cells; two difference rows as wide as the widest post-kick
        hull; the post-kick hull table; the row offsets and origins; three
        (2K + 1)-vectors of floats (in split mode the kick coefficients, the
        source column and one period's source; in direct mode the kick
        coefficients repeated per (re, im) pair); one period's hull lists;
        and the (n_max + 1) x 2 complex probe history of `lattice_probes`.
        A classical split field, which builds no lattice, counts only the
        probe history and its own objects.
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

    # -- probes ---------------------------------------------------------------

    def probe_pair(self) -> tuple[complex, complex]:
        """The two derivative-iteration probes G(1, tau) and G(-1, -tau) now.

        A split field whose deviation is still identically zero (`_dev is
        None`) answers from the carried part alone.  Otherwise G(1, tau) adds
        the stored cell (1, 1), and G(-1, -tau) its mirror -conj; a cell
        (1, 1) that is not stored raises `ConeError`.
        """
        plus, minus = self._carried_value(1, 1), self._carried_value(-1, -1)
        if self._dev is None:
            return plus, minus
        cell = self._base[1] + self.t + self.K + 1
        if not self._offset[1] <= cell < self._offset[2]:
            raise ConeError(f"probe cell (1, 1) outside the stored backward cone at t = {self.t}")
        dev = complex(self._dev[cell])
        return plus + dev, minus - dev.conjugate()

    # -- evolution -------------------------------------------------------------

    def _sweep(self, t: int, source: np.ndarray | None, flip_odd_rows: bool) -> None:
        """Kick of period t, in place, over the backward cone.

        Free flight is already done: in comoving columns the pre-kick value
        of row j at lattice column c is the post-kick value of period t - 1
        at column c + j, and both sit at flat index base[j] + j t + c.  Rows
        j = 0..J go in ascending order on the float64 view of the lattice,
        where a direct-mode cell is a (re, im) pair: flat indices, hull
        bounds and kick coefficients all come in pairs, and the same real
        operations act on both parts.  Before row j is overwritten it forms
        row j + 1's difference pre[j + 2] - pre[j] in one scratch row; row j
        then takes its own difference, formed a row earlier in the other:
        d *= (gamma/2) f, row += d, then the source.  Row 0's difference
        reads pre-kick row -1, the mirror of row 1: pre[-1][c] =
        -conj pre[1][2K - c], formed on whole (complex) cells.
        """
        dev, base, coef = self._dev, self._base, self._half_gamma_f
        pair = dev.itemsize // 8
        flat = dev.view(float)
        diff, ahead = self._scratch
        starts, stops = self._post[t - 1].tolist()
        a, b = starts[0] // pair, stops[0] // pair
        if a < b:
            # whole cells: pre[1][c] is at one + c, and pre[-1][c] reads it at flip - c
            one = base[1] + t
            flip = one + 2 * self.K
            mirror = ahead.view(dev.dtype)[: b - a]
            np.negative(dev[flip - b + 1 : flip - a + 1][::-1], out=mirror)
            if not self.split:
                np.conjugate(mirror, out=mirror)
            np.subtract(dev[one + a : one + b], mirror, out=diff.view(dev.dtype)[: b - a])
        row = base[0] * pair
        # row J's post-kick hull is empty in every period (`lattice_extents`)
        for j in range(self.J):
            a, b = starts[j + 1], stops[j + 1]
            if a < b:
                up = (base[j + 2] + (j + 2) * t) * pair
                np.subtract(flat[up + a : up + b], flat[row + a : row + b], out=ahead[: b - a])
            a, b = starts[j], stops[j]
            if a < b:
                d = diff[: b - a]
                np.multiply(d, coef[a:b], out=d)
                out = flat[row + a : row + b]
                np.add(out, d, out=out)
                if source is not None:
                    if flip_odd_rows and j % 2:
                        out -= source[a:b]
                    else:
                        out += source[a:b]
            diff, ahead = ahead, diff
            row = (base[j + 1] + (j + 1) * t) * pair

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
            self._dev = np.zeros(int(self._offset[-1]), dtype=float)
        parity = self._kick_parity(t)
        sign = -1.0 if parity else 1.0

        if self._dev is not None:
            source = None
            if need_source:
                source = (sign * gamma * post_free_c_mu).real * self._source_f
            # overflow is caught through the probes (`lattice_probes`)
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


def derivative_iteration(probes: np.ndarray, params: StandardMapParams) -> DerivativeSeries:
    """Evolve the origin derivatives from the probe history.

    ``probes[t]`` holds (G(1, tau, t), G(-1, -tau, t)) at post-kick times, as
    `lattice_probes` and `hilbert.quantum_probes` return them; the free
    flight adds tau g3 to g2, and the kick shifts g3 by gamma/2 times the
    probe difference (the kick leaves g2 alone because f(0) = 0, and
    contributes to g3 through f'(0) = 1 in both regimes):

        g2[t+1] = g2[t] + tau g3[t]
        g3[t+1] = g3[t] + (gamma/2) (G(1, tau, t) - G(-1, -tau, t))

    starting from (g2, g3)(0) = (v1, v2).  The series has one entry per
    probe row, t = 0..n; the last row's probes are not read.  The same
    iteration holds for the exact quantum kick sum_m J_m(gamma f(nu))
    G(mu + m, nu): at the origin J_m(0) = delta_m0 and only
    J_{+-1}'(0) = +-1/2 contribute to d/dnu.
    """
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim != 2 or probes.shape[1] != 2 or len(probes) == 0:
        raise ValidationError("probes must be an (n+1, 2) array with n >= 0")
    n = probes.shape[0] - 1
    g2 = np.empty(n + 1, dtype=complex)
    g3 = np.empty(n + 1, dtype=complex)
    g2[0], g3[0] = params.v1, params.v2
    half_gamma = 0.5 * params.gamma
    for t in range(n):
        g2[t + 1] = g2[t] + params.tau * g3[t]
        g3[t + 1] = g3[t] + half_gamma * (probes[t, 0] - probes[t, 1])
    return DerivativeSeries(g2, g3, probe_values=probes[:, 0].copy())


def _plane_wave_bytes(n_max: int) -> int:
    """Bytes a `_plane_wave_probes` run allocates at most.

    Five (n_max + 2) x (2 n_max + 3) complex arrays (c and d, the free-flight
    phases and two difference arrays); the (n_max + 1) x 2 complex probe
    history; a period's probe terms and the row and column index vectors;
    numpy's iteration buffers, since an operation on a strided block buffers
    each of its three operands, up to `np.getbufsize()` elements of the
    largest block (c and d over rows j <= n_max + 2 - t and |m| < t, at the
    free flight of period t); and a few KB of Python objects.
    """
    rows, cols = n_max + 2, 2 * n_max + 3
    block = max(2 * (rows + 1 - t) * (2 * t - 1) for t in range(1, n_max + 1))
    cells = 5 * rows * cols + 2 * (n_max + 1) + cols + 3 * min(np.getbufsize(), block)
    return cells * 16 + (rows + cols) * 8 + 3 * 1024


def _plane_wave_probes(params: StandardMapParams, n_max: int) -> np.ndarray | None:
    """Probe history of the first-order law at hbar > 0, evaluated in plane waves in k.

    With (gamma/2) f(k tau) = alpha (exp(i k hbar tau/2) - exp(-i k hbar tau/2))
    and alpha = gamma / (2 i hbar), the field after period t is

        G_t[j, k] = sum_m (c_t(j, m) + k d_t(j, m)) exp(i k beta_m),
        beta_m = p0 tau + m hbar tau / 2,

    starting from c(j, 0) = v1 j exp(i q0 j), d(j, 0) = v2 tau exp(i q0 j).
    Free flight G[j, k] <- G[j, k + j] is diagonal in j and m,
    c <- (c + j d) exp(i j beta_m) and d <- d exp(i j beta_m); the kick is a
    two-term shift in m, a(j, m) += alpha (Da(j, m - 1) - Da(j, m + 1)) with
    Da(j, m) = a(j + 1, m) - a(j - 1, m), for a in {c, d}.  Nothing is
    truncated: after period t only |m| <= t is nonzero, and the later probes
    read only rows j <= n_max + 1 - t, so each period is a few whole-array
    operations on a shrinking block, O(n^3) in all.  Rows j < 0 are read
    through the point symmetry G(-j, -k) = -conj G(j, k), which here is
    c(-j, m) = -conj c(j, m) and d(-j, m) = conj d(j, m); the probes are
    G(1, tau) = sum_m (c(1, m) + d(1, m)) exp(i beta_m) and
    G(-1, -tau) = -conj G(1, tau).  The terms at m and -m are added in pairs,
    so at p0 = 0, where they are conjugate bit for bit, a real field gives
    real probes.

    The basis is ill-conditioned at small hbar tau, where the terms of the
    probe sum cancel.  After each period the run takes
    kappa = sum_m |term_m| / max(1, |G(1, tau)|), which bounds the relative
    loss of the sum; it returns None at the first period where
    10 eps kappa exceeds `_PLANE_WAVE_MAX_ERROR` or a probe is not finite, and
    None without allocating when `_plane_wave_bytes` exceeds `MAX_BYTES`.
    """
    n = n_max
    if _plane_wave_bytes(n) > MAX_BYTES:
        return None
    # rows j = 0..n + 1; columns m = -(n + 1)..n + 1, with m = 0 at column `mid`
    rows, mid = n + 2, n + 1
    j = np.arange(rows, dtype=float)
    tau = params.tau
    beta = params.p0 * tau + np.arange(-mid, mid + 1) * (0.5 * params.hbar * tau)
    # exp(i j beta_m) as powers of exp(i beta_m), so that every row holds the
    # same beta_m: exp of j beta_m rounds each product afresh, and free flight
    # applies that inconsistency every period (1e-8 at p0 tau = 2 pi, n = 200)
    flight = np.empty((rows, 2 * mid + 1), dtype=complex)
    flight[0] = 1.0
    np.exp(1j * beta, out=flight[1])
    for row in range(2, rows):
        np.multiply(flight[row - 1], flight[1], out=flight[row])
    cd = np.zeros((2,) + flight.shape, dtype=complex)
    c, d = cd
    q_phase = np.exp(1j * params.q0 * j)
    c[:, mid] = params.v1 * j * q_phase
    d[:, mid] = (params.v2 * tau) * q_phase
    del q_phase
    # row differences; columns |m| >= t stay zero until period t writes them
    diff = np.zeros_like(flight)
    kicked = np.empty_like(flight)
    alpha = complex(0.0, -0.5 * params.gamma / params.hbar)
    probes = np.empty((n + 1, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n + 1):
            if t:
                # rows 0..r hold the data the kick reads; it writes rows 0..r - 1
                r = n + 2 - t
                old, new = slice(mid - t + 1, mid + t), slice(mid - t, mid + t + 1)
                jd = diff[: r + 1, old]
                np.multiply(d[: r + 1, old], j[: r + 1, None], out=jd)
                c[: r + 1, old] += jd
                cd[:, : r + 1, old] *= flight[: r + 1, old]
                # c is odd in j and d even: row -1 is -conj c(1) and conj d(1)
                for a, odd in ((c, True), (d, False)):
                    np.subtract(a[2 : r + 1, old], a[: r - 1, old], out=diff[1:r, old])
                    mirror = diff[0, old]
                    np.conjugate(a[1, old], out=mirror)
                    if odd:
                        np.negative(mirror, out=mirror)
                    np.subtract(a[1, old], mirror, out=mirror)
                    shift = kicked[:r, new]
                    np.subtract(diff[:r, mid - t - 1 : mid + t], diff[:r, mid - t + 1 : mid + t + 2],
                                out=shift)
                    shift *= alpha
                    a[:r, new] += shift
            m = slice(mid - t, mid + t + 1)
            terms = (c[1, m] + d[1, m]) * flight[1, m]
            plus = complex(terms[t] + (terms[t + 1 :] + terms[:t][::-1]).sum())
            kappa = float(np.abs(terms).sum()) / max(1.0, abs(plus))
            if not (cmath.isfinite(plus) and 10 * _EPS * kappa <= _PLANE_WAVE_MAX_ERROR):
                return None
            probes[t] = plus, -plus.conjugate()
    return probes


def _gfield_probes(params: StandardMapParams, n_max: int) -> np.ndarray:
    """The probe history of `lattice_probes` from a `GField` run."""
    field = GField(params, n_max)
    probes = np.empty((field.n_max + 1, 2), dtype=complex)
    probes[0] = field.probe_pair()
    for t in range(1, field.n_max + 1):
        field.advance()
        probes[t] = pair = field.probe_pair()
        if not (cmath.isfinite(pair[0]) and cmath.isfinite(pair[1])):
            raise NumericalError(f"lattice probes left the finite range at period {t}")
    return probes


def lattice_probes(params: StandardMapParams, n_max: int) -> np.ndarray:
    """Probe history (G(1, tau, t), G(-1, -tau, t)), t = 0..n_max, of the first-order law.

    The contract of `hilbert.quantum_probes`: it feeds `derivative_iteration`
    directly.  At hbar > 0 the law is evaluated in plane waves in k
    (`_plane_wave_probes`, O(n^3)); if that run's condition estimate says its
    probes may be off by more than `_PLANE_WAVE_MAX_ERROR`, if one is not
    finite, if its arrays exceed `MAX_BYTES`, and at hbar = 0, the `GField`
    lattice (O(n^4)) evaluates it instead.  Raises `ValidationError` for an
    n_max that is not an integer of at least 1, `ResourceError` when the
    lattice would exceed `MAX_BYTES`, and `NumericalError` at the first period
    whose lattice probes overflow.
    """
    n_max = check_run_length(n_max)
    if not params.classical:
        probes = _plane_wave_probes(params, n_max)
        if probes is not None:
            return probes
    return _gfield_probes(params, n_max)


def run_standard_map(params: StandardMapParams,
                     n_max: int) -> tuple[DerivativeSeries, ExponentEstimate]:
    """Full pipeline: lattice probes, derivative iteration, and the rate fitted
    over the estimator's default window.

    A derivative norm that overflows inside the fit window raises
    `DegenerateSeriesError` in the estimator.
    """
    series = derivative_iteration(lattice_probes(params, n_max), params)
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
