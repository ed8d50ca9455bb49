"""Exact term-by-term expansion of the probe value G(1, 1, tau, n).

Unrolling n kick periods of the shear-lattice evolution expands the probe
into a sum over 3^n branch words: at each backward step a node either flows
freely or couples to its two kick neighbours with weight +-(gamma/2) f(nu).
Bookkeeping uses 3x3 integer matrices acting on (alpha, beta, c) vectors,
where Tr denotes the sum of the entries:

* a word's f-argument at backward step s is Tr(W_{s-1} y0) with W the product
  of the branch matrices applied so far (root branch leftmost, each new
  branch appended on the right) and y0 = (0, 1, 0);
* the word's final evaluation against the linear initial data is
  Tr(W_n x0) with x0 = (1, 1, 0).

Every quantity read is a column sum of W, Tr(W e_i) = (1^T W)_i, and
1^T (W M) = (1^T W) M, so `symbolic_expand` carries only the row vector 1^T W
(3 integers per word) and multiplies it by the branch matrices: the
f-argument is its middle entry and the end point its first two.  The
integers are exact, so this equals the full matrix bookkeeping, which the
tests keep as their reference for n <= 12.

The minus-branch matrix used here keeps the sign of the accumulated constant
(last row (-1, -1, +1)); this is forced by agreement with the lattice engine,
which is the ground truth the expansion is checked against for n <= 8.

Restricted to tau = 1 and base point q0 = p0 = 0 (where all f-arguments are
integers); the per-word budget is 3^n terms, capped at n = 12.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceError, ValidationError
from .standard_map import StandardMapParams

MAX_EXPANSION_ORDER = 12

M0 = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
M_PLUS = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 1]], dtype=np.int64)
M_MINUS = np.array([[1, 1, 0], [0, 1, 0], [-1, -1, 1]], dtype=np.int64)

X0 = np.array([1, 1, 0], dtype=np.int64)
Y0 = np.array([0, 1, 0], dtype=np.int64)


def _check_expansion_inputs(params: StandardMapParams, n: int) -> None:
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n > MAX_EXPANSION_ORDER:
        raise ResourceError(
            f"expansion of {n} periods needs 3^{n} terms, over the 3^{MAX_EXPANSION_ORDER} budget")
    if params.tau != 1.0:
        raise ValidationError("symbolic expansion is defined for tau = 1")
    if params.q0 != 0.0 or params.p0 != 0.0:
        raise ValidationError("symbolic expansion is defined for q0 = p0 = 0")


def symbolic_expand(params: StandardMapParams, n: int) -> complex:
    """Value of G(1, 1, tau, n) summed over all 3^n expansion words.

    Matches the lattice engine to roundoff; this is the anti-drift oracle for
    the stencil, the minus-branch sign convention and the f-argument
    transport, in both the classical and quantum regimes.

    Each word ends at a lattice point whose coordinates are the two column
    sums of its matrix product (mu_f from the first column, nu_f from the
    second), so the evaluation against initial data v1 mu + v2 nu is
    v1 Tr(W (x0 - y0)) + v2 Tr(W y0).  Only the column sums 1^T W are
    carried, 3 integers per word.
    """
    _check_expansion_inputs(params, n)
    half_gamma = 0.5 * params.gamma
    sums = np.ones((1, 3), dtype=np.int64)  # 1^T W for the empty word W = I
    coeff = np.ones(1)
    for _ in range(n):
        weight = half_gamma * params.f(sums[:, 1].astype(float))
        sums = np.concatenate([sums @ M0, sums @ M_PLUS, sums @ M_MINUS])
        coeff = np.concatenate([coeff, coeff * weight, -coeff * weight])
    return complex(np.dot(coeff, params.v1 * sums[:, 0] + params.v2 * sums[:, 1]))
