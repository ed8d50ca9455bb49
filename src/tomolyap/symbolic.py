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

Memory: the first `BREADTH_LEVELS` branch levels are expanded breadth-first
(3^8 = 6,561 words); the remaining levels are descended depth-first, each
node a 6,561-word block computed once from its parent, so only the blocks on
the current path live at once.  Each leaf block writes its coefficients and
end-point values into two preallocated 3^n float64 vectors in breadth-first
word order, and one dot product sums them.  At n = 12 the two vectors are
8.1 MiB of a 9.5 MiB traced peak; the integer sums of every word at once
would take 31 MiB.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceError, ValidationError
from .standard_map import StandardMapParams

MAX_EXPANSION_ORDER = 12

#: Branch levels expanded breadth-first before the depth-first descent.
BREADTH_LEVELS = 8

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

    The word with branch b_l at level l (0 free, 1 plus, 2 minus) sits at
    index sum_l b_l 3^(l-1), the order of a breadth-first expansion that
    appends each level's three branches one after another.  The depth-first
    descent fills the same slots with the same products, so the final dot
    product adds the same terms in the same order.
    """
    _check_expansion_inputs(params, n)
    half_gamma = 0.5 * params.gamma
    coeff_out = np.empty(3**n)
    end_out = np.empty(3**n)

    def branches(sums: np.ndarray, coeff: np.ndarray):
        # (branch matrix, child coefficients) for the free, plus and minus
        # branches; negating a product is exact, so -scaled is -coeff * weight
        scaled = coeff * (half_gamma * params.f(sums[:, 1].astype(float)))
        return (M0, coeff), (M_PLUS, scaled), (M_MINUS, -scaled)

    def descend(sums: np.ndarray, coeff: np.ndarray, level: int, offset: int) -> None:
        if level == n:
            block = slice(offset, offset + coeff.size)
            coeff_out[block] = coeff
            end_out[block] = params.v1 * sums[:, 0] + params.v2 * sums[:, 1]
            return
        stride = 3**level
        for b, (matrix, child_coeff) in enumerate(branches(sums, coeff)):
            descend(sums @ matrix, child_coeff, level + 1, offset + b * stride)

    sums = np.ones((1, 3), dtype=np.int64)  # 1^T W for the empty word W = I
    coeff = np.ones(1)
    top = min(n, BREADTH_LEVELS)
    for _ in range(top):
        kids = branches(sums, coeff)
        sums = np.concatenate([sums @ matrix for matrix, _ in kids])
        coeff = np.concatenate([child_coeff for _, child_coeff in kids])
    descend(sums, coeff, top, 0)
    return complex(np.dot(coeff_out, end_out))
