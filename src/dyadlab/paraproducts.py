"""Generalized paraproducts B_k and the trilinear cube/subcube operator P.

B_k pairs the symbol b against the k-th ancestor's Haar and the input
against the cube's own Haar:

    B_k(b, f) = sum_I beta_I <b, h_(I^(k))> <f, h_I> h_I |I^(k)|**(-1/2)

with |beta_I| <= 1. With all-cancellative signatures the output coefficient
at I is a bounded multiple of the input coefficient, so
||B_k(b, f)|| <= bmo(b) ||f|| holds exactly and uniformly in k.
``bk_stacked`` works on the extended layout of :mod:`dyadlab.haar`, where
the noncancellative signature of a k = 0 term is one more set of rows, and
reads all levels k..N-1 in one gather.
``BkOperator`` is the one B_k atom of the package: it checks the depth, the
signatures and the betas (None, or one array along the cube axis) once, at
construction. The operators of :mod:`dyadlab.biparam` use one per variable.
The atoms of the decomposition terms and of a noncancellative shift of
:mod:`dyadlab.shifts` are the groups of ``_atom_group``, built once per
grid, so a shift applies the B_0 objects that its term list holds, to the
``symbol_stacked`` coefficients of its symbol.
``bk_gather`` lays an atom out on the rows that ``bk_stacked`` and
:mod:`dyadlab.biparam` read. The function-level operators ``apply_Bk``,
``apply_P`` and ``apply_P_adjoint`` live in :mod:`dyadlab.biparam`, where
:func:`~dyadlab.biparam.pair_apply` runs this module's kernels at t = 1.

P pairs b and f on a cube and a second symbol on its strict subcubes:

    P(b, a, f) = sum_I <b,h_I> <f,h_I> |I|**(-1) sum_{J strictly inside I} <a,h_J> h_J

P* is its adjoint in f with b, a fixed. In coefficient space both are tree
scans of O(n) work: P sums the cube weights |I|**(-1) sum_sig <b,h_I><f,h_I>
over the strict ancestors of each J, top-down, and P* sums
sum_sig <a,h_J><f,h_J> over the strict subtree of each I, bottom-up
(``strict_ancestor_sum`` and ``strict_subtree_sum``). The bi-parameter
schedule of :func:`dyadlab.biparam.pair_apply` runs the same two sums along
each P-type axis, and the rows of ``bk_gather`` along each B axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import DepthError, GridSpec, InvalidIndexError, grid_index
from .haar import SampledFunction, forward_space


@dataclass(frozen=True, eq=False)
class BkOperator:
    """One B_k atom on ``grid``: ancestry depth, betas, and the three signatures.

    Signatures are given as {0,1}^d tuples (None: all zero) and kept as the
    integers ``sb``/``si``/``so`` of the stacked layout; at most one of
    (sig_in, sig_out) may be noncancellative, and only when k = 0. The b-side
    signature is always cancellative. ``beta`` is None (all +1) or one array
    along the cube axis, (n_cubes_total, *trials), whose entries have
    magnitude <= 1: with trial axes, one beta per trial column of the input
    (see :func:`bk_stacked`). It is stored as a private read-only float
    copy. Two atoms are equal when grid, k, signatures and betas agree
    (betas compared value by value).
    """

    grid: GridSpec
    k: int
    sig_b: tuple = None
    sig_in: tuple = None
    sig_out: tuple = None
    beta: object = None
    sb: int = field(init=False, repr=False, compare=False)
    si: int = field(init=False, repr=False, compare=False)
    so: int = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        g = self.grid
        if not 0 <= self.k <= g.N - 1:
            raise DepthError(f"k={self.k} outside the levels 0..{g.N - 1} below the root")
        for name, slot in (("sig_b", "sb"), ("sig_in", "si"), ("sig_out", "so")):
            sig = getattr(self, name)
            sig = (0,) * g.d if sig is None else tuple(sig)
            object.__setattr__(self, name, sig)
            object.__setattr__(self, slot, g.sig_int(sig))
        non = g.noncanc_int
        if self.sb == non:
            raise InvalidIndexError("the b-side signature must be cancellative")
        n_noncanc = (self.si == non) + (self.so == non)
        if n_noncanc > 1:
            raise InvalidIndexError("at most one of input/output may be noncancellative")
        if n_noncanc and self.k != 0:
            raise InvalidIndexError("noncancellative signatures require k = 0")
        beta = self.beta
        if beta is not None:
            got = getattr(beta, "shape", type(beta).__name__)
            if not isinstance(beta, np.ndarray) or got[:1] != (g.n_cubes_total,):
                raise ValueError(f"beta along the cube axis needs None or one array of "
                                 f"shape ({g.n_cubes_total}, *trials), got {got}")
            beta = np.array(beta, dtype=float)
            if not np.all(np.abs(beta) <= 1.0 + 1e-12):
                raise ValueError("beta entries must have magnitude <= 1")
            beta.setflags(write=False)  # decomposition terms share atoms
        object.__setattr__(self, "beta", beta)

    def __eq__(self, other):
        if not isinstance(other, BkOperator):
            return NotImplemented
        if (self.grid, self.k, self.sb, self.si, self.so) != \
                (other.grid, other.k, other.sb, other.si, other.so):
            return False
        if self.beta is None or other.beta is None:
            return self.beta is other.beta
        return np.array_equal(self.beta, other.beta)

    def __hash__(self):
        # betas are left out: equal atoms still hash equal
        return hash((self.grid, self.k, self.sb, self.si, self.so))

    def adjoint(self) -> "BkOperator":
        return BkOperator(self.grid, self.k, self.sig_b, self.sig_out, self.sig_in,
                          self.beta)


def _beta_from_sig(grid: GridSpec, k: int, sig_b: int):
    """+-1 betas along the cube axis: the sign of h^sig_b of the k-th ancestor
    inside each cube of levels k..N-1, +1 above level k."""
    if k == 0:
        return None
    idx = grid_index(grid)
    lower = [a for a, s in enumerate(grid.int_sig(sig_b)) if s == 0]
    beta = np.ones(grid.n_cubes_total)
    for lvl in range(k, grid.N):
        # h^sig_b is - on the ancestor's upper half (bit k-1 of the position)
        # along an odd number of its cancellative axes
        upper = (idx.coords(lvl)[lower] >> (k - 1)) & 1
        beta[grid.cube_range(lvl)] = 1.0 - 2.0 * (upper.sum(axis=0) % 2)
    return beta


def _bk(grid: GridSpec, k: int, sb: int, si: int, so: int, beta=None) -> BkOperator:
    """B_k atom from integer signatures."""
    return BkOperator(grid, k, grid.int_sig(sb), grid.int_sig(si), grid.int_sig(so), beta)


def _atom_group(grid: GridSpec, name) -> tuple:
    """One group of B_k atoms, built once per grid (``grid_index(grid).memo``):
    "tail" (eps, non, eps) and "same_cube" (eps, eps2, non ^ eps ^ eps2) at
    k = 0, "diagonal" (eps, eps, non), the same-cube atoms at eps2 = eps,
    "swapped" (eps, non ^ eps ^ eps2, eps2) with the tail atom on its
    diagonal, and, for an integer k >= 1, (eps, eps2, eps2) with the betas
    of eps; eps-major throughout."""
    def build():
        non, cancs = grid.noncanc_int, range(grid.n_sig)
        if name == "tail":
            return tuple(_bk(grid, 0, eps, non, eps) for eps in cancs)
        if name == "same_cube":
            return tuple(_bk(grid, 0, eps, eps2, non ^ (eps ^ eps2))
                         for eps in cancs for eps2 in cancs)
        if name == "diagonal":
            return _atom_group(grid, "same_cube")[::grid.n_sig + 1]
        if name == "swapped":
            tail = _atom_group(grid, "tail")
            return tuple(tail[eps] if eps2 == eps else _bk(grid, 0, eps, non ^ (eps ^ eps2), eps2)
                         for eps in cancs for eps2 in cancs)
        betas = [_beta_from_sig(grid, name, eps) for eps in cancs]
        return tuple(_bk(grid, name, eps, eps2, eps2, betas[eps])
                     for eps in cancs for eps2 in cancs)
    return grid_index(grid).memo(("atoms", name), build)


def _gathered(op: BkOperator) -> tuple:
    """:func:`bk_gather` followed by the inverse of the output rows, looked
    up on the atom's first use and kept on it."""
    if op._rows is None:
        g, idx = op.grid, grid_index(op.grid)
        beta = None if op.beta is None else op.beta[g.cube_range(op.k).start:]
        rows_out, inverse, _ = idx.bk_rows(op.k, op.so)
        object.__setattr__(op, "_rows", (
            idx.bk_rows(op.k, op.si)[0], rows_out, idx.bk_rows(op.k, op.sb)[2], beta,
            idx.bk_table(op.k)[2], inverse))
    return op._rows


def bk_gather(op: BkOperator) -> tuple:
    """(rows_in, rows_out, b_rows, beta, scale) of a B_k atom over the cubes of
    levels k..N-1 (``grid_index(grid).bk_table``): its extended-layout rows,
    the stacked rows of <b, h_(I^(k))>, the betas (None: all +1; a read-only
    view of the atom's) and the scales 2**((level - k) * d / 2). The rows
    are read-only arrays shared by every atom of the same k and signatures
    (``grid_index(grid).bk_rows``)."""
    return _gathered(op)[:5]


def bk_stacked(op: BkOperator, bc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficient-space B_k kernel: extended stack (m, *passive, *trials) ->
    extended stack; ``bc`` holds the symbol's stacked coefficients: (n,), one
    symbol for every column, or (n, *trials), one per trial column, and the
    atom's betas likewise. One gather over the rows of :func:`bk_gather`,
    and one more through the inverse of the output rows in place of a
    scatter into zeros."""
    rin, _, brows, beta, scale, inverse = _gathered(op)
    coef = bc.take(brows, axis=0)
    if beta is not None:
        coef = _trailing(beta, coef) * _trailing(coef, beta)
    coef *= _trailing(scale, coef)
    res = np.empty((len(rin) + 1,) + x.shape[1:])
    res[-1] = 0.0
    np.multiply(_trailing(coef, x), x.take(rin, axis=0), out=res[:-1])
    return res.take(inverse, axis=0)


# ---------------------------------------------------------------------------
# Strict-subcube sums: the shared backbone of P-type operators.


def _spread(grid: GridSpec, per_cube: np.ndarray) -> np.ndarray:
    """Stacked array holding each cube's value on all its signatures (mean row 0)."""
    rows = np.repeat(per_cube, grid.n_sig, axis=0)
    return np.concatenate([np.zeros((1,) + rows.shape[1:]), rows])


def strict_ancestor_sum(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    """Row (J, s) of the result is sum_{I strictly containing J} |I|**(-1) sum_t w[(I, t)].

    ``w`` is stacked along axis 0 and may carry trailing passive axes; its
    mean row is ignored and the result's mean row is zero.
    """
    idx = grid_index(grid)
    sums = grid.cube_block(w).sum(axis=1)
    return _spread(grid, idx.ancestor_scan(_trailing(idx.cube_weight, sums) * sums))


def strict_subtree_sum(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`strict_ancestor_sum`: row (I, s) of the result is
    |I|**(-1) sum_{J strictly inside I} sum_t w[(J, t)]."""
    idx = grid_index(grid)
    below = idx.subtree_scan(grid.cube_block(w).sum(axis=1))
    return _spread(grid, _trailing(idx.cube_weight, below) * below)


def symbol_stacked(a: SampledFunction) -> np.ndarray:
    """Stacked coefficients of a symbol on its grid or product grid, with
    the mean row along every variable zeroed."""
    coeffs = forward_space(a.space, a.samples)
    for v in range(len(a.space.grids)):
        coeffs[(slice(None),) * v + (0,)] = 0.0
    return coeffs


def _trailing(v: np.ndarray, x: np.ndarray, axis: int = 0) -> np.ndarray:
    """``v`` (n, *trials) along axis ``axis`` of ``x`` (..., n, *passive,
    *trials): unit axes elsewhere, for the axes that ``v`` does not carry,
    and its trial axes last."""
    lead = (1,) * axis + v.shape[:1]
    return v.reshape(lead + (1,) * (x.ndim - axis - v.ndim) + v.shape[1:])


def p_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """P(b, a, .) in coefficient space (1-parameter). ``x`` is
    (n, *passive, *trials); ``bc`` and ``avec`` are (n,), one symbol for
    every column, or (n, *trials), one symbol per trial column."""
    return _trailing(avec, x) * strict_ancestor_sum(grid, _trailing(bc, x) * x)


def pstar_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Adjoint of P in the f slot with b, a fixed; shapes as in :func:`p_stacked`."""
    return _trailing(bc, x) * strict_subtree_sum(grid, _trailing(avec, x) * x)
