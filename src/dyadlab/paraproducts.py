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
signatures and the betas once, at construction, and the bi-parameter
operators and decomposition terms use one per variable. ``bk_gather`` lays
an atom out on the rows that ``bk_stacked`` and :mod:`dyadlab.biparam` read.

P pairs b and f on a cube and a second symbol on its strict subcubes:

    P(b, a, f) = sum_I <b,h_I> <f,h_I> |I|**(-1) sum_{J strictly inside I} <a,h_J> h_J

P* is its adjoint in f with b, a fixed. In coefficient space both are tree
scans of O(n) work: P sums the cube weights |I|**(-1) sum_sig <b,h_I><f,h_I>
over the strict ancestors of each J, top-down, and P* sums
sum_sig <a,h_J><f,h_J> over the strict subtree of each I, bottom-up
(``strict_ancestor_sum`` and ``strict_subtree_sum``). The bi-parameter
P-type atoms of :mod:`dyadlab.biparam` run the same two sums along each
variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import DepthError, GridSpec, InvalidIndexError, grid_index
from .haar import (DyadicFunction, contract, extend, forward_stacked,
                   inverse_stacked)


@dataclass(frozen=True, eq=False)
class BkOperator:
    """One B_k atom on ``grid``: ancestry depth, betas, and the three signatures.

    Signatures are given as {0,1}^d tuples (None: all zero) and kept as the
    integers ``sb``/``si``/``so`` of the stacked layout; at most one of
    (sig_in, sig_out) may be noncancellative, and only when k = 0. The b-side
    signature is always cancellative. ``beta`` may be None (all +1), a dict
    DyadicCube -> float, or a sequence of per-level arrays indexed by flat
    cube position; it is stored as None or a tuple of N read-only float
    arrays whose entries have magnitude <= 1. Two atoms are equal when grid, k,
    signatures and betas agree (betas compared value by value).
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
        if isinstance(beta, dict):
            levels = [np.ones(g.n_cubes(lvl)) for lvl in range(g.N)]
            for cube, val in beta.items():
                g.validate_cube(cube)
                if cube.level == g.N:
                    raise InvalidIndexError("finest cells carry no B_k coefficient")
                levels[cube.level][g.flat_pos(cube.pos, cube.level)] = val
            beta = levels
        if beta is not None:
            beta = tuple(np.array(arr, dtype=float) for arr in beta)
            for arr in beta:
                arr.setflags(write=False)  # decomposition terms share atoms
            if len(beta) != g.N or any(arr.shape != (g.n_cubes(lvl),)
                                       for lvl, arr in enumerate(beta)):
                raise ValueError(f"beta needs one array of n_cubes(level) entries "
                                 f"per level 0..{g.N - 1}")
            if not all(np.all(np.abs(arr) <= 1.0 + 1e-12) for arr in beta):
                raise ValueError("beta entries must have magnitude <= 1")
        object.__setattr__(self, "beta", beta)

    def __eq__(self, other):
        if not isinstance(other, BkOperator):
            return NotImplemented
        if (self.grid, self.k, self.sb, self.si, self.so) != \
                (other.grid, other.k, other.sb, other.si, other.so):
            return False
        if self.beta is None or other.beta is None:
            return self.beta is other.beta
        return all(np.array_equal(x, y) for x, y in zip(self.beta, other.beta))

    def __hash__(self):
        # betas are left out: equal atoms still hash equal
        return hash((self.grid, self.k, self.sb, self.si, self.so))

    def beta_level(self, level: int):
        """Beta values for all cubes at ``level`` (array or scalar 1.0)."""
        return 1.0 if self.beta is None else self.beta[level]

    def adjoint(self) -> "BkOperator":
        return BkOperator(self.grid, self.k, self.sig_b, self.sig_out, self.sig_in,
                          self.beta)


def bk_gather(op: BkOperator) -> tuple:
    """(rows_in, rows_out, b_rows, beta, scale) of a B_k atom over the cubes of
    levels k..N-1 (``grid_index(grid).bk_table``): its extended-layout rows,
    the stacked rows of <b, h_(I^(k))>, the betas (None: all +1) and the
    scales 2**((level - k) * d / 2)."""
    g = op.grid
    rows, anc, scale = grid_index(g).bk_table(op.k)

    def at(sig):
        # noncancellative only at k = 0: every cube, all of the tail
        return g.n_samples + np.arange(len(rows)) if sig == g.noncanc_int else rows + sig

    beta = None if op.beta is None else np.concatenate(op.beta[op.k:])
    return at(op.si), at(op.so), anc + op.sb, beta, scale


def bk_stacked(op: BkOperator, bc: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficient-space B_k kernel: extended stack (trailing passive axes
    allowed) -> extended stack; ``bc`` holds the symbol's stacked coefficients.
    One gather over the rows of :func:`bk_gather`."""
    rin, rout, brows, beta, scale = bk_gather(op)
    coef = bc[brows] if beta is None else beta * bc[brows]
    coef *= scale
    out = np.zeros_like(x)
    out[rout] = coef.reshape(coef.shape + (1,) * (x.ndim - 1)) * x[rin]
    return out


def apply_Bk(op: BkOperator, b: DyadicFunction, f: DyadicFunction) -> DyadicFunction:
    """Evaluate B_k(b, f). Cubes shallower than k contribute nothing."""
    g = op.grid
    if b.grid != g or f.grid != g:
        raise ValueError("operands must live on the operator grid")
    bc = forward_stacked(g, b.samples)
    xe = extend(g, forward_stacked(g, f.samples))
    return DyadicFunction(g, inverse_stacked(g, contract(g, bk_stacked(op, bc, xe))))


# ---------------------------------------------------------------------------
# Strict-subcube sums: the shared backbone of P-type operators.


def _spread(grid: GridSpec, per_cube: list) -> np.ndarray:
    """Stacked array holding each cube's value on all its signatures (mean row 0)."""
    rows = np.repeat(np.concatenate(per_cube), grid.n_sig, axis=0)
    return np.concatenate([np.zeros((1,) + rows.shape[1:]), rows])


def strict_ancestor_sum(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    """Row (J, s) of the result is sum_{I strictly containing J} |I|**(-1) sum_t w[(I, t)].

    ``w`` is stacked along axis 0 and may carry trailing passive axes; its
    mean row is ignored and the result's mean row is zero.
    """
    sums = [2.0 ** (lvl * grid.d) * grid.level_block(w, lvl).sum(axis=1)
            for lvl in range(grid.N)]
    return _spread(grid, grid_index(grid).ancestor_scan(sums))


def strict_subtree_sum(grid: GridSpec, w: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`strict_ancestor_sum`: row (I, s) of the result is
    |I|**(-1) sum_{J strictly inside I} sum_t w[(J, t)]."""
    sums = [grid.level_block(w, lvl).sum(axis=1) for lvl in range(grid.N)]
    below = grid_index(grid).subtree_scan(sums)
    return _spread(grid, [2.0 ** (lvl * grid.d) * s for lvl, s in enumerate(below)])


def symbol_stacked(a: DyadicFunction) -> np.ndarray:
    coeffs = forward_stacked(a.grid, a.samples)
    coeffs[0] = 0.0
    return coeffs


def _trailing(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``v`` (n,) as (n, 1, ...), broadcasting against ``x`` (n, *passive)."""
    return v.reshape(v.shape + (1,) * (x.ndim - v.ndim))


def p_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """P(b, a, .) in coefficient space (1-parameter); ``x`` may carry
    trailing passive axes, ``bc`` and ``avec`` are (n,)."""
    return _trailing(avec, x) * strict_ancestor_sum(grid, _trailing(bc, x) * x)


def pstar_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Adjoint of P in the f slot with b, a fixed; shapes as in :func:`p_stacked`."""
    return _trailing(bc, x) * strict_subtree_sum(grid, _trailing(avec, x) * x)


def apply_P(b: DyadicFunction, a: DyadicFunction, f: DyadicFunction) -> DyadicFunction:
    g = b.grid
    bc = forward_stacked(g, b.samples)
    xc = forward_stacked(g, f.samples)
    return DyadicFunction(g, inverse_stacked(g, p_stacked(g, bc, symbol_stacked(a), xc)))


def apply_P_adjoint(b: DyadicFunction, a: DyadicFunction,
                    f: DyadicFunction) -> DyadicFunction:
    g = b.grid
    bc = forward_stacked(g, b.samples)
    xc = forward_stacked(g, f.samples)
    return DyadicFunction(g, inverse_stacked(g, pstar_stacked(g, bc, symbol_stacked(a), xc)))
