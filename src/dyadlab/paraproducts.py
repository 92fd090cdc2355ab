"""Generalized paraproducts B_k and the trilinear cube/subcube operator P.

B_k pairs the symbol b against the k-th ancestor's Haar and the input
against the cube's own Haar:

    B_k(b, f) = sum_I beta_I <b, h_(I^(k))> <f, h_I> h_I |I^(k)|**(-1/2)

with |beta_I| <= 1. With all-cancellative signatures the output coefficient
at I is a bounded multiple of the input coefficient, so
||B_k(b, f)|| <= bmo(b) ||f|| holds exactly and uniformly in k.

P pairs b and f on a cube and a second symbol on its strict subcubes:

    P(b, a, f) = sum_I <b,h_I> <f,h_I> |I|**(-1) sum_{J strictly inside I} <a,h_J> h_J

P* is its adjoint in f with b, a fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import DepthError, GridSpec, InvalidIndexError, grid_index
from .haar import (DyadicFunction, fold_noncancellative, forward_stacked,
                   inverse_stacked, scaling_levels)

_STRICT_MATRIX_MAX = 4096


@dataclass(frozen=True)
class BkOperator:
    """Parameters of one B_k: ancestry depth, betas, and the three signatures.

    ``beta`` may be None (all +1), a dict DyadicCube -> float, or a tuple of
    per-level arrays indexed by flat cube position. Signatures are given as
    {0,1}^d tuples; at most one of (sig_in, sig_out) may be noncancellative,
    and only when k = 0. The b-side signature is always cancellative.
    """

    grid: GridSpec
    k: int
    sig_b: tuple = None
    sig_in: tuple = None
    sig_out: tuple = None
    beta: object = None

    def __post_init__(self):
        g = self.grid
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if self.k > g.N - 1:
            raise DepthError(f"k={self.k} exceeds available levels below the root")
        ones = tuple(1 for _ in range(g.d))
        zeros = tuple(0 for _ in range(g.d))
        object.__setattr__(self, "sig_b", tuple(self.sig_b) if self.sig_b else zeros)
        object.__setattr__(self, "sig_in", tuple(self.sig_in) if self.sig_in else zeros)
        object.__setattr__(self, "sig_out", tuple(self.sig_out) if self.sig_out else zeros)
        if self.sig_b == ones:
            raise InvalidIndexError("the b-side signature must be cancellative")
        n_noncanc = (self.sig_in == ones) + (self.sig_out == ones)
        if n_noncanc > 1:
            raise InvalidIndexError("at most one of input/output may be noncancellative")
        if n_noncanc and self.k != 0:
            raise InvalidIndexError("noncancellative signatures require k = 0")

    def beta_level(self, level: int) -> np.ndarray:
        """Beta values for all cubes at ``level`` (array or scalar 1.0)."""
        g = self.grid
        if self.beta is None:
            return 1.0
        if isinstance(self.beta, dict):
            out = np.ones(g.n_cubes(level))
            for cube, val in self.beta.items():
                if cube.level == level:
                    if abs(val) > 1.0 + 1e-12:
                        raise ValueError("beta entries must have magnitude <= 1")
                    out[g.flat_pos(cube.pos, level)] = val
            return out
        arr = np.asarray(self.beta[level], dtype=float)
        if np.max(np.abs(arr)) > 1.0 + 1e-12:
            raise ValueError("beta entries must have magnitude <= 1")
        return arr

    def adjoint(self) -> "BkOperator":
        return BkOperator(self.grid, self.k, self.sig_b, self.sig_out, self.sig_in,
                          self.beta)


def bk_stacked(op: BkOperator, bc: np.ndarray, x: np.ndarray,
               x_scaling: list = None) -> np.ndarray:
    """Coefficient-space B_k kernel; ``x`` may carry trailing passive axes."""
    g = op.grid
    idx = grid_index(g)
    passive = x.shape[1:]
    pshape = (1,) * len(passive)
    out = np.zeros_like(x)
    sb = g.sig_int(op.sig_b)
    noncanc_in = g.sig_int(op.sig_in) == g.noncanc_int
    noncanc_out = g.sig_int(op.sig_out) == g.noncanc_int
    if noncanc_in and x_scaling is None:
        x_scaling = scaling_levels(g, x)
    contribs = {}
    for lvl in range(op.k, g.N):
        banc = g.level_block(bc, lvl - op.k)[:, sb][idx.ancestor_flat(lvl, op.k)]
        if noncanc_in:
            fin = x_scaling[lvl]
        else:
            fin = g.level_block(x, lvl)[:, g.sig_int(op.sig_in)]
        beta = op.beta_level(lvl)
        scale = 2.0 ** ((lvl - op.k) * g.d / 2.0)
        coef = (beta * banc * scale).reshape(banc.shape + pshape)
        contrib = coef * fin
        if noncanc_out:
            contribs[lvl] = contrib
        else:
            g.level_block(out, lvl)[:, g.sig_int(op.sig_out)] += contrib
    if contribs:
        out += fold_noncancellative(g, contribs)
    return out


def apply_Bk(op: BkOperator, b: DyadicFunction, f: DyadicFunction) -> DyadicFunction:
    """Evaluate B_k(b, f). Cubes shallower than k contribute nothing."""
    g = op.grid
    if b.grid != g or f.grid != g:
        raise ValueError("operands must live on the operator grid")
    bc = forward_stacked(g, b.samples)
    xc = forward_stacked(g, f.samples)
    return DyadicFunction(g, inverse_stacked(g, bk_stacked(op, bc, xc)))


# ---------------------------------------------------------------------------
# Strict-subcube accumulation matrix: the shared backbone of P-type operators.


@functools.lru_cache(maxsize=None)
def strict_matrix(grid: GridSpec) -> np.ndarray:
    """Matrix A with A[rJ, rI] = |I|**(-1) when cube(J) is strictly inside cube(I).

    Rows/columns are stacked coefficient indices; the mean mode carries no
    entries. Sums of the form sum_{J strictly inside I} and their adjoints
    become single matrix products against A.
    """
    if grid.n_samples > _STRICT_MATRIX_MAX:
        raise ValueError("grid too large for dense subcube accumulation")
    idx = grid_index(grid)
    n = grid.n_samples
    A = np.zeros((n, n))
    for lj in range(grid.N):
        rows = grid.level_offset(lj) + np.arange(grid.n_cubes(lj) * grid.n_sig)
        rows = rows.reshape(grid.n_cubes(lj), grid.n_sig)
        for li in range(lj):
            anc = idx.ancestor_flat(lj, lj - li)
            weight = 2.0 ** (li * grid.d)
            cols = grid.level_offset(li) + anc * grid.n_sig
            for sj in range(grid.n_sig):
                for si in range(grid.n_sig):
                    A[rows[:, sj], cols + si] = weight
    A.setflags(write=False)
    return A


def symbol_stacked(a: DyadicFunction) -> np.ndarray:
    coeffs = forward_stacked(a.grid, a.samples)
    coeffs[0] = 0.0
    return coeffs


def p_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """P(b, a, .) in coefficient space (1-parameter)."""
    A = strict_matrix(grid)
    w = bc * x
    w[0] = 0.0
    return avec * (A @ w)


def pstar_stacked(grid: GridSpec, bc: np.ndarray, avec: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Adjoint of P in the f slot with b, a fixed."""
    A = strict_matrix(grid)
    w = avec * x
    w[0] = 0.0
    return bc * (A.T @ w)


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
