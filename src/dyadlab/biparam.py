"""Tensor-product grids, and the paraproduct operators of any number of variables.

Functions of t >= 2 variables are sample arrays, one axis per variable
(variable 1 slowest), on a :class:`ProductGrid`, whose ``grids`` are the
variables' grids. The tensor kernel :func:`pair_apply` and the operator
:func:`apply_biparam` take any t >= 1, a GridSpec at t = 1, where they run
the 1-D kernels of :mod:`dyadlab.paraproducts` (``apply_Bk``, ``apply_P``
and ``apply_P_adjoint`` are :func:`apply_biparam` of one atom); only a
symbol given on the product grid takes two (:meth:`ProductGrid.two_grids`
refuses other t).
Per-variable Haar transforms act along one axis with the other axes
passive, so the full transform (:func:`~dyadlab.haar.forward_space`) is
their composition.

The operator family combines one "atom" per variable: a
:class:`~dyadlab.paraproducts.BkOperator` on that variable's grid (the B_k
diagonal paraproduct) or a ``PAtom`` (the cube/subcube operator P, possibly
adjoint). This realizes B_{k,l}, BP_k, PB_l, PP, the partial adjoints
PP_1 / PP_2, and the full adjoint, all evaluated in coefficient space by one
per-axis schedule (:func:`pair_apply`): along a B axis the rows of
:func:`~dyadlab.paraproducts.bk_gather`, the layout ``bk_stacked`` reads;
along a P or P* axis a strict-subcube tree scan of
:mod:`dyadlab.paraproducts` (``strict_ancestor_sum`` /
``strict_subtree_sum``), with ``b`` multiplied once in between. An
operator is its tuple of atoms, e.g. (B_k, P) for BP_k or (P*, P) for
PP_1. Every P axis takes its own symbol: a PP-family symbol is a1 x a2,
or a sum of such products (:func:`apply_biparam`).

Stacked arrays are (n1, ..., nt, *passive): variable v on axis v - 1, and
optional trailing passive axes (one column per trial in
:func:`dyadlab.decomposition.verify_identity`, after the case axis of a
block of cases in :func:`~dyadlab.shifts.commutator_stacked`). Two
variables swap by swapping axes 0 and 1. The fixed arrays (symbol
coefficients, betas) broadcast against the trailing axes; they may also
carry the input's last axes as trial axes, one symbol or beta per trial
column (:func:`dyadlab.norms.uniformity_study`), and an array without them
is the broadcast case of the same schedule. :func:`~dyadlab.haar._along`
runs a function that acts along axis 0 along any variable.

The atoms read and write the extended layout of every variable
(:func:`~dyadlab.haar.extend_space`, ``contract_space``), where a
noncancellative signature selects rows like any other; callers extend an
input once and contract a sum of terms once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .grids import GridMismatchError, GridSpec
from .haar import (DyadicFunction, SampledFunction, _along, contract_space,
                   extend_space, forward_space, inverse_space)
from .paraproducts import (BkOperator, _trailing, bk_gather, bk_stacked, p_stacked,
                           pstar_stacked, strict_ancestor_sum, strict_subtree_sum,
                           symbol_stacked)
from .shifts import commutator_stacked

_MAGIC_2P = b"DYF2"


@dataclass(frozen=True, repr=False)
class ProductGrid:
    """The product of the grids of t >= 2 variables, ``grids`` in variable order."""

    grids: tuple

    def __init__(self, *grids: GridSpec):
        if len(grids) < 2:
            raise ValueError(f"a product grid takes two or more grids, got {len(grids)}")
        object.__setattr__(self, "grids", grids)

    def __repr__(self) -> str:
        named = (f"grid{v}={g!r}" for v, g in enumerate(self.grids, 1))
        return f"ProductGrid({', '.join(named)})"

    @property
    def shape(self) -> tuple:
        return tuple(g.n_samples for g in self.grids)

    def swap(self) -> "ProductGrid":
        """The variables in reverse order."""
        return ProductGrid(*reversed(self.grids))

    def two_grids(self, what: str) -> tuple:
        """The two grids, for ``what``, which takes two variables; any other
        number of variables raises ValueError naming it."""
        if len(self.grids) != 2:
            raise ValueError(f"{what} takes two variables, not {len(self.grids)}")
        return self.grids


@dataclass(frozen=True)
class ProductFunction(SampledFunction):
    """Function on the product of t >= 2 tori, sampled on the finest
    rectangles, one axis per variable."""

    pgrid: ProductGrid
    samples: np.ndarray

    _json_suffixes = staticmethod(lambda count: tuple(map(str, range(1, count + 1))))
    _make_space = ProductGrid

    @property
    def space(self) -> ProductGrid:
        return self.pgrid

    def transpose(self) -> "ProductFunction":
        """The variables in reverse order."""
        return ProductFunction(self.pgrid.swap(), self.samples.T)

    def to_bytes(self) -> bytes:
        """20-byte header (magic DYF2, u32 d1,N1,d2,N2) + LE float64, var 1
        slow; two variables only."""
        g1, g2 = self.pgrid.two_grids("DYF2")
        return self._encode(_MAGIC_2P, "<IIII", g1.d, g1.N, g2.d, g2.N)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProductFunction":
        return cls._decode(data, _MAGIC_2P, "<IIII", lambda d1, N1, d2, N2: ProductGrid(
            GridSpec(d1, N1), GridSpec(d2, N2)))


def tensor_function(f1: DyadicFunction, f2: DyadicFunction) -> ProductFunction:
    pg = ProductGrid(f1.grid, f2.grid)
    return ProductFunction(pg, np.outer(f1.samples, f2.samples))


def random_product_function(pg: ProductGrid, rng) -> ProductFunction:
    return ProductFunction(pg, rng.standard_normal(pg.shape))


# -- variable-wise shift application and iterated commutators ----------------


def _check_var(pg: ProductGrid, S, var: int) -> None:
    if not 1 <= var <= len(pg.grids):
        raise ValueError(f"variable {var} outside 1..{len(pg.grids)}")
    if S.grid != pg.grids[var - 1]:
        raise GridMismatchError(f"operator grid does not match variable {var}")


def _apply_var(S, var: int, samples: np.ndarray) -> np.ndarray:
    """``S`` along variable ``var`` of samples (n1, n2, *passive)."""
    return _along(var - 1, S.apply_samples, samples)


def apply_in_variable(S, var: int, f: ProductFunction) -> ProductFunction:
    """Apply a one-parameter operator along every slice of the passive variable."""
    _check_var(f.pgrid, S, var)
    return ProductFunction(f.pgrid, _apply_var(S, var, f.samples))


def iterated_commutator(b: ProductFunction, S1, S2, f: ProductFunction) -> ProductFunction:
    """[[M_b, S1], S2] f: :func:`~dyadlab.shifts.commutator_stacked` at two variables."""
    b._check(f)
    return ProductFunction(f.pgrid, commutator_stacked(b, (S1, S2), f.samples))


# -- atom machinery -----------------------------------------------------------


@dataclass(frozen=True)
class PAtom:
    """One-variable P atom; ``adjoint`` swaps input and output roles."""
    adjoint: bool = False


def _lift(a: np.ndarray, X: np.ndarray, t: int) -> np.ndarray:
    """``a`` (n1, ..., nt, *trials) with unit axes between its t variable
    axes and its trial axes, broadcasting against ``X``
    (n1, ..., nt, *passive, *trials); idempotent."""
    return a.reshape(a.shape[:t] + (1,) * (X.ndim - a.ndim) + a.shape[t:])


def _take(a: np.ndarray, rows: tuple) -> np.ndarray:
    """``a`` at the product of ``rows``, one entry per variable axis: a P
    axis' slice is a view, a B axis' rows one ``take`` along its axis."""
    for axis, r in enumerate(rows):
        a = a[(slice(None),) * axis + (r,)] if isinstance(r, slice) else a.take(r, axis=axis)
    return a


def pair_apply(space, bC: np.ndarray, Xe: np.ndarray, atoms: tuple,
               syms=None, out: np.ndarray = None, weight: float = 1.0) -> np.ndarray:
    """Evaluate the tensor of t >= 1 one-variable atoms on extended stacks.

    ``space`` is a GridSpec (t = 1) or a ProductGrid, and ``atoms`` holds
    one atom per variable: a BkOperator on that variable's grid or a PAtom.
    ``syms`` holds one stacked symbol per
    variable, the symbol of a P atom and None on a B axis; without P atoms
    it may be None. ``Xe`` is the input in the extended layout of every
    variable (:func:`~dyadlab.haar.extend_space`), (m1, ..., mt, *passive,
    *trials). The fixed arrays ``bC`` (n1, ..., nt) and ``syms[v]`` (nv,)
    broadcast against its trailing axes; each, and a B atom's betas, may
    also end in the trial axes, e.g. a symbol (nv, *trials), to pair trial
    column t with symbol t. ``weight`` is a float, or an array on the trial
    axes, e.g. (C, 1), one weight per column.

    One variable is one 1-D kernel: ``bk_stacked`` on the extended rows,
    or ``p_stacked``/``pstar_stacked`` on the stacked rows, its result
    times ``weight`` added to the output. At t >= 2 the tensor is one
    schedule over the t variable axes:
    1. gather the input rows of each B axis (:func:`~dyadlab.paraproducts.bk_gather`);
       a P axis takes the stacked rows as a slice;
    2. multiply by the product of the P* axes' symbols, then take the strict
       subtree sum along each P* axis;
    3. multiply by ``bC``, gathered at the B ancestors;
    4. take the strict ancestor sum along each P axis, then multiply by the
       product of the P axes' symbols;
    5. multiply by each B axis' ``beta * scale`` in axis order (the weight
       folded into the first; with no B axis it multiplies last) and
       scatter-add into the output rows.

    With ``out`` (extended, shaped like ``Xe``) the weighted contribution is
    added into it and None is returned; without, the contracted result
    (n1, ..., nt, *passive) is returned. P atoms alone read and write only
    the stacked rows, so for them ``Xe`` may also be the stacked input
    itself.
    """
    grids, t = space.grids, len(atoms)
    syms = (None,) * t if syms is None else syms
    p_axes = [v for v in range(t) if isinstance(atoms[v], PAtom)]
    for v in p_axes:
        if syms[v] is None:
            raise ValueError(f"P atom in variable {v + 1} needs its symbol")
    result = out is None
    if result:
        out = np.zeros(Xe.shape)
    if t == 1:
        # one variable keeps the 1-D kernels: the pinned 1-D reports hold
        # their order of operations (bk_stacked forms beta * b * scale
        # before taking x), which the t-axis schedule would change
        (atom,), (grid,) = atoms, grids
        if p_axes:
            n = grid.n_samples
            p = pstar_stacked if atom.adjoint else p_stacked
            out[:n] += weight * p(grid, bC, syms[0], Xe[:n])
        else:
            out += weight * bk_stacked(atom, bC, Xe)
        return contract_space(space, out) if result else None
    bC = _lift(bC, Xe, t)
    pstar = [v for v in p_axes if atoms[v].adjoint]
    plain = [v for v in p_axes if not atoms[v].adjoint]
    # the symbols of one orientation multiply together, then W once
    pre = [_trailing(syms[v], Xe, v) for v in pstar]
    post = [_trailing(syms[v], Xe, v) for v in plain]
    rows, coefs = [], []  # (input, b, output) rows and beta * scale per axis
    for v, atom in enumerate(atoms):
        if v in p_axes:
            rows.append((slice(grids[v].n_samples),) * 3)
            continue
        rin, rout, brows, beta, scale = bk_gather(atom)
        scale = scale if coefs else np.multiply.outer(scale, weight)
        rows.append((rin, brows, rout))
        coefs.append((v, scale if beta is None
                      else _trailing(beta, scale) * _trailing(scale, beta)))
    ins, bs, outs = zip(*rows)
    W = _take(Xe, ins)
    if pre:
        W = reduce(operator.mul, pre) * W
    for v in pstar:
        W = _along(v, partial(strict_subtree_sum, grids[v]), W)
    W = _take(bC, bs) * W
    for v in plain:
        W = _along(v, partial(strict_ancestor_sum, grids[v]), W)
    if post:
        W = reduce(operator.mul, post) * W
    for v, c in coefs:
        W = _trailing(c, W, v) * W
    b_axes = [v for v, _ in coefs]
    if b_axes and b_axes[-1] - b_axes[0] >= len(b_axes):
        # numpy puts the axes of non-adjacent index arrays first, so B
        # axes with a P axis between them index every axis as rows
        outs = [np.arange(r.stop) if isinstance(r, slice) else r for r in outs]
        b_axes = range(t)
    outs = list(outs)
    for k, v in enumerate(b_axes[:-1]):  # the rows of B axes broadcast as a grid
        outs[v] = outs[v].reshape((-1,) + (1,) * (len(b_axes) - 1 - k))
    out[tuple(outs)] += W if coefs else weight * W
    return contract_space(space, out) if result else None


# -- public operator surface -------------------------------------------------


def apply_biparam(atoms: tuple, b: SampledFunction, f: SampledFunction,
                  syms=None) -> SampledFunction:
    """Literal evaluation of the tensor of ``atoms`` on f, with symbol b;
    the result is of f's type.

    ``atoms`` holds one atom per variable of f's grid or product grid, as
    for :func:`pair_apply`: a BkOperator on that variable's grid or a
    PAtom. ``syms`` gives the P atoms their symbols: one DyadicFunction per
    variable, on that variable's grid, with None on a B axis. Or, for two P
    atoms, it is one ProductFunction ``a`` on f's product grid, the general
    PP-family symbol: with stacked coefficients A (mean rows zeroed) it is
    the sum over the rows r of A of e_r x A[r, :], so variable 1 takes the
    columns of the identity and variable 2 the rows of A, one rank-one term
    per column of a trailing axis of one :func:`pair_apply` call, and the
    terms are summed at the end.
    """
    pg = f.space
    b._check(f)
    if len(atoms) != len(pg.grids):
        raise ValueError(f"{len(pg.grids)} variables take one atom each, got {len(atoms)}")
    for v, atom in enumerate(atoms, 1):
        if not isinstance(atom, PAtom):
            _check_var(pg, atom, v)
    bC = forward_space(pg, b.samples)
    Xe = extend_space(pg, forward_space(pg, f.samples))
    if not isinstance(syms, ProductFunction):
        if syms is not None:
            for v, (atom, sym, grid) in enumerate(zip(atoms, syms, pg.grids, strict=True), 1):
                if sym is not None and not isinstance(atom, PAtom):
                    raise ValueError(f"the B atom in variable {v} takes no symbol")
                if sym is not None and sym.grid != grid:
                    raise GridMismatchError(f"symbol of variable {v} lives off its grid")
            syms = [None if sym is None else symbol_stacked(sym) for sym in syms]
        return type(f)(pg, inverse_space(pg, pair_apply(pg, bC, Xe, atoms, syms)))
    # ProductGrid's two-variable rule, which refuses one variable by name too
    g1, _ = ProductGrid.two_grids(pg, "a product-grid symbol")
    if not all(isinstance(atom, PAtom) for atom in atoms):
        raise ValueError("a product-grid symbol takes a P atom in both variables")
    if syms.pgrid != pg:
        raise GridMismatchError("symbol a lives off the operands' product grid")
    A = symbol_stacked(syms)
    Xe = np.broadcast_to(Xe[..., None], Xe.shape + (g1.n_samples,))
    out = pair_apply(pg, bC, Xe, atoms, (np.eye(g1.n_samples), A.T))
    return ProductFunction(pg, inverse_space(pg, out.sum(axis=2)))


def apply_Bk(op: BkOperator, b: DyadicFunction, f: DyadicFunction) -> DyadicFunction:
    """Evaluate B_k(b, f). Cubes shallower than k contribute nothing."""
    return apply_biparam((op,), b, f)


def apply_P(b: DyadicFunction, a: DyadicFunction, f: DyadicFunction) -> DyadicFunction:
    return apply_biparam((PAtom(),), b, f, (a,))


def apply_P_adjoint(b: DyadicFunction, a: DyadicFunction,
                    f: DyadicFunction) -> DyadicFunction:
    return apply_biparam((PAtom(adjoint=True),), b, f, (a,))
