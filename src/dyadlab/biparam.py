"""Tensor-product grids and bi-parameter operators.

Functions of two variables are sample matrices (variable 1 slow). Per-variable
Haar transforms act along one axis with the other axis passive, so the full
transform is the composition in either order.

The operator family combines one "atom" per variable: a
:class:`~dyadlab.paraproducts.BkOperator` on that variable's grid (the B_k
diagonal paraproduct) or a ``PAtom`` (the cube/subcube operator P, possibly
adjoint). This realizes B_{k,l}, BP_k, PB_l, PP, the partial adjoints
PP_1 / PP_2, and the full adjoint, all evaluated in coefficient space with
per-level contractions and the strict-subcube tree scans of
:mod:`dyadlab.paraproducts`.

Stacked arrays are (n1, n2, *passive): variable 1 on axis 0, variable 2 on
axis 1, and optional trailing passive axes (one column per trial in
:func:`dyadlab.decomposition.verify_identity`). Variables swap by swapping
axes 0 and 1; the fixed arrays (symbol coefficients, betas) broadcast
against the trailing axes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .grids import GridMismatchError, GridSpec, grid_index
from .haar import (DyadicFunction, fold_noncancellative, forward_stacked,
                   inverse_stacked, scaling_levels)
from .paraproducts import (BkOperator, strict_ancestor_sum,
                           strict_subtree_sum, symbol_stacked)

_MAGIC_2P = b"DYF2"


@dataclass(frozen=True)
class ProductGrid:
    grid1: GridSpec
    grid2: GridSpec

    @property
    def shape(self) -> tuple:
        return (self.grid1.n_samples, self.grid2.n_samples)

    def swap(self) -> "ProductGrid":
        return ProductGrid(self.grid2, self.grid1)


@dataclass(frozen=True)
class ProductFunction:
    """Function on torus1 x torus2 sampled on the finest rectangles."""

    pgrid: ProductGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).reshape(self.pgrid.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite (no NaN or inf)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def cell_volume(self) -> float:
        return self.pgrid.grid1.cell_volume * self.pgrid.grid2.cell_volume

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.samples ** 2) * self.cell_volume))

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def transpose(self) -> "ProductFunction":
        return ProductFunction(self.pgrid.swap(), self.samples.T)

    def __add__(self, other):
        self._check(other)
        return ProductFunction(self.pgrid, self.samples + other.samples)

    def __sub__(self, other):
        self._check(other)
        return ProductFunction(self.pgrid, self.samples - other.samples)

    def __mul__(self, scalar):
        return ProductFunction(self.pgrid, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return ProductFunction(self.pgrid, -self.samples)

    def _check(self, other):
        if not isinstance(other, ProductFunction) or other.pgrid != self.pgrid:
            raise GridMismatchError("operands live on different product grids")

    def to_json(self) -> str:
        g1, g2 = self.pgrid.grid1, self.pgrid.grid2
        return json.dumps({"d1": g1.d, "N1": g1.N, "d2": g2.d, "N2": g2.N,
                           "samples": self.samples.reshape(-1).tolist()})

    @classmethod
    def from_json(cls, text: str) -> "ProductFunction":
        obj = json.loads(text)
        pg = ProductGrid(GridSpec(int(obj["d1"]), int(obj["N1"])),
                         GridSpec(int(obj["d2"]), int(obj["N2"])))
        return cls(pg, np.asarray(obj["samples"], dtype=float))

    def to_bytes(self) -> bytes:
        """20-byte header (magic DYF2, u32 d1,N1,d2,N2) + LE float64, var 1 slow."""
        g1, g2 = self.pgrid.grid1, self.pgrid.grid2
        if g1.omega is not None or g2.omega is not None:
            raise ValueError("binary format covers standard grids only")
        header = _MAGIC_2P + struct.pack("<IIII", g1.d, g1.N, g2.d, g2.N)
        return header + self.samples.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProductFunction":
        if data[:4] != _MAGIC_2P:
            raise ValueError("bad magic, expected DYF2")
        d1, N1, d2, N2 = struct.unpack("<IIII", data[4:20])
        pg = ProductGrid(GridSpec(d1, N1), GridSpec(d2, N2))
        return cls(pg, np.frombuffer(data[20:], dtype="<f8").copy())


def tensor_function(f1: DyadicFunction, f2: DyadicFunction) -> ProductFunction:
    pg = ProductGrid(f1.grid, f2.grid)
    return ProductFunction(pg, np.outer(f1.samples, f2.samples))


def random_product_function(pg: ProductGrid, rng) -> ProductFunction:
    return ProductFunction(pg, rng.standard_normal(pg.shape))


# -- transforms --------------------------------------------------------------


def _swap(a: np.ndarray) -> np.ndarray:
    """Exchange the two variables of a stacked array (axes 0 and 1)."""
    return a.swapaxes(0, 1)


def forward2_stacked(pg: ProductGrid, samples: np.ndarray) -> np.ndarray:
    """Samples (n1, n2, *passive) -> stacked coefficients, same shape."""
    a = forward_stacked(pg.grid1, samples)
    return _swap(forward_stacked(pg.grid2, _swap(a)))


def inverse2_stacked(pg: ProductGrid, stacked: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward2_stacked`."""
    a = _swap(inverse_stacked(pg.grid2, _swap(stacked)))
    return inverse_stacked(pg.grid1, a)


def forward2(pf: ProductFunction) -> np.ndarray:
    """Full stacked coefficient matrix (variable 1 rows, variable 2 columns)."""
    return forward2_stacked(pf.pgrid, pf.samples)


def inverse2(pg: ProductGrid, stacked: np.ndarray) -> ProductFunction:
    return ProductFunction(pg, inverse2_stacked(pg, stacked))


def forward_var(pf_samples: np.ndarray, grid: GridSpec, var: int) -> np.ndarray:
    """Partial Haar transform in one variable only."""
    if var == 1:
        return forward_stacked(grid, pf_samples)
    return _swap(forward_stacked(grid, _swap(pf_samples)))


def inner_product2(f: ProductFunction, g: ProductFunction) -> float:
    f._check(g)
    return float(np.sum(f.samples * g.samples) * f.cell_volume)


def pointwise_multiply2(f: ProductFunction, g: ProductFunction) -> ProductFunction:
    f._check(g)
    return ProductFunction(f.pgrid, f.samples * g.samples)


# -- variable-wise shift application and iterated commutators ----------------


def _check_var(pg: ProductGrid, S, var: int) -> None:
    if S.grid != (pg.grid1 if var == 1 else pg.grid2):
        raise GridMismatchError(f"operator grid does not match variable {var}")


def _apply_var(S, var: int, samples: np.ndarray) -> np.ndarray:
    """``S`` along variable ``var`` of samples (n1, n2, *passive)."""
    if var == 1:
        return S.apply_samples(samples)
    return _swap(S.apply_samples(_swap(samples)))


def apply_in_variable(S, var: int, f: ProductFunction) -> ProductFunction:
    """Apply a one-parameter operator along every slice of the passive variable."""
    _check_var(f.pgrid, S, var)
    return ProductFunction(f.pgrid, _apply_var(S, var, f.samples))


def iterated_commutator_stacked(b: ProductFunction, S1, S2,
                                samples: np.ndarray) -> np.ndarray:
    """[[M_b, S1], S2] on samples (n1, n2, *passive), one function per column.

    Expands into the four signed compositions of b, S1 and S2 in sample space.
    """
    pg = b.pgrid
    _check_var(pg, S1, 1)
    _check_var(pg, S2, 2)
    bs = b.samples.reshape(pg.shape + (1,) * (samples.ndim - 2))

    def bracket1(x):
        return bs * _apply_var(S1, 1, x) - _apply_var(S1, 1, bs * x)

    return bracket1(_apply_var(S2, 2, samples)) - _apply_var(S2, 2, bracket1(samples))


def iterated_commutator(b: ProductFunction, S1, S2, f: ProductFunction) -> ProductFunction:
    """[[M_b, S1], S2] f expanded into the four signed compositions."""
    b._check(f)
    return ProductFunction(f.pgrid, iterated_commutator_stacked(b, S1, S2, f.samples))


# -- atom machinery -----------------------------------------------------------


@dataclass(frozen=True)
class PAtom:
    """One-variable P atom; ``adjoint`` swaps input and output roles."""
    adjoint: bool = False


def _sig_rows(g: GridSpec, lvl: int, sig_int: int) -> np.ndarray:
    return grid_index(g).sig_rows(lvl, sig_int)


class _BiView:
    """Cached input blocks of a stacked array, noncancellative pairings included.

    ``X`` is (n1, n2, *passive); every block keeps the trailing axes.
    """

    def __init__(self, pg: ProductGrid, X: np.ndarray):
        self.pg = pg
        self.X = X
        self._sc1 = None
        self._sc2 = None
        self._sc12 = {}

    def sc1(self):
        if self._sc1 is None:
            self._sc1 = scaling_levels(self.pg.grid1, self.X)
        return self._sc1

    def sc2(self):
        if self._sc2 is None:
            self._sc2 = scaling_levels(self.pg.grid2, _swap(self.X))
        return self._sc2

    def sc12(self, l1: int):
        if l1 not in self._sc12:
            self._sc12[l1] = scaling_levels(self.pg.grid2, _swap(self.sc1()[l1]))
        return self._sc12[l1]

    def rows1(self, l1: int, s1: int) -> np.ndarray:
        """(n_cubes1(l1), n2tot, *passive) input block in variable 1, all var-2 columns."""
        g1 = self.pg.grid1
        if s1 == g1.noncanc_int:
            return self.sc1()[l1]
        return self.X[_sig_rows(g1, l1, s1), :]

    def block(self, l1: int, s1: int, l2: int, s2: int) -> np.ndarray:
        g1, g2 = self.pg.grid1, self.pg.grid2
        nc1 = s1 == g1.noncanc_int
        nc2 = s2 == g2.noncanc_int
        if not nc1 and not nc2:
            return self.X[np.ix_(_sig_rows(g1, l1, s1), _sig_rows(g2, l2, s2))]
        if nc1 and not nc2:
            return self.sc1()[l1][:, _sig_rows(g2, l2, s2)]
        if not nc1 and nc2:
            return _swap(self.sc2()[l2][:, _sig_rows(g1, l1, s1)])
        return _swap(self.sc12(l1)[l2])


class _Accum:
    """Stacked output accumulator that folds noncancellative-signature pieces.

    Every buffer carries the trailing ``passive`` axes of the input.
    """

    def __init__(self, pg: ProductGrid, passive: tuple = ()):
        self.pg = pg
        self.passive = tuple(passive)
        self.out = np.zeros(pg.shape + self.passive)
        self.nc1 = {}
        self.nc2 = {}
        self.nc12 = {}

    def _buf(self, store: dict, key, shape: tuple) -> np.ndarray:
        buf = store.get(key)
        if buf is None:
            buf = store[key] = np.zeros(shape + self.passive)
        return buf

    def add(self, l1, s1, l2, s2, C):
        g1, g2 = self.pg.grid1, self.pg.grid2
        nc1 = s1 == g1.noncanc_int
        nc2 = s2 == g2.noncanc_int
        if not nc1 and not nc2:
            self.out[np.ix_(_sig_rows(g1, l1, s1), _sig_rows(g2, l2, s2))] += C
        elif nc1 and not nc2:
            buf = self._buf(self.nc1, l1, (g1.n_cubes(l1), g2.n_samples))
            buf[:, _sig_rows(g2, l2, s2)] += C
        elif not nc1 and nc2:
            buf = self._buf(self.nc2, l2, (g2.n_cubes(l2), g1.n_samples))
            buf[:, _sig_rows(g1, l1, s1)] += _swap(C)
        else:
            buf = self._buf(self.nc12, (l1, l2), (g1.n_cubes(l1), g2.n_cubes(l2)))
            buf += C

    def add_rows1(self, l1, s1, C):
        """Add a full-width var-2 contribution (already in stacked columns)."""
        g1 = self.pg.grid1
        if s1 == g1.noncanc_int:
            buf = self._buf(self.nc1, l1, (g1.n_cubes(l1), self.pg.grid2.n_samples))
            buf += C
        else:
            self.out[_sig_rows(g1, l1, s1), :] += C

    def total(self) -> np.ndarray:
        g1, g2 = self.pg.grid1, self.pg.grid2
        for (l1, l2), C in self.nc12.items():
            folded = _swap(fold_noncancellative(g2, {l2: _swap(C)}))
            buf = self._buf(self.nc1, l1, (g1.n_cubes(l1), g2.n_samples))
            buf += folded
        out = self.out
        for l2, buf in self.nc2.items():
            out += _swap(fold_noncancellative(g2, {l2: buf}))
        for l1, buf in self.nc1.items():
            out += fold_noncancellative(g1, {l1: buf})
        return out


def _lift(a: np.ndarray, lead: int, X: np.ndarray) -> np.ndarray:
    """``a`` with unit axes after its ``lead`` leading ones, broadcasting
    against the trailing axes of ``X`` (n1, n2, *passive); idempotent."""
    if a is None:
        return None
    return a.reshape(a.shape[:lead] + (1,) * (X.ndim - 2))


def pair_apply(pg: ProductGrid, bC: np.ndarray, X: np.ndarray, atom1, atom2,
               sym1: np.ndarray = None, sym2: np.ndarray = None,
               sym12: np.ndarray = None, view: "_BiView" = None,
               out_acc: "_Accum" = None, weight: float = 1.0,
               b_cache: dict = None) -> np.ndarray:
    """Evaluate the tensor of two one-variable atoms on stacked arrays.

    Each atom is a BkOperator on its variable's grid or a PAtom. ``X`` is
    (n1, n2, *passive); the fixed arrays ``bC`` (n1, n2), ``sym1`` (n1,),
    ``sym2`` (n2,) and ``sym12`` (n1, n2) broadcast against its trailing
    axes. ``sym1``/``sym2`` are stacked symbol coefficients for P atoms acting
    in that variable; ``sym12`` is the stacked matrix of a product symbol
    when both atoms are P-type. With ``out_acc`` the weighted contribution is
    accumulated in place (shared across terms) and None is returned;
    ``b_cache`` memoizes ancestor gathers of the symbol coefficients, which
    carry the trailing unit axes, so one cache serves one ``X.ndim``.
    """
    bC = _lift(bC, 2, X)
    sym1, sym2, sym12 = _lift(sym1, 1, X), _lift(sym2, 1, X), _lift(sym12, 2, X)
    if view is None:
        view = _BiView(pg, X)
    acc = out_acc if out_acc is not None else _Accum(pg, X.shape[2:])
    if isinstance(atom1, PAtom) and isinstance(atom2, PAtom):
        acc.out += weight * _pp_pair(pg, bC, X, atom1, atom2, sym12)
    elif isinstance(atom1, PAtom):
        # mirror: swap variables, reuse the (B, P) kernel, swap back
        full = pair_apply(pg.swap(), _swap(bC), _swap(X), atom2, atom1,
                          sym1=sym2, sym2=sym1, sym12=None, view=None)
        acc.out += weight * _swap(full)
    elif isinstance(atom2, PAtom):
        _bp_pair(pg, bC, X, atom1, atom2, sym2, view, acc, weight, b_cache)
    else:
        _bb_pair(pg, bC, X, atom1, atom2, view, acc, weight, b_cache)
    if out_acc is None:
        return acc.total()
    return None


def _b_gather(pg, bC, a1, a2, l1, l2, b_cache):
    key = ("bb", a1.k, a1.sb, a2.k, a2.sb, l1, l2)
    if b_cache is not None and key in b_cache:
        return b_cache[key]
    g1, g2 = pg.grid1, pg.grid2
    i1, i2 = grid_index(g1), grid_index(g2)
    rows = i1.sig_rows(l1 - a1.k, a1.sb)[i1.ancestor_flat(l1, a1.k)]
    cols = i2.sig_rows(l2 - a2.k, a2.sb)[i2.ancestor_flat(l2, a2.k)]
    out = bC[np.ix_(rows, cols)]
    if b_cache is not None:
        b_cache[key] = out
    return out


def _bb_pair(pg, bC, X, a1: BkOperator, a2: BkOperator, view: _BiView,
             acc: "_Accum", weight: float, b_cache: dict) -> None:
    g1, g2 = pg.grid1, pg.grid2
    pad = (1,) * (X.ndim - 2)
    c2s = []
    for l2 in range(a2.k, g2.N):
        c2 = a2.beta_level(l2) * 2.0 ** ((l2 - a2.k) * g2.d / 2.0)
        c2s.append(np.reshape(c2, np.shape(c2) + pad))
    for l1 in range(a1.k, g1.N):
        c1 = a1.beta_level(l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        for l2, c2 in zip(range(a2.k, g2.N), c2s):
            Bg = _b_gather(pg, bC, a1, a2, l1, l2, b_cache)
            Xin = view.block(l1, a1.si, l2, a2.si)
            C = (c1 * (Bg * Xin).T).T * c2
            acc.add(l1, a1.so, l2, a2.so, C)


def _bp_pair(pg, bC, X, a1: BkOperator, p2: PAtom, sym2, view: _BiView,
             acc: "_Accum", weight: float, b_cache: dict) -> None:
    if sym2 is None:
        raise ValueError("P atom in variable 2 needs its symbol")
    g1, g2 = pg.grid1, pg.grid2
    i1 = grid_index(g1)
    for l1 in range(a1.k, g1.N):
        key = ("bp", a1.k, a1.sb, l1)
        if b_cache is not None and key in b_cache:
            Bg = b_cache[key]
        else:
            rows_b1 = i1.sig_rows(l1 - a1.k, a1.sb)[i1.ancestor_flat(l1, a1.k)]
            Bg = bC[rows_b1, :]
            if b_cache is not None:
                b_cache[key] = Bg
        c1 = a1.beta_level(l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        Xin = view.rows1(l1, a1.si)
        if not p2.adjoint:
            C = _swap(strict_ancestor_sum(g2, _swap(Bg * Xin))) * sym2[None, :]
        else:
            C = Bg * _swap(strict_subtree_sum(g2, _swap(Xin * sym2[None, :])))
        acc.add_rows1(l1, a1.so, (C.T * c1).T)


def _pp_pair(pg, bC, X, p1: PAtom, p2: PAtom, sym12) -> np.ndarray:
    if sym12 is None:
        raise ValueError("P x P atoms need the product symbol")
    g1, g2 = pg.grid1, pg.grid2
    if not p1.adjoint and not p2.adjoint:
        W = strict_ancestor_sum(g1, bC * X)
        return sym12 * _swap(strict_ancestor_sum(g2, _swap(W)))
    if p1.adjoint and p2.adjoint:
        W = strict_subtree_sum(g1, sym12 * X)
        return bC * _swap(strict_subtree_sum(g2, _swap(W)))
    if p1.adjoint:
        return _pp1_kernel(pg, bC, X, sym12)
    # PP2 is PP1 with the variables swapped
    return _swap(_pp1_kernel(pg.swap(), _swap(bC), _swap(X), _swap(sym12)))


def _pp1_kernel(pg, bC, X, sym12) -> np.ndarray:
    """P adjoint in variable 1 only:

        out[I1, J2] = sum_{J1 strictly inside I1} sum_{I2 strictly containing J2}
                      |I1|**(-1) |I2|**(-1) a[J1, J2] b[I1, I2] X[J1, I2]

    (all signatures of J1 and I2). For each level pair li < lj the b rows of
    each cube's ancestor at li meet the X rows of the cube, an ancestor scan
    runs along variable 2, and the a-weighted result is summed into the
    ancestor. Trailing passive axes of ``X`` ride along (``bC``, ``sym12``
    carry unit ones).
    """
    g1, g2 = pg.grid1, pg.grid2
    i1 = grid_index(g1)
    out = np.zeros(X.shape)
    for lj in range(1, g1.N):
        # variable 2 leads: (n2, n_cubes1(lj), n_sig1, *passive)
        Xj = np.moveaxis(g1.level_block(X, lj), 2, 0)
        aj = np.moveaxis(g1.level_block(sym12, lj), 2, 0)
        for li in range(lj):
            Bi = np.moveaxis(g1.level_block(bC, li)[i1.ancestor_flat(lj, lj - li)], 2, 0)
            # axes (n2, cube J1, signature of I1, signature of J1, *passive)
            Z = strict_ancestor_sum(g2, Bi[:, :, :, None] * Xj[:, :, None, :])
            R = np.moveaxis((Z * aj[:, :, None, :]).sum(axis=3), 0, 2)
            up = R[i1.desc_groups(li, lj - li)].sum(axis=1)
            g1.level_block(out, li)[...] += 2.0 ** (li * g1.d) * up
    return out


# -- public bi-parameter operator surface -------------------------------------


@dataclass(frozen=True)
class BiparamOperatorSpec:
    """Parameters of one bi-parameter operator of kind Bkl/PP/PP1/PP2/BPk/PBl.

    Signature fields are {0,1}^d tuples per variable; ``None`` means the
    all-zero (cancellative) signature. Symbols: ``a`` (ProductFunction) for
    the PP family, ``a2``/``a1`` (DyadicFunction) for BPk/PBl. ``p_adjoint``
    tags the adjoint variant of the P factor in BPk/PBl.
    """

    kind: str
    k: int = 0
    l: int = 0
    sig_b1: tuple = None
    sig_in1: tuple = None
    sig_out1: tuple = None
    sig_b2: tuple = None
    sig_in2: tuple = None
    sig_out2: tuple = None
    beta1: object = None
    beta2: object = None
    a: "ProductFunction" = None
    a1: DyadicFunction = None
    a2: DyadicFunction = None
    p_adjoint: bool = False

    def validate(self, pg: ProductGrid):
        if self.kind not in ("Bkl", "PP", "PP1", "PP2", "PPstar", "BPk", "PBl"):
            raise ValueError(f"unknown bi-parameter kind {self.kind}")
        if self.kind in ("PP", "PP1", "PP2", "PPstar") and self.a is None:
            raise ValueError(f"{self.kind} needs the product symbol a")
        if self.kind == "BPk" and self.a2 is None:
            raise ValueError("BPk needs the variable-2 symbol a2")
        if self.kind == "PBl" and self.a1 is None:
            raise ValueError("PBl needs the variable-1 symbol a1")


def biparam_operands(spec: BiparamOperatorSpec, pg: ProductGrid) -> tuple:
    """Atoms and symbols of ``spec`` on ``pg``: (atom1, atom2, sym1, sym2, sym12).

    ``pair_apply(pg, bC, X, *biparam_operands(spec, pg))`` evaluates the
    operator on stacked coefficients, so callers holding transformed inputs
    reuse them across specs.
    """
    spec.validate(pg)
    g1, g2 = pg.grid1, pg.grid2
    sym1 = sym2 = sym12 = None
    if spec.kind in ("Bkl", "BPk"):
        a1 = BkOperator(g1, spec.k, spec.sig_b1, spec.sig_in1, spec.sig_out1, spec.beta1)
    if spec.kind in ("Bkl", "PBl"):
        a2 = BkOperator(g2, spec.l, spec.sig_b2, spec.sig_in2, spec.sig_out2, spec.beta2)
    if spec.kind == "BPk":
        a2 = PAtom(adjoint=spec.p_adjoint)
        sym2 = symbol_stacked(spec.a2)
    elif spec.kind == "PBl":
        a1 = PAtom(adjoint=spec.p_adjoint)
        sym1 = symbol_stacked(spec.a1)
    elif spec.kind != "Bkl":
        flags = {"PP": (False, False), "PP1": (True, False),
                 "PP2": (False, True), "PPstar": (True, True)}[spec.kind]
        a1, a2 = PAtom(flags[0]), PAtom(flags[1])
        sym12 = forward2(spec.a)
        sym12[0, :] = 0.0
        sym12[:, 0] = 0.0
    return a1, a2, sym1, sym2, sym12


def apply_biparam(spec: BiparamOperatorSpec, b: ProductFunction,
                  f: ProductFunction) -> ProductFunction:
    """Literal evaluation of the defining Haar sums of the requested kind."""
    pg = f.pgrid
    if b.pgrid != pg:
        raise GridMismatchError("b and f live on different product grids")
    out = pair_apply(pg, forward2(b), forward2(f), *biparam_operands(spec, pg))
    return inverse2(pg, out)
