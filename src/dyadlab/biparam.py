"""Tensor-product grids and bi-parameter operators.

Functions of two variables are sample matrices (variable 1 slow). Per-variable
Haar transforms act along one axis with the other axis passive, so the full
transform is the composition in either order.

The operator family combines one "atom" per variable: a
:class:`~dyadlab.paraproducts.BkOperator` on that variable's grid (the B_k
diagonal paraproduct) or a ``PAtom`` (the cube/subcube operator P, possibly
adjoint). This realizes B_{k,l}, BP_k, PB_l, PP, the partial adjoints
PP_1 / PP_2, and the full adjoint, all evaluated in coefficient space: a
B atom is one gather over the rows of
:func:`~dyadlab.paraproducts.bk_gather`, the same layout ``bk_stacked``
reads, and a P atom is a strict-subcube tree scan of
:mod:`dyadlab.paraproducts`.

Stacked arrays are (n1, n2, *passive): variable 1 on axis 0, variable 2 on
axis 1, and optional trailing passive axes (one column per trial in
:func:`dyadlab.decomposition.verify_identity`). Variables swap by swapping
axes 0 and 1; the fixed arrays (symbol coefficients, betas) broadcast
against the trailing axes.

The atoms read and write the extended layout of both variables
(:func:`extend2`, :func:`contract2`), where a noncancellative signature
selects rows like any other; callers extend an input once and contract a
sum of terms once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .grids import GridMismatchError, GridSpec, grid_index
from .haar import (DyadicFunction, contract, extend, forward_stacked,
                   inverse_stacked)
from .paraproducts import (BkOperator, bk_gather, strict_ancestor_sum,
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
        """Keys d1, N1, d2, N2, samples; omega1/omega2 for shifted grids."""
        g1, g2 = self.pgrid.grid1, self.pgrid.grid2
        obj = {"d1": g1.d, "N1": g1.N, "d2": g2.d, "N2": g2.N,
               "samples": self.samples.reshape(-1).tolist()}
        for key, g in (("omega1", g1), ("omega2", g2)):
            if g.omega is not None:
                obj[key] = [list(level) for level in g.omega]
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "ProductFunction":
        obj = json.loads(text)
        grids = []
        for v in "12":
            omega = obj.get("omega" + v)
            if omega is not None:
                omega = tuple(tuple(level) for level in omega)
            grids.append(GridSpec(int(obj["d" + v]), int(obj["N" + v]), omega))
        return cls(ProductGrid(*grids), np.asarray(obj["samples"], dtype=float))

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


def extend2(pg: ProductGrid, stacked: np.ndarray) -> np.ndarray:
    """:func:`~dyadlab.haar.extend` along variable 1, then along variable 2."""
    return _swap(extend(pg.grid2, _swap(extend(pg.grid1, stacked))))


def contract2(pg: ProductGrid, ext: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`extend2`: contract variable 2, then variable 1."""
    return contract(pg.grid1, _swap(contract(pg.grid2, _swap(ext))))


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


def _lift(a: np.ndarray, lead: int, X: np.ndarray) -> np.ndarray:
    """``a`` with unit axes after its ``lead`` leading ones, broadcasting
    against the trailing axes of ``X`` (n1, n2, *passive); idempotent."""
    if a is None:
        return None
    return a.reshape(a.shape[:lead] + (1,) * (X.ndim - 2))


def pair_apply(pg: ProductGrid, bC: np.ndarray, Xe: np.ndarray, atom1, atom2,
               sym1: np.ndarray = None, sym2: np.ndarray = None,
               sym12: np.ndarray = None, out: np.ndarray = None,
               weight: float = 1.0) -> np.ndarray:
    """Evaluate the tensor of two one-variable atoms on extended stacks.

    Each atom is a BkOperator on its variable's grid or a PAtom. ``Xe`` is
    the input in the extended layout of both variables (:func:`extend2`),
    (m1, m2, *passive); the fixed arrays ``bC`` (n1, n2), ``sym1`` (n1,),
    ``sym2`` (n2,) and ``sym12`` (n1, n2) broadcast against its trailing
    axes. ``sym1``/``sym2`` are stacked symbol coefficients for P atoms acting
    in that variable; ``sym12`` is the stacked matrix of a product symbol
    when both atoms are P-type. A B atom reads and writes the rows that
    :func:`~dyadlab.paraproducts.bk_gather` gives it, all levels at once:
    B x B is one gather over the row blocks of both variables, B x P one
    strict-subcube scan along the P variable. With ``out`` (extended, shaped
    like ``Xe``) the weighted contribution is added into it and None is
    returned; without, the contracted result (n1, n2, *passive) is returned.
    """
    bC = _lift(bC, 2, Xe)
    sym1, sym2, sym12 = _lift(sym1, 1, Xe), _lift(sym2, 1, Xe), _lift(sym12, 2, Xe)
    result = out is None
    if result:
        out = np.zeros(Xe.shape)
    if isinstance(atom1, PAtom) and isinstance(atom2, PAtom):
        n1, n2 = pg.shape
        out[:n1, :n2] += weight * _pp_pair(pg, bC, Xe[:n1, :n2], atom1, atom2, sym12)
    elif isinstance(atom1, PAtom):
        # mirror: the (B, P) kernel on views with the variables swapped
        _bp_pair(pg.swap(), _swap(bC), _swap(Xe), atom2, atom1, sym1, _swap(out), weight)
    elif isinstance(atom2, PAtom):
        _bp_pair(pg, bC, Xe, atom1, atom2, sym2, out, weight)
    else:
        _bb_pair(bC, Xe, atom1, atom2, out, weight)
    return contract2(pg, out) if result else None


def _coef(beta, scale):
    """Per-cube factor of a B atom: ``beta * scale``, or ``scale`` when all +1."""
    return scale if beta is None else beta * scale


def _bb_pair(bC, Xe, a1: BkOperator, a2: BkOperator, out: np.ndarray,
             weight: float) -> None:
    rin1, rout1, b1, beta1, scale1 = bk_gather(a1)
    rin2, rout2, b2, beta2, scale2 = bk_gather(a2)
    c1 = _coef(beta1, weight * scale1)
    c2 = _lift(_coef(beta2, scale2), 1, Xe)
    ix = np.ix_
    out[ix(rout1, rout2)] += (c1 * (bC[ix(b1, b2)] * Xe[ix(rin1, rin2)]).T).T * c2


def _bp_pair(pg, bC, Xe, a1: BkOperator, p2: PAtom, sym2, out: np.ndarray,
             weight: float) -> None:
    if sym2 is None:
        raise ValueError("P atom in variable 2 needs its symbol")
    g2 = pg.grid2
    n2 = g2.n_samples
    rin, rout, brows, beta, scale = bk_gather(a1)
    Bg, Xin = bC[brows], Xe[rin, :n2]
    if not p2.adjoint:
        C = _swap(strict_ancestor_sum(g2, _swap(Bg * Xin))) * sym2[None, :]
    else:
        C = Bg * _swap(strict_subtree_sum(g2, _swap(Xin * sym2[None, :])))
    out[rout, :n2] += (C.T * _coef(beta, weight * scale)).T


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

    ``pair_apply(pg, bC, extend2(pg, X), *biparam_operands(spec, pg))``
    evaluates the operator on stacked coefficients ``X``, so callers holding
    extended inputs reuse them across specs.
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
    Xe = extend2(pg, forward2(f))
    out = pair_apply(pg, forward2(b), Xe, *biparam_operands(spec, pg))
    return inverse2(pg, out)
