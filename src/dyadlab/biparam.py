"""Tensor-product grids and bi-parameter operators.

Functions of two variables are sample matrices (variable 1 slow). Per-variable
Haar transforms act along one axis with the other axis passive, so the full
transform is the composition in either order.

The operator family combines one "atom" per variable: a
:class:`~dyadlab.paraproducts.BkOperator` on that variable's grid (the B_k
diagonal paraproduct) or a ``PAtom`` (the cube/subcube operator P, possibly
adjoint). This realizes B_{k,l}, BP_k, PB_l, PP, the partial adjoints
PP_1 / PP_2, and the full adjoint, all evaluated in coefficient space by one
per-axis schedule (:func:`pair_apply`): along a B axis the rows of
:func:`~dyadlab.paraproducts.bk_gather`, the layout ``bk_stacked`` reads;
along a P or P* axis a strict-subcube tree scan of
:mod:`dyadlab.paraproducts` (``strict_ancestor_sum`` /
``strict_subtree_sum``), with ``b`` multiplied once in between. Only a
joint symbol that couples a P* axis with a P axis needs the level-pair loop
of ``_pp1_kernel``.

Stacked arrays are (n1, n2, *passive): variable 1 on axis 0, variable 2 on
axis 1, and optional trailing passive axes (one column per trial in
:func:`dyadlab.decomposition.verify_identity`, after the case axis of a
block of cases in :func:`iterated_commutator_stacked`). Variables swap by
swapping axes 0 and 1. The fixed arrays (symbol coefficients, betas) broadcast
against the trailing axes; they may also carry the input's last axes as
trial axes, one symbol or beta per trial column
(:func:`dyadlab.norms.uniformity_study`), and an array without them is the
broadcast case of the same schedule. :func:`_along` runs a function that
acts along axis 0 along either variable.

The atoms read and write the extended layout of both variables
(:func:`extend2`, :func:`contract2`), where a noncancellative signature
selects rows like any other; callers extend an input once and contract a
sum of terms once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grids import GridMismatchError, GridSpec, grid_index
from .haar import (DyadicFunction, contract, extend, forward_stacked,
                   inverse_stacked)
from .paraproducts import (BkOperator, _trailing, bk_gather, strict_ancestor_sum,
                           strict_subtree_sum, symbol_stacked)
from .shifts import ShiftOperator, _each_case, multiplication_commutator_stacked

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
        if len(data) < 20:
            raise ValueError(f"truncated DYF2 header: needs 20 bytes, got {len(data)}")
        d1, N1, d2, N2 = struct.unpack("<IIII", data[4:20])
        pg = ProductGrid(GridSpec(d1, N1), GridSpec(d2, N2))
        return cls(pg, np.frombuffer(data[20:], dtype="<f8").copy())


def tensor_function(f1: DyadicFunction, f2: DyadicFunction) -> ProductFunction:
    pg = ProductGrid(f1.grid, f2.grid)
    return ProductFunction(pg, np.outer(f1.samples, f2.samples))


def random_product_function(pg: ProductGrid, rng) -> ProductFunction:
    return ProductFunction(pg, rng.standard_normal(pg.shape))


# -- transforms --------------------------------------------------------------


def _along(axis: int, fn, a: np.ndarray) -> np.ndarray:
    """``fn``, which acts along axis 0, applied along ``axis`` of ``a``."""
    return fn(a) if axis == 0 else fn(a.swapaxes(0, axis)).swapaxes(0, axis)


def forward2_stacked(pg: ProductGrid, samples: np.ndarray) -> np.ndarray:
    """Samples (n1, n2, *passive) -> stacked coefficients, same shape."""
    return _along(1, partial(forward_stacked, pg.grid2), forward_stacked(pg.grid1, samples))


def inverse2_stacked(pg: ProductGrid, stacked: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward2_stacked`."""
    return inverse_stacked(pg.grid1, _along(1, partial(inverse_stacked, pg.grid2), stacked))


def forward2(pf: ProductFunction) -> np.ndarray:
    """Full stacked coefficient matrix (variable 1 rows, variable 2 columns)."""
    return forward2_stacked(pf.pgrid, pf.samples)


def inverse2(pg: ProductGrid, stacked: np.ndarray) -> ProductFunction:
    return ProductFunction(pg, inverse2_stacked(pg, stacked))


def extend2(pg: ProductGrid, stacked: np.ndarray) -> np.ndarray:
    """:func:`~dyadlab.haar.extend` along variable 1, then along variable 2."""
    return _along(1, partial(extend, pg.grid2), extend(pg.grid1, stacked))


def contract2(pg: ProductGrid, ext: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`extend2`: contract variable 2, then variable 1."""
    return contract(pg.grid1, _along(1, partial(contract, pg.grid2), ext))


def forward_var(pf_samples: np.ndarray, grid: GridSpec, var: int) -> np.ndarray:
    """Partial Haar transform in one variable only."""
    return _along(var - 1, partial(forward_stacked, grid), pf_samples)


def inner_product2(f: ProductFunction, g: ProductFunction) -> float:
    f._check(g)
    return float(np.sum(f.samples * g.samples) * f.cell_volume)


# -- variable-wise shift application and iterated commutators ----------------


def _check_var(pg: ProductGrid, S, var: int) -> None:
    if S.grid != (pg.grid1 if var == 1 else pg.grid2):
        raise GridMismatchError(f"operator grid does not match variable {var}")


def _apply_var(S, var: int, samples: np.ndarray) -> np.ndarray:
    """``S`` along variable ``var`` of samples (n1, n2, *passive)."""
    return _along(var - 1, S.apply_samples, samples)


def apply_in_variable(S, var: int, f: ProductFunction) -> ProductFunction:
    """Apply a one-parameter operator along every slice of the passive variable."""
    _check_var(f.pgrid, S, var)
    return ProductFunction(f.pgrid, _apply_var(S, var, f.samples))


def iterated_commutator_stacked(b, S1, S2, samples: np.ndarray) -> np.ndarray:
    """[[M_b, S1], S2] on samples, one function per column.

    ``b`` is one ProductFunction with one shift per variable, on ``samples``
    (n1, n2, *passive): the broadcast case of a block of one. Or ``b`` is a
    samples stack (n1, n2, C) and ``S1``, ``S2`` are sequences of C shifts,
    symbol c and shifts c acting on column c of the case axis of
    ``samples`` (n1, n2, C, *trials); a case axis of length 1 is one input
    shared by every case. Column c is then ``iterated_commutator(b_c, S1_c,
    S2_c, f_c)``, bit for bit.

    Expands into [M_b, S1](S2 f) - S2([M_b, S1] f). S2 f of every case
    takes one transform of f along variable 2 and one back; the two
    brackets of every case are one ``multiplication_commutator_stacked``
    on [S2 f | f] with the case axis next to the rows (variable 2 and the
    bracket on its trial axes); S2 of the second bracket takes one
    transform each way. So a block takes three transforms each way, and
    applies S1 once and S2 twice per case, whatever its number of cases.
    """
    if isinstance(b, ProductFunction):
        if not isinstance(S1, ShiftOperator) or not isinstance(S2, ShiftOperator):
            raise ValueError("one ProductFunction b takes one shift per variable")
        _check_var(b.pgrid, S1, 1)
        _check_var(b.pgrid, S2, 2)
        return iterated_commutator_stacked(b.samples[:, :, None], (S1,), (S2,),
                                           samples[:, :, None])[:, :, 0]
    S1, S2 = tuple(S1), tuple(S2)
    C = len(S1)
    if not C or len(S2) != C or b.shape[2:] != (C,) or samples.shape[2:3] not in ((1,), (C,)):
        raise ValueError(f"{len(S1)} and {len(S2)} shifts for a b stack of shape {b.shape} "
                         f"and samples of shape {samples.shape}")
    g1, g2 = S1[0].grid, S2[0].grid
    if any(S.grid != g2 for S in S2):
        raise GridMismatchError("the shifts of variable 2 live on different grids")
    if b.shape[:2] != samples.shape[:2] or b.shape[:2] != (g1.n_samples, g2.n_samples):
        raise GridMismatchError(f"b stack of shape {b.shape} and samples of shape "
                                f"{samples.shape} off the shifts' product grid")
    fwd2, inv2 = partial(forward_stacked, g2), partial(inverse_stacked, g2)
    shape = samples.shape[:2] + (C,) + samples.shape[3:]

    def apply2(x):
        """S2_c along variable 2 of case column c of the samples ``x``."""
        return _along(1, inv2, _each_case(S2, np.broadcast_to(_along(1, fwd2, x), shape), 2, 1))

    # [S2 f | f] on an axis after the case axis, then the case axis next to
    # the rows: b_c leads case c's columns
    pair = np.stack([apply2(samples), np.broadcast_to(samples, shape)], axis=3)
    brackets = multiplication_commutator_stacked(np.moveaxis(b, 2, 1), S1,
                                                 np.moveaxis(pair, 2, 1))
    brackets = np.moveaxis(brackets, 1, 2)
    return brackets[:, :, :, 0] - apply2(brackets[:, :, :, 1])


def iterated_commutator(b: ProductFunction, S1, S2, f: ProductFunction) -> ProductFunction:
    """[[M_b, S1], S2] f expanded into the four signed compositions."""
    b._check(f)
    return ProductFunction(f.pgrid, iterated_commutator_stacked(b, S1, S2, f.samples))


# -- atom machinery -----------------------------------------------------------


@dataclass(frozen=True)
class PAtom:
    """One-variable P atom; ``adjoint`` swaps input and output roles."""
    adjoint: bool = False


def _lift(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``a`` (n1, n2, *trials) with unit axes between its variable axes and
    its trial axes, broadcasting against ``X`` (n1, n2, *passive, *trials);
    idempotent."""
    return a.reshape(a.shape[:2] + (1,) * (X.ndim - a.ndim) + a.shape[2:])


def _rows(r1, r2):
    """Index of rows ``r1`` x ``r2``; a P axis' rows are a slice."""
    return (r1, r2) if isinstance(r1, slice) or isinstance(r2, slice) else (r1[:, None], r2)


def _take(a: np.ndarray, r1, r2) -> np.ndarray:
    """``a`` at rows ``r1`` x ``r2``: a P axis' slice is a view, a B axis'
    rows one ``take`` along its axis."""
    for axis, r in enumerate((r1, r2)):
        a = a[(slice(None),) * axis + (r,)] if isinstance(r, slice) else a.take(r, axis=axis)
    return a


def pair_apply(pg: ProductGrid, bC: np.ndarray, Xe: np.ndarray, atom1, atom2,
               sym1: np.ndarray = None, sym2: np.ndarray = None,
               sym12: np.ndarray = None, out: np.ndarray = None,
               weight: float = 1.0) -> np.ndarray:
    """Evaluate the tensor of two one-variable atoms on extended stacks.

    Each atom is a BkOperator on its variable's grid or a PAtom. ``Xe`` is
    the input in the extended layout of both variables (:func:`extend2`),
    (m1, m2, *passive, *trials). The fixed arrays ``bC`` (n1, n2), ``sym1``
    (n1,), ``sym2`` (n2,) and ``sym12`` (n1, n2) broadcast against its
    trailing axes; each, and a B atom's betas, may also end in the trial
    axes, e.g. ``sym2`` (n2, *trials), to pair trial column t with symbol t.
    ``sym_v`` is the stacked symbol of a P atom in variable v; two P atoms
    take the caller's joint ``sym12`` or else the product of ``sym1`` and
    ``sym2``. ``weight`` is a float, or an array on the trial axes, e.g.
    (C, 1), one weight per column.

    The pair is one schedule over the two variable axes:
    1. gather the input rows of each B axis (:func:`~dyadlab.paraproducts.bk_gather`);
       a P axis takes the stacked rows as a slice;
    2. multiply by the P* axes' symbol, then take the strict subtree sum
       along each P* axis;
    3. multiply by ``bC``, gathered at the B ancestors;
    4. take the strict ancestor sum along each P axis, then multiply by the
       P axes' symbol;
    5. multiply by each B axis' ``beta * scale`` in axis order (the weight
       folded into the first; with no B axis it multiplies last) and
       scatter-add into the output rows.
    A joint ``sym12`` that couples a P* axis with a P axis does not separate
    into these steps; it runs the level-pair loop of :func:`_pp1_kernel`.

    With ``out`` (extended, shaped like ``Xe``) the weighted contribution is
    added into it and None is returned; without, the contracted result
    (n1, n2, *passive) is returned. Two P atoms read and write only the
    stacked rows, so for them ``Xe`` may also be the stacked input itself.
    """
    grids, atoms, syms = (pg.grid1, pg.grid2), (atom1, atom2), (sym1, sym2)
    p_axes = [v for v in (0, 1) if isinstance(atoms[v], PAtom)]
    if len(p_axes) == 2:
        if sym12 is None and (sym1 is None or sym2 is None):
            raise ValueError("P x P atoms need the product symbol")
    elif p_axes and syms[p_axes[0]] is None:
        raise ValueError(f"P atom in variable {p_axes[0] + 1} needs its symbol")
    bC = _lift(bC, Xe)
    result = out is None
    if result:
        out = np.zeros(Xe.shape)
    pstar = [v for v in p_axes if atoms[v].adjoint]
    plain = [v for v in p_axes if not atoms[v].adjoint]
    if len(pstar) == len(plain) == 1 and sym12 is not None:
        n1, n2 = pg.shape
        args = (bC, Xe[:n1, :n2], _lift(sym12, Xe))
        if atom1.adjoint:
            res = _pp1_kernel(pg, *args)
        else:  # PP2 is PP1 with the variables swapped
            res = _pp1_kernel(pg.swap(), *(a.swapaxes(0, 1) for a in args)).swapaxes(0, 1)
        out[:n1, :n2] += weight * res
        return contract2(pg, out) if result else None
    if len(p_axes) == 2 and len(pstar) != 1:
        joint = _lift(sym12, Xe) if sym12 is not None \
            else _trailing(sym1, Xe) * _trailing(sym2, Xe, 1)
        pre, post = ([joint], []) if pstar else ([], [joint])
    else:
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
    (in1, b1, out1), (in2, b2, out2) = rows
    W = _take(Xe, in1, in2)
    for s in pre:
        W = s * W
    for v in pstar:
        W = _along(v, partial(strict_subtree_sum, grids[v]), W)
    W = _take(bC, b1, b2) * W
    for v in plain:
        W = _along(v, partial(strict_ancestor_sum, grids[v]), W)
    for s in post:
        W = s * W
    for v, c in coefs:
        W = _trailing(c, W, v) * W
    out[_rows(out1, out2)] += W if coefs else weight * W
    return contract2(pg, out) if result else None


def _pp1_kernel(pg, bC, X, sym12) -> np.ndarray:
    """P adjoint in variable 1 only:

        out[I1, J2] = sum_{J1 strictly inside I1} sum_{I2 strictly containing J2}
                      |I1|**(-1) |I2|**(-1) a[J1, J2] b[I1, I2] X[J1, I2]

    (all signatures of J1 and I2). For each level pair li < lj the b rows of
    each cube's ancestor at li meet the X rows of the cube, an ancestor scan
    runs along variable 2, and the a-weighted result is summed into the
    ancestor. Trailing passive axes of ``X`` ride along (``bC``, ``sym12``
    carry unit ones or the same trial axes).
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
