"""Dyadic shift operators, multiplication commutators, exact operator norms.

A shift of parameters (i, j) moves Haar coefficients from cubes I at depth i
below K to cubes J at depth j below K, one block per K, with entries bounded
by |I|**(1/2) |J|**(1/2) / |K|. The blocks are one dense array over
(K, I-slot, I-signature, J-slot, J-signature), K running along the cube axis
(:mod:`dyadlab.grids`) over the cubes of levels 0..kmax; application runs in
coefficient space (transform in, one contraction, transform out).
A noncancellative shift pairs each Haar row of a cube with the cube's row in
the tail of the extended layout (:func:`~dyadlab.haar.extend`/``contract``).

Each K determines its own block, so after an additional per-block Frobenius
normalization every cancellative shift is an exact L2 contraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (DepthError, DyadicCube, GridMismatchError, GridSpec,
                    InvalidIndexError, WrongKindError, grid_index)
from .haar import (DyadicFunction, contract, extend, forward_stacked,
                   inverse_stacked)

CANCELLATIVE = "cancellative"
NONCANCELLATIVE = "noncancellative"
ANALYSIS = "analysis"
SYNTHESIS = "synthesis"


def max_k_level(grid: GridSpec, i: int, j: int) -> int:
    """Deepest admissible K-level: both Haar slots must stay cancellative."""
    return grid.N - 1 - max(i, j)


def blocks_shape(grid: GridSpec, i: int, j: int) -> tuple:
    """Blocks shape of a cancellative (i, j) shift: (K on the cube axis over
    levels 0..kmax, I-slot, I-signature, J-slot, J-signature)."""
    kmax = max_k_level(grid, i, j)
    if kmax < 0:
        raise DepthError(f"shift parameters ({i},{j}) too deep for N={grid.N}")
    return (grid.cube_range(kmax).stop, 1 << (grid.d * i), grid.n_sig,
            1 << (grid.d * j), grid.n_sig)


def _contract(blocks: np.ndarray, fin: np.ndarray, out: np.ndarray) -> None:
    """out[K, b, t, ...] = sum over (a, s) of blocks[K, a, s, b, t] fin[K, a, s, ...],
    adding the (a, s) in turn, so a column gets the same bits alone and in
    any stack. ``einsum`` does so wherever a block has more than one output
    entry; where it has one (d = 1, j = 0) it sums a lone column as a dot
    product in another order, so there the sum is written out."""
    if math.prod(blocks.shape[3:]) > 1:
        np.einsum("kabcd,kab...->kcd...", blocks, fin, out=out)
        return
    w = blocks.reshape((len(blocks), -1) + (1,) * (fin.ndim - 3))
    fin = fin.reshape(w.shape[:2] + fin.shape[3:])
    acc = out.reshape(fin[:, 0].shape)
    np.multiply(w[:, 0], fin[:, 0], out=acc)
    for a in range(1, w.shape[1]):
        acc += w[:, a] * fin[:, a]


@dataclass(frozen=True, eq=False)
class ShiftOperator:
    """Dyadic shift S^(i,j); cancellative, or a symbol-driven paraproduct.

    Cancellative: ``blocks`` is one array of shape :func:`blocks_shape`;
    entry [K, a, s, b, t] couples signature s of the a-th I-cube of K to
    signature t of its b-th J-cube (``grid_index(grid).cube_descendants``).

    Noncancellative (i = j = 0 only): built from a symbol ``a`` of dyadic BMO
    norm <= 1 via a_I = <a, h_I> |I|**(-1/2). Orientation ``analysis`` pairs
    the input against noncancellative Haars (f -> sum a_I <f,h_I^1> h_I);
    ``synthesis`` is its adjoint.

    Equality compares grid, i, j, kind, orientation and, value by value, the
    blocks or symbol samples; ``meta`` is left out.
    """

    grid: GridSpec
    i: int
    j: int
    kind: str
    blocks: np.ndarray = None
    symbol: DyadicFunction = None
    orientation: str = None
    meta: dict = field(default_factory=dict)
    _acoef: np.ndarray = field(init=False, compare=False, repr=False, default=None)
    _sym: np.ndarray = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind == CANCELLATIVE:
            shape = blocks_shape(self.grid, self.i, self.j)
            got = getattr(self.blocks, "shape", type(self.blocks).__name__)
            if got != shape:
                raise ValueError(f"cancellative blocks need one array of shape {shape}, got {got}")
        elif self.kind == NONCANCELLATIVE:
            if self.i != 0 or self.j != 0:
                raise WrongKindError("noncancellative shifts require i = j = 0")
            if self.orientation not in (ANALYSIS, SYNTHESIS):
                raise WrongKindError(f"bad orientation {self.orientation}")
            if self.symbol is None or self.symbol.grid != self.grid:
                raise GridMismatchError("symbol must live on the operator grid")
            g = self.grid
            sym = forward_stacked(g, self.symbol.samples)
            sym[0] = 0.0
            # a_I along the cube axis, (n_cubes_total, n_sig)
            acoef = g.cube_block(sym) * np.sqrt(grid_index(g).cube_weight)[:, None]
            for arr in (sym, acoef):
                arr.setflags(write=False)
            object.__setattr__(self, "_sym", sym)
            object.__setattr__(self, "_acoef", acoef)
        else:
            raise WrongKindError(f"unknown shift kind {self.kind}")

    def __eq__(self, other):
        if not isinstance(other, ShiftOperator):
            return NotImplemented
        if (self.grid, self.i, self.j, self.kind, self.orientation) != \
                (other.grid, other.i, other.j, other.kind, other.orientation):
            return False
        if self.cancellative:
            return np.array_equal(self.blocks, other.blocks)
        return np.array_equal(self.symbol.samples, other.symbol.samples)

    def __hash__(self):
        # coefficients are left out: equal shifts still hash equal
        return hash((self.grid, self.i, self.j, self.kind, self.orientation))

    # -- construction helpers ---------------------------------------------

    @property
    def cancellative(self) -> bool:
        return self.kind == CANCELLATIVE

    def symbol_coefficients(self) -> np.ndarray:
        """a_I = <a,h_I^sig> |I|**(-1/2) along the cube axis, (n_cubes_total,
        n_sig); computed once, when the shift is built, and read-only."""
        return self._acoef

    def stacked_symbol(self) -> np.ndarray:
        """The symbol's stacked Haar coefficients with the mean row zeroed
        (``paraproducts.symbol_stacked(self.symbol)``); computed once, when
        the shift is built, and read-only."""
        return self._sym

    # -- application -------------------------------------------------------

    def apply_stacked(self, x: np.ndarray) -> np.ndarray:
        """Apply to a stacked coefficient array (n_samples, *passive); each
        column gets the bits it has alone (:func:`_contract`)."""
        g = self.grid
        if self.cancellative:
            # one gather of the I-cubes of every K; the J-cubes' rows take the
            # contraction through their inverse, every other row the zero row
            idx, n_k = grid_index(g), len(self.blocks)
            fin = g.cube_block(x).take(idx.cube_descendants(self.i)[:n_k], axis=0)
            shape = (n_k,) + self.blocks.shape[3:] + x.shape[1:]
            res = np.empty((math.prod(shape[:3]) + 1,) + x.shape[1:])
            res[-1] = 0.0
            _contract(self.blocks, fin, res[:-1].reshape(shape))
            return res.take(idx.descendant_inverse(self.j, n_k), axis=0)
        # a cube's rows pair with its row in the tail of the extended layout
        out = np.zeros_like(x)
        a = self._acoef.reshape(self._acoef.shape + (1,) * (x.ndim - 1))
        if self.orientation == ANALYSIS:
            g.cube_block(out)[...] += a * extend(g, x)[g.n_samples:, None]
            return out
        tail = (a * g.cube_block(x)).sum(axis=1)
        return contract(g, np.concatenate([out, tail]))

    def apply_samples(self, samples: np.ndarray) -> np.ndarray:
        """Apply to sample columns (n_samples, *passive): transform, apply, invert."""
        g = self.grid
        return inverse_stacked(g, self.apply_stacked(forward_stacked(g, samples)))

    def apply(self, f: DyadicFunction) -> DyadicFunction:
        if f.grid != self.grid:
            raise GridMismatchError("function grid does not match operator grid")
        return DyadicFunction(self.grid, self.apply_samples(f.samples))

    def adjoint(self) -> "ShiftOperator":
        if self.cancellative:
            blocks = np.ascontiguousarray(self.blocks.transpose(0, 3, 4, 1, 2))
            return ShiftOperator(self.grid, self.j, self.i, CANCELLATIVE,
                                 blocks=blocks, meta=dict(self.meta))
        flip = SYNTHESIS if self.orientation == ANALYSIS else ANALYSIS
        return ShiftOperator(self.grid, 0, 0, NONCANCELLATIVE, symbol=self.symbol,
                             orientation=flip, meta=dict(self.meta))

    def coefficient_count(self) -> int:
        return self.blocks.size if self.cancellative else self._acoef.size - 1

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        g = self.grid
        obj = {"grid": {"d": g.d, "N": g.N}, "i": self.i, "j": self.j, "kind": self.kind}
        if g.omega is not None:
            obj["grid"]["omega"] = g.omega
        if self.cancellative:
            idx = grid_index(g)
            gi, gj = idx.cube_descendants(self.i), idx.cube_descendants(self.j)

            def cube(c, sig=None):
                K = g.cube_at(int(c))
                out = {"level": K.level, "pos": list(K.pos)}
                return out if sig is None else {**out, "sig": list(g.int_sig(int(sig)))}
            obj["entries"] = [{"K": cube(kk), "I": cube(gi[kk, a_slot], asig),
                               "J": cube(gj[kk, b_slot], bsig),
                               "a": float(self.blocks[kk, a_slot, asig, b_slot, bsig])}
                              for kk, a_slot, asig, b_slot, bsig in np.argwhere(self.blocks)]
        else:
            obj["orientation"] = self.orientation
            obj["symbol"] = json.loads(self.symbol.to_json())
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "ShiftOperator":
        obj = json.loads(text)
        gspec = obj["grid"]
        grid = GridSpec(int(gspec["d"]), int(gspec["N"]), gspec.get("omega"))
        i, j = int(obj["i"]), int(obj["j"])
        if obj["kind"] == NONCANCELLATIVE:
            symbol = DyadicFunction.from_json(json.dumps(obj["symbol"]))
            return cls(grid, i, j, NONCANCELLATIVE, symbol=symbol,
                       orientation=obj["orientation"])
        blocks = np.zeros(blocks_shape(grid, i, j))
        kmax = max_k_level(grid, i, j)
        idx = grid_index(grid)
        for n, e in enumerate(obj["entries"]):
            kappa = int(e["K"]["level"])
            if not 0 <= kappa <= kmax:
                raise ValueError(f"entry {n}: K level {kappa} outside 0..{kmax}")
            cubes = []
            for key, depth in (("K", 0), ("I", i), ("J", j)):
                level = int(e[key].get("level", kappa + depth))
                if level != kappa + depth:
                    raise ValueError(f"entry {n}: {key} level {level} is not {kappa + depth}")
                cube = DyadicCube(level, e[key]["pos"])
                try:
                    grid.validate_cube(cube)
                except InvalidIndexError as exc:
                    raise ValueError(f"entry {n}: {key}: {exc}") from None
                cubes.append(grid.cube_range(level).start + grid.flat_pos(cube.pos, level))
            kk, ci, cj = cubes
            a_slot = np.flatnonzero(idx.cube_descendants(i)[kk] == ci)
            b_slot = np.flatnonzero(idx.cube_descendants(j)[kk] == cj)
            if a_slot.size == 0 or b_slot.size == 0:
                raise ValueError(f"entry {n}: I and J must lie inside K")
            blocks[kk, a_slot[0], grid.sig_int(e["I"]["sig"]),
                   b_slot[0], grid.sig_int(e["J"]["sig"])] = float(e["a"])
        return cls(grid, i, j, CANCELLATIVE, blocks=blocks)


def random_shift(grid: GridSpec, i: int, j: int, rng_seed, kind: str = CANCELLATIVE,
                 orientation: str = ANALYSIS) -> ShiftOperator:
    """Random admissible shift; deterministic given the seed.

    Cancellative entries are uniform in [-bound, bound] with
    bound = |I|**(1/2) |J|**(1/2) / |K|, then each K-block is divided by its
    Frobenius norm when that norm exceeds 1 (in one dimension it never does),
    so the operator is always an L2 contraction. Noncancellative shifts draw
    a Gaussian symbol rescaled to dyadic BMO norm exactly 1.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else \
        np.random.default_rng(rng_seed)
    if kind == NONCANCELLATIVE:
        if i != 0 or j != 0:
            raise WrongKindError("noncancellative shifts require i = j = 0")
        from .norms import dyadic_bmo_norm
        raw = DyadicFunction(grid, rng.standard_normal(grid.n_samples))
        b = dyadic_bmo_norm(raw)
        symbol = raw * (1.0 / b)
        return ShiftOperator(grid, 0, 0, NONCANCELLATIVE, symbol=symbol,
                             orientation=orientation,
                             meta={"symbol_scale": 1.0 / b})
    bound = 2.0 ** (-grid.d * (i + j) / 2.0)
    blocks = rng.uniform(-bound, bound, size=blocks_shape(grid, i, j))
    blocks /= np.maximum(np.sqrt((blocks ** 2).sum(axis=(1, 2, 3, 4), keepdims=True)), 1.0)
    return ShiftOperator(grid, i, j, CANCELLATIVE, blocks=blocks)


def expected_coefficient_count(grid: GridSpec, i: int, j: int) -> int:
    """Entry count of a fully populated cancellative shift."""
    return math.prod(blocks_shape(grid, i, j))


def noncancellative_shift(grid: GridSpec, symbol: DyadicFunction,
                          orientation: str = ANALYSIS) -> ShiftOperator:
    """Paraproduct shift with an explicit symbol (dyadic BMO norm <= 1)."""
    from .norms import dyadic_bmo_norm
    b = dyadic_bmo_norm(symbol)
    if b > 1.0 + 1e-9:
        raise ValueError(f"symbol BMO norm {b} exceeds 1")
    return ShiftOperator(grid, 0, 0, NONCANCELLATIVE, symbol=symbol,
                         orientation=orientation)


# ---------------------------------------------------------------------------
# The sample-stack protocol: dense matrices, exact norms, commutators.


def dense_matrix(op) -> np.ndarray:
    """Sample-space matrix of any operator with ``grid`` and ``apply_samples``:
    its image of the identity stack, column k being the operator applied to
    the k-th point mass."""
    return op.apply_samples(np.eye(op.grid.n_samples))


def operator_norm(op) -> float:
    """Exact L2 -> L2 operator norm: the largest singular value of
    :func:`dense_matrix` (the cell volume cancels in the ratio)."""
    return float(np.linalg.norm(dense_matrix(op), 2))


@dataclass
class LinearOperatorHandle:
    """An operator on a fixed grid given by its action on sample stacks
    (n_samples, *passive), with an optional shortcut for its dense matrix."""

    grid: GridSpec
    apply_samples: callable
    matrix_fn: callable = None

    def matrix(self) -> np.ndarray:
        """Dense sample-space matrix: ``matrix_fn()`` or :func:`dense_matrix`."""
        if self.matrix_fn is not None:
            return self.matrix_fn()
        return dense_matrix(self)


def _each_case(shifts, y: np.ndarray, case_axis: int, axis: int = 0) -> np.ndarray:
    """Shift c of the sequence ``shifts`` applied along ``axis`` of column c
    of axis ``case_axis`` (after ``axis``) of the coefficient stack ``y``; a
    single ShiftOperator is applied to the whole stack. The result of a
    sequence of one shift is a view of that shift's result, not a copy."""
    def apply(S, a):
        return S.apply_stacked(a) if axis == 0 else \
            S.apply_stacked(a.swapaxes(0, axis)).swapaxes(0, axis)

    if isinstance(shifts, ShiftOperator):
        return apply(shifts, y)
    at = (slice(None),) * case_axis
    cols = [apply(S, y[at + (c,)]) for c, S in enumerate(shifts)]
    if len(cols) == 1:
        return cols[0][at + (None,)]
    return np.stack(cols, case_axis)


def multiplication_commutator(b: DyadicFunction, S: ShiftOperator,
                              f: DyadicFunction) -> DyadicFunction:
    """[M_b, S] f = b * (S f) - S(b * f); products exact on samples."""
    if b.grid != f.grid:
        raise GridMismatchError("b and f live on different grids")
    return DyadicFunction(b.grid, multiplication_commutator_stacked(b, S, f.samples))


def multiplication_commutator_stacked(b, S, samples: np.ndarray) -> np.ndarray:
    """[M_b, S] applied to every column of ``samples`` (n_samples, *passive).

    ``b`` is a DyadicFunction, multiplying every column, or a samples array
    whose shape leads that of ``samples``: an (n_samples, T) stack holds one
    symbol per column of axis 1, the trial axis. ``S`` is one ShiftOperator,
    applied to the whole stack, or a sequence of T shifts, shift t applied to
    column ``samples[:, t]``. Column t of the result is then
    ``multiplication_commutator(b_t, S_t, f_t)``, bit for bit.

    f and b f lie side by side on a passive axis: they share one transform
    in, one application of each shift and one transform out, and each column
    keeps the bits it has alone.
    """
    shifts = None if isinstance(S, ShiftOperator) else tuple(S)
    if shifts is None:
        g = S.grid
    else:
        if not shifts or samples.shape[1:2] != (len(shifts),):
            raise ValueError(f"{len(shifts)} shifts for samples of shape {samples.shape}")
        g = shifts[0].grid
        if any(s.grid != g for s in shifts):
            raise GridMismatchError("the shifts live on different grids")
    if isinstance(b, DyadicFunction):
        if b.grid != g:
            raise GridMismatchError("b and the shift live on different grids")
        b = b.samples
    elif b.shape != samples.shape[:b.ndim] or b.shape[0] != g.n_samples:
        raise ValueError(f"b stack of shape {b.shape} does not lead samples of "
                         f"shape {samples.shape} on {g.n_samples} cells")
    bcol = b.reshape(b.shape + (1,) * (samples.ndim - b.ndim))
    x = forward_stacked(g, np.stack([samples, bcol * samples], axis=1))
    y = inverse_stacked(g, _each_case(S if shifts is None else shifts, x, 2))
    return bcol * y[:, 0] - y[:, 1]
