"""Dyadic shift operators, multiplication commutators, exact operator norms.

A shift of parameters (i, j) moves Haar coefficients from cubes I at depth i
below K to cubes J at depth j below K, one block per K, with entries bounded
by |I|**(1/2) |J|**(1/2) / |K|. The blocks are one dense array over
(K, I-slot, I-signature, J-slot, J-signature), K running along the cube axis
(:mod:`dyadlab.grids`) over the cubes of levels 0..kmax; application runs in
coefficient space (transform in, one contraction, transform out).
A noncancellative shift is the sum over signatures s of the grid's B_0
atoms (``paraproducts._atom_group``: "tail" in analysis, "diagonal" in
synthesis) that pair the rows of signature s with the noncancellative rows
of the extended layout (:func:`~dyadlab.haar.extend`/``contract``).

Each K determines its own block, so after an additional per-block Frobenius
normalization every cancellative shift is an exact L2 contraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .grids import (DepthError, DyadicCube, GridMismatchError, GridSpec,
                    InvalidIndexError, WrongKindError, grid_index)
from .haar import (DyadicFunction, _along, contract, extend, forward_stacked,
                   inverse_stacked)
from .paraproducts import _atom_group, bk_stacked, symbol_stacked

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
    if min(i, j) < 0:
        raise DepthError(f"shift parameters ({i},{j}) must be nonnegative")
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
    the input against noncancellative Haars (f -> sum a_I <f,h_I^1> h_I), the
    sum over signatures s of B_0(a; s, 1, s); ``synthesis`` is its adjoint,
    the sum of B_0(a; s, s, 1). Every check of a valid shift is made here,
    the symbol's BMO norm <= 1 + 1e-9 included (``ValueError``).

    Equality compares grid, i, j, kind, orientation and, value by value, the
    blocks or symbol samples.
    """

    grid: GridSpec
    i: int
    j: int
    kind: str
    blocks: np.ndarray = None
    symbol: DyadicFunction = None
    orientation: str = None
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
            if self.symbol is None or self.symbol.space != self.grid:
                raise GridMismatchError("symbol must live on the operator grid")
            sym = symbol_stacked(self.symbol)
            sym.setflags(write=False)
            from .norms import _bmo_stacked
            bmo = float(_bmo_stacked(self.grid, sym))
            if bmo > 1.0 + 1e-9:
                raise ValueError(f"symbol BMO norm {bmo} exceeds 1")
            object.__setattr__(self, "_sym", sym)
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

    def stacked_symbol(self) -> np.ndarray:
        """``paraproducts.symbol_stacked(self.symbol)``, the coefficients
        that the grid's B_0 atoms read; computed once, when the shift is
        built, and read-only."""
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
        # the grid's B_0 atoms; only analysis reads the noncancellative rows
        analysis = self.orientation == ANALYSIS
        if analysis:
            x = extend(g, x)
        first, *rest = _atom_group(g, "tail" if analysis else "diagonal")
        total = bk_stacked(first, self._sym, x)
        for B in rest:
            total += bk_stacked(B, self._sym, x)
        # a copy of the stacked rows; + 0.0 gives a lone atom's -0.0 the sign of a sum
        return total[:g.n_samples] + 0.0 if analysis else contract(g, total)

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
            return ShiftOperator(self.grid, self.j, self.i, CANCELLATIVE, blocks=blocks)
        flip = SYNTHESIS if self.orientation == ANALYSIS else ANALYSIS
        return ShiftOperator(self.grid, 0, 0, NONCANCELLATIVE, symbol=self.symbol,
                             orientation=flip)

    def coefficient_count(self) -> int:
        """Stored blocks entries, or the n_samples - 1 Haar coefficients of
        the symbol."""
        return self.blocks.size if self.cancellative else self.grid.n_samples - 1

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
        i, j, kind = int(obj["i"]), int(obj["j"]), obj["kind"]
        parts = {}
        if kind == NONCANCELLATIVE:
            parts = {"symbol": DyadicFunction.from_json(json.dumps(obj["symbol"])),
                     "orientation": obj["orientation"]}
        elif kind == CANCELLATIVE:
            parts = {"blocks": _blocks_from_entries(grid, i, j, obj["entries"])}
        return cls(grid, i, j, kind, **parts)


def _blocks_from_entries(grid: GridSpec, i: int, j: int, entries: list) -> np.ndarray:
    """The blocks of a cancellative (i, j) shift from its JSON entries. An
    entry that lacks a field, lies off its K, holds a non-finite ``a`` or
    fills a slot a former entry filled raises ``ValueError`` naming it."""
    blocks = np.zeros(blocks_shape(grid, i, j))
    kmax = max_k_level(grid, i, j)
    idx = grid_index(grid)
    filled = {}
    for n, e in enumerate(entries):
        try:
            kappa, a = int(e["K"]["level"]), float(e["a"])
            sigs = grid.sig_int(e["I"]["sig"]), grid.sig_int(e["J"]["sig"])
            places = [(key, depth, int(e[key].get("level", kappa + depth)), e[key]["pos"])
                      for key, depth in (("K", 0), ("I", i), ("J", j))]
        except KeyError as exc:
            raise ValueError(f"entry {n}: missing field {exc}") from None
        if not 0 <= kappa <= kmax:
            raise ValueError(f"entry {n}: K level {kappa} outside 0..{kmax}")
        if not math.isfinite(a):
            raise ValueError(f"entry {n}: a = {a} is not finite")
        cubes = []
        for key, depth, level, pos in places:
            if level != kappa + depth:
                raise ValueError(f"entry {n}: {key} level {level} is not {kappa + depth}")
            cube = DyadicCube(level, pos)
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
        slot = (kk, a_slot[0], sigs[0], b_slot[0], sigs[1])
        if slot in filled:
            raise ValueError(f"entry {n}: fills the slot of entry {filled[slot]}")
        filled[slot] = n
        blocks[slot] = a
    return blocks


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
    if kind == CANCELLATIVE:
        bound = 2.0 ** (-grid.d * (i + j) / 2.0)
        blocks = rng.uniform(-bound, bound, size=blocks_shape(grid, i, j))
        blocks /= np.maximum(np.sqrt((blocks ** 2).sum(axis=(1, 2, 3, 4), keepdims=True)), 1.0)
        return ShiftOperator(grid, i, j, kind, blocks=blocks)
    # the constructor checks every other kind
    from .norms import dyadic_bmo_norm
    raw = DyadicFunction(grid, rng.standard_normal(grid.n_samples))
    return ShiftOperator(grid, i, j, kind, symbol=raw * (1.0 / dyadic_bmo_norm(raw)),
                         orientation=orientation)


def expected_coefficient_count(grid: GridSpec, i: int, j: int) -> int:
    """Entry count of a fully populated cancellative shift."""
    return math.prod(blocks_shape(grid, i, j))


def noncancellative_shift(grid: GridSpec, symbol: DyadicFunction,
                          orientation: str = ANALYSIS) -> ShiftOperator:
    """Paraproduct shift with an explicit symbol (dyadic BMO norm <= 1)."""
    return ShiftOperator(grid, 0, 0, NONCANCELLATIVE, symbol=symbol, orientation=orientation)


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
    of axis ``case_axis`` (after ``axis``) of the coefficient stack ``y``.
    The result of a sequence of one shift is a view of that shift's result,
    not a copy."""
    at = (slice(None),) * case_axis
    cols = [_along(axis, S.apply_stacked, y[at + (c,)]) for c, S in enumerate(shifts)]
    if len(cols) == 1:
        return cols[0][at + (None,)]
    return np.stack(cols, case_axis)


def multiplication_commutator(b: DyadicFunction, S: ShiftOperator,
                              f: DyadicFunction) -> DyadicFunction:
    """[M_b, S] f = b * (S f) - S(b * f); products exact on samples."""
    b._check(f)
    return DyadicFunction(b.grid, commutator_stacked(b, (S,), f.samples))


def commutator_stacked(b, shifts, samples: np.ndarray) -> np.ndarray:
    """The commutator [...[[M_b, S_1], S_2], ..., S_t] of t >= 1 variables,
    S_v acting along variable v, on every column of ``samples``.

    ``b`` is one function, a DyadicFunction or a ProductFunction of t
    variables, and ``shifts`` one ShiftOperator per variable, on ``samples``
    (*shape, *passive): the broadcast case of a block of one. Or ``b`` is a
    samples stack (*shape, C) and ``shifts`` holds per variable a sequence
    of C shifts, symbol c and shifts c acting on column c of the case axis
    of ``samples`` (*shape, C, *trials). A case axis of length 1 is one
    input that every case shares: it is transformed once along each
    variable and its coefficients go to every case. Column c is then case
    c's commutator alone, bit for bit.

    C_t follows the recursion C_v y = C_{v-1}(S_v y) - S_v(C_{v-1} y), with
    C_0 = M_b. Each level stacks its two inputs S_v y and y on a key axis,
    so a block applies S_v twice per case at every level v >= 2 (one
    transform each way per application), and S_1 once per case, to y and
    b y side by side.
    """
    if not isinstance(b, np.ndarray):
        grids = b.space.grids
        if len(shifts) != len(grids) or not all(isinstance(S, ShiftOperator) for S in shifts):
            raise ValueError(f"one function b of {len(grids)} variable(s) takes one shift "
                             f"per variable")
        if any(S.grid != g for S, g in zip(shifts, grids)):
            raise GridMismatchError("a shift lives off the grid of its variable of b")
        case = (slice(None),) * len(grids) + (None,)
        return commutator_stacked(b.samples[..., None], [(S,) for S in shifts],
                                  samples[case])[case[:-1] + (0,)]
    shifts = [tuple(Ss) for Ss in shifts]
    t, C = len(shifts), len(shifts[0]) if shifts else 0
    if not C or any(len(Ss) != C for Ss in shifts) or b.shape[t:] != (C,) \
            or samples.shape[t:t + 1] not in ((1,), (C,)):
        raise ValueError(f"shifts of {[len(Ss) for Ss in shifts]} cases per variable for "
                         f"a b stack of shape {b.shape} and samples of shape {samples.shape}")
    grids = [Ss[0].grid for Ss in shifts]
    if any(S.grid != g for Ss, g in zip(shifts, grids) for S in Ss):
        raise GridMismatchError("the shifts of one variable live on different grids")
    shape = tuple(g.n_samples for g in grids)
    if b.shape[:t] != shape or samples.shape[:t] != shape:
        raise GridMismatchError(f"b stack of shape {b.shape} and samples of shape "
                                f"{samples.shape} off the shifts' grids")

    def times_b(y):
        return b.reshape(b.shape + (1,) * (y.ndim - t - 1)) * y

    def apply(v, parts):
        """S_v of case c along variable v of case column c of every part, the
        parts' keys side by side on the last axis. Only the last part may
        hold one shared column: it is transformed on its own and broadcast.
        The list ``parts`` is emptied, each group as it is transformed, so
        the caller's list holds no input past its transform."""
        n = len(parts) - (parts[-1].shape[t] != C)
        if n > 1:
            parts[:n] = [np.concatenate(parts[:n], axis=-1)]
        x = []
        while parts:
            y = _along(v, partial(forward_stacked, grids[v]), parts.pop(0))
            x.append(np.broadcast_to(y, y.shape[:t] + (C,) + y.shape[t + 1:]))
        x = x[0] if len(x) == 1 else np.concatenate(x, axis=-1)
        return _along(v, partial(inverse_stacked, grids[v]), _each_case(shifts[v], x, t, v))

    # down, the last variable first: each variable v >= 2 puts S_v y before
    # y on the key axis; then C_1 of every key, and up, variable 2 first:
    # each takes C_{v-1}(S_v y) - S_v(C_{v-1} y) from the halves of its keys
    parts = [samples[..., None]]
    for v in reversed(range(1, t)):
        parts.insert(0, apply(v, list(parts)))
    parts = [times_b(y) for y in parts] + parts
    z = apply(0, parts)
    k = z.shape[-1] // 2
    z = times_b(z[..., k:]) - z[..., :k]
    for v in range(1, t):
        k = z.shape[-1] // 2
        z = z[..., :k] - apply(v, [z[..., k:]])
    return z[..., 0]
