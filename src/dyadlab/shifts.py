"""Dyadic shift operators, multiplication commutators, exact operator norms.

A shift of parameters (i, j) moves Haar coefficients from cubes I at depth i
below K to cubes J at depth j below K, one block per K, with entries bounded
by |I|**(1/2) |J|**(1/2) / |K|. Blocks are stored per K-level as dense arrays
over (K, I-slot, I-signature, J-slot, J-signature); application runs in
coefficient space (transform in, per-level contractions, transform out).
A noncancellative shift pairs each Haar row of a cube with the cube's row in
the tail of the extended layout (:func:`~dyadlab.haar.extend`/``contract``).

Each K determines its own block, so after an additional per-block Frobenius
normalization every cancellative shift is an exact L2 contraction.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class ShiftOperator:
    """Dyadic shift S^(i,j); cancellative, or a symbol-driven paraproduct.

    Cancellative: ``blocks[kappa]`` has shape
    (n_cubes(kappa), 2**(d*i), n_sig, 2**(d*j), n_sig).

    Noncancellative (i = j = 0 only): built from a symbol ``a`` of dyadic BMO
    norm <= 1 via a_I = <a, h_I> |I|**(-1/2). Orientation ``analysis`` pairs
    the input against noncancellative Haars (f -> sum a_I <f,h_I^1> h_I);
    ``synthesis`` is its adjoint.
    """

    grid: GridSpec
    i: int
    j: int
    kind: str
    blocks: tuple = None
    symbol: DyadicFunction = None
    orientation: str = None
    meta: dict = field(default_factory=dict)
    _acoef: np.ndarray = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind == CANCELLATIVE:
            if self.blocks is None:
                raise ValueError("cancellative shift needs coefficient blocks")
        elif self.kind == NONCANCELLATIVE:
            if self.i != 0 or self.j != 0:
                raise WrongKindError("noncancellative shifts require i = j = 0")
            if self.orientation not in (ANALYSIS, SYNTHESIS):
                raise WrongKindError(f"bad orientation {self.orientation}")
            if self.symbol is None or self.symbol.grid != self.grid:
                raise GridMismatchError("symbol must live on the operator grid")
            g = self.grid
            # a_I along the cube axis, (n_cubes_total, n_sig)
            acoef = g.cube_block(forward_stacked(g, self.symbol.samples))
            acoef *= np.sqrt(grid_index(g).cube_weight)[:, None]
            acoef.setflags(write=False)
            object.__setattr__(self, "_acoef", acoef)
        else:
            raise WrongKindError(f"unknown shift kind {self.kind}")

    # -- construction helpers ---------------------------------------------

    @property
    def cancellative(self) -> bool:
        return self.kind == CANCELLATIVE

    def symbol_coefficients(self) -> tuple:
        """Per-level arrays a_I = <a,h_I^sig> |I|**(-1/2), shape (n_cubes, n_sig);
        computed once, when the shift is built, and read-only."""
        return tuple(self._acoef[self.grid.cube_range(lvl)] for lvl in range(self.grid.N))

    # -- application -------------------------------------------------------

    def apply_stacked(self, x: np.ndarray) -> np.ndarray:
        """Apply to a stacked coefficient array (n_samples, *passive)."""
        g = self.grid
        out = np.zeros_like(x)
        if self.cancellative:
            idx = grid_index(g)
            for kappa, block in enumerate(self.blocks):
                if block is None:
                    continue
                gi = idx.desc_groups(kappa, self.i)
                gj = idx.desc_groups(kappa, self.j)
                fin = g.level_block(x, kappa + self.i)[gi]
                res = np.einsum("kabcd,kab...->kcd...", block, fin)
                g.level_block(out, kappa + self.j)[gj] += res
        else:
            # a cube's rows pair with its row in the tail of the extended layout
            a = self._acoef.reshape(self._acoef.shape + (1,) * (x.ndim - 1))
            if self.orientation == ANALYSIS:
                g.cube_block(out)[...] += a * extend(g, x)[g.n_samples:, None]
            else:
                tail = (a * g.cube_block(x)).sum(axis=1)
                out = contract(g, np.concatenate([out, tail]))
        return out

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
            blocks = tuple(None if b is None else
                           np.ascontiguousarray(b.transpose(0, 3, 4, 1, 2))
                           for b in self.blocks)
            return ShiftOperator(self.grid, self.j, self.i, CANCELLATIVE,
                                 blocks=blocks, meta=dict(self.meta))
        flip = SYNTHESIS if self.orientation == ANALYSIS else ANALYSIS
        return ShiftOperator(self.grid, 0, 0, NONCANCELLATIVE, symbol=self.symbol,
                             orientation=flip, meta=dict(self.meta))

    def coefficient_count(self) -> int:
        if not self.cancellative:
            return self._acoef.size - 1
        return sum(0 if b is None else b.size for b in self.blocks)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        g = self.grid
        obj = {"grid": {"d": g.d, "N": g.N}, "i": self.i, "j": self.j, "kind": self.kind}
        if g.omega is not None:
            obj["grid"]["omega"] = [list(level) for level in g.omega]
        if self.cancellative:
            idx = grid_index(g)
            entries = []
            for kappa, block in enumerate(self.blocks):
                if block is None:
                    continue
                gi = idx.desc_groups(kappa, self.i)
                gj = idx.desc_groups(kappa, self.j)
                nz = np.argwhere(block != 0.0)
                for (kk, a_slot, asig, b_slot, bsig) in nz:
                    entries.append({
                        "K": {"level": kappa, "pos": list(g.pos_from_flat(int(kk), kappa))},
                        "I": {"level": kappa + self.i,
                              "pos": list(g.pos_from_flat(int(gi[kk, a_slot]), kappa + self.i)),
                              "sig": list(g.int_sig(int(asig)))},
                        "J": {"level": kappa + self.j,
                              "pos": list(g.pos_from_flat(int(gj[kk, b_slot]), kappa + self.j)),
                              "sig": list(g.int_sig(int(bsig)))},
                        "a": float(block[kk, a_slot, asig, b_slot, bsig]),
                    })
            obj["entries"] = entries
        else:
            obj["orientation"] = self.orientation
            obj["symbol"] = json.loads(self.symbol.to_json())
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "ShiftOperator":
        obj = json.loads(text)
        gspec = obj["grid"]
        omega = tuple(tuple(l) for l in gspec["omega"]) if "omega" in gspec else None
        grid = GridSpec(int(gspec["d"]), int(gspec["N"]), omega)
        i, j = int(obj["i"]), int(obj["j"])
        if obj["kind"] == NONCANCELLATIVE:
            symbol = DyadicFunction.from_json(json.dumps(obj["symbol"]))
            return cls(grid, i, j, NONCANCELLATIVE, symbol=symbol,
                       orientation=obj["orientation"])
        blocks = _empty_blocks(grid, i, j)
        idx = grid_index(grid)
        for n, e in enumerate(obj["entries"]):
            kappa = int(e["K"]["level"])
            if not 0 <= kappa < len(blocks):
                raise ValueError(f"entry {n}: K level {kappa} outside 0..{len(blocks) - 1}")
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
                cubes.append(grid.flat_pos(cube.pos, level))
            kk, fi, fj = cubes
            a_slot = np.flatnonzero(idx.desc_groups(kappa, i)[kk] == fi)
            b_slot = np.flatnonzero(idx.desc_groups(kappa, j)[kk] == fj)
            if a_slot.size == 0 or b_slot.size == 0:
                raise ValueError(f"entry {n}: I and J must lie inside K")
            blocks[kappa][kk, a_slot[0], grid.sig_int(e["I"]["sig"]),
                          b_slot[0], grid.sig_int(e["J"]["sig"])] = float(e["a"])
        return cls(grid, i, j, CANCELLATIVE,
                   blocks=tuple(b for b in blocks))


def _empty_blocks(grid: GridSpec, i: int, j: int) -> list:
    kmax = max_k_level(grid, i, j)
    if kmax < 0:
        raise DepthError(f"shift parameters ({i},{j}) too deep for N={grid.N}")
    out = []
    for kappa in range(kmax + 1):
        out.append(np.zeros((grid.n_cubes(kappa), 1 << (grid.d * i), grid.n_sig,
                             1 << (grid.d * j), grid.n_sig)))
    return out


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
    blocks = _empty_blocks(grid, i, j)
    bound = 2.0 ** (-grid.d * (i + j) / 2.0)
    for kappa, block in enumerate(blocks):
        draw = rng.uniform(-bound, bound, size=block.shape)
        fro = np.sqrt((draw ** 2).sum(axis=(1, 2, 3, 4), keepdims=True))
        draw /= np.maximum(fro, 1.0)
        block[...] = draw
    return ShiftOperator(grid, i, j, CANCELLATIVE, blocks=tuple(blocks))


def expected_coefficient_count(grid: GridSpec, i: int, j: int) -> int:
    """Entry count of a fully populated cancellative shift."""
    kmax = max_k_level(grid, i, j)
    per_k = (1 << (grid.d * i)) * grid.n_sig * (1 << (grid.d * j)) * grid.n_sig
    return sum(grid.n_cubes(kappa) * per_k for kappa in range(kmax + 1))


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


def multiplication_commutator(b: DyadicFunction, S: ShiftOperator,
                              f: DyadicFunction) -> DyadicFunction:
    """[M_b, S] f = b * (S f) - S(b * f); products exact on samples."""
    if b.grid != f.grid:
        raise GridMismatchError("b and f live on different grids")
    return DyadicFunction(b.grid, multiplication_commutator_stacked(b, S, f.samples))


def multiplication_commutator_stacked(b: DyadicFunction, S: ShiftOperator,
                                      samples: np.ndarray) -> np.ndarray:
    """[M_b, S] applied to every column of ``samples`` (n_samples, *passive).

    Column t of the result is ``multiplication_commutator(b, S, f_t)`` for the
    function f_t sampled by column t.
    """
    if b.grid != S.grid:
        raise GridMismatchError("b and the shift live on different grids")
    bcol = b.samples.reshape(b.samples.shape + (1,) * (samples.ndim - 1))
    return bcol * S.apply_samples(samples) - S.apply_samples(bcol * samples)
