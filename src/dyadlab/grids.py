"""Dyadic grids on the unit torus: cubes, Haar signatures, and index maps.

A grid of depth ``N`` in dimension ``d`` partitions the torus [0,1)^d into
2**(k*d) cubes at each level k = 0..N. Cancellative Haar functions live on
cubes at levels 0..N-1 (a cube needs children to oscillate on); the single
noncancellative root Haar is the constant function.

A shifted grid is the standard grid translated on the torus. It is given by
per-level offsets omega_j in {0,1}^d for j = 1..N (the input and serialized
form), which fix the translation ``shift = sum_j 2**(N-j) * omega_j`` in
finest cells per axis; omega -> shift is a bijection onto [0, 2**N)^d.
Labelling convention: on every grid, the level-k cube at position ``p``
covers the cells ``shift + p * 2**(N-k) + [0, 2**(N-k))`` per axis, mod
2**N. Ancestors, children and every index map below are therefore those of
the standard grid; only the map from cubes to sample cells reads ``shift``.

Per-cube values have one layout, the *cube axis*: the cubes of levels
0..N-1, level-major, level l at ``cube_range(l)``. Stacked coefficients hold
cube c's signature s at row 1 + c * n_sig + s (``cube_block``), and the tail
of the extended layout holds cube c at row n_samples + c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

#: Hard cap on the sample count of a single function.
MAX_SAMPLES = 1 << 24


class InvalidIndexError(ValueError):
    """Cube or Haar index outside the grid."""


class DepthError(ValueError):
    """Operation requires levels deeper than the grid provides."""


class GridSizeError(ValueError):
    """Grid holds more than MAX_SAMPLES samples."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class WrongKindError(ValueError):
    """Operator kind does not match the requested operation."""


def _normalize_omega(omega, d, N):
    if omega is None:
        return None
    om = tuple(tuple(int(x) for x in level) for level in omega)
    if len(om) != N:
        raise ValueError(f"omega needs exactly {N} per-level entries, got {len(om)}")
    for level in om:
        if len(level) != d or any(x not in (0, 1) for x in level):
            raise ValueError("omega entries must lie in {0,1}^d")
    if all(x == 0 for level in om for x in level):
        return None
    return om


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid of depth N on [0,1)^d; finest cells have side 2**-N.

    ``omega`` selects a shifted grid; ``shift`` is the translation it fixes,
    in finest cells per axis (all zero on the standard grid).
    """

    d: int
    N: int
    omega: tuple = None
    shift: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.N < 1:
            raise ValueError("depth must be >= 1")
        if (1 << (self.N * self.d)) > MAX_SAMPLES:
            raise GridSizeError(f"a grid of d={self.d}, N={self.N} holds 2**{self.N * self.d} "
                                f"samples, over the budget of {MAX_SAMPLES}")
        omega = _normalize_omega(self.omega, self.d, self.N)
        shift = [0] * self.d
        for j, level in enumerate(omega or (), start=1):
            for a, bit in enumerate(level):
                shift[a] += bit << (self.N - j)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "shift", tuple(shift))

    @property
    def grids(self) -> tuple:
        """The grid of each variable: this one alone (see ``ProductGrid.grids``)."""
        return (self,)

    @property
    def n_side(self) -> int:
        return 1 << self.N

    @property
    def n_samples(self) -> int:
        return 1 << (self.N * self.d)

    @property
    def n_sig(self) -> int:
        """Number of cancellative signatures per cube."""
        return (1 << self.d) - 1

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.N * self.d)

    def n_cubes(self, level: int) -> int:
        return 1 << (level * self.d)

    @property
    def n_cubes_total(self) -> int:
        """Cubes of levels 0..N-1: the length of the cube axis."""
        return (self.n_samples - 1) // self.n_sig

    def volume(self, level: int) -> float:
        return 2.0 ** (-level * self.d)

    # -- cube algebra -----------------------------------------------------

    def validate_cube(self, cube: "DyadicCube") -> None:
        if not (0 <= cube.level <= self.N):
            raise InvalidIndexError(f"cube level {cube.level} outside 0..{self.N}")
        if len(cube.pos) != self.d:
            raise InvalidIndexError("cube position has wrong dimension")
        n = 1 << cube.level
        if any(not (0 <= p < n) for p in cube.pos):
            raise InvalidIndexError(f"cube position {cube.pos} outside level {cube.level}")

    def ancestor(self, cube: "DyadicCube", k: int) -> "DyadicCube":
        """The k-th dyadic ancestor of ``cube`` in this grid."""
        self.validate_cube(cube)
        if k < 0 or k > cube.level:
            raise DepthError(f"ancestor depth {k} exceeds cube level {cube.level}")
        return DyadicCube(cube.level - k, tuple(p >> k for p in cube.pos))

    def children(self, cube: "DyadicCube") -> list["DyadicCube"]:
        self.validate_cube(cube)
        if cube.level >= self.N:
            raise DepthError("finest cubes have no children")
        out = []
        for bits in range(1 << self.d):
            side = [(bits >> (self.d - 1 - a)) & 1 for a in range(self.d)]
            pos = tuple(2 * p + s for p, s in zip(cube.pos, side))
            out.append(DyadicCube(cube.level + 1, pos))
        return out

    # -- signatures -------------------------------------------------------

    def sig_int(self, sig) -> int:
        if len(sig) != self.d or any(x not in (0, 1) for x in sig):
            raise InvalidIndexError(f"bad signature {sig}")
        e = 0
        for x in sig:
            e = (e << 1) | int(x)
        return e

    def int_sig(self, e: int) -> tuple:
        return tuple((e >> (self.d - 1 - a)) & 1 for a in range(self.d))

    @property
    def noncanc_int(self) -> int:
        return (1 << self.d) - 1

    # -- stacked coefficient layout ----------------------------------------
    # Layout: [mean, then the cube axis, each cube's n_sig signatures in turn].
    # Only cancellative signatures are stored; total size equals n_samples.

    def cube_range(self, level: int) -> slice:
        """Level ``level``'s slice of the cube axis; it starts at
        sum_{l < level} n_cubes(l) = (n_cubes(level) - 1) / n_sig."""
        start = (self.n_cubes(level) - 1) // self.n_sig
        return slice(start, start + self.n_cubes(level))

    def level_offset(self, level: int) -> int:
        """Start of ``level`` in the layout: 1 + cube_range(level).start * n_sig,
        which telescopes to n_cubes(level)."""
        return 1 << (level * self.d)

    def cube_block(self, stacked: np.ndarray) -> np.ndarray:
        """View of stacked rows 1..n_samples - 1 along the cube axis, shape
        (n_cubes_total, n_sig, *passive); rows past n_samples are left out."""
        shape = (self.n_cubes_total, self.n_sig) + stacked.shape[1:]
        return stacked[1:self.n_samples].reshape(shape)

    def level_block(self, stacked: np.ndarray, level: int) -> np.ndarray:
        """View of the level's coefficients, shape (n_cubes, n_sig, *passive)."""
        return self.cube_block(stacked)[self.cube_range(level)]

    def cube_at(self, c: int) -> "DyadicCube":
        """The cube at entry ``c`` of the cube axis: its level is the one whose
        block of the stacked layout holds row 1 + c * n_sig."""
        level = ((1 + c * self.n_sig).bit_length() - 1) // self.d
        return DyadicCube(level, self.pos_from_flat(c - self.cube_range(level).start, level))

    def flat_pos(self, pos, level: int) -> int:
        return int(np.ravel_multi_index(tuple(int(p) for p in pos), (1 << level,) * self.d))

    def pos_from_flat(self, flat: int, level: int) -> tuple:
        return tuple(int(x) for x in np.unravel_index(flat, (1 << level,) * self.d))

    def stacked_index(self, idx: "HaarIndex") -> int:
        """Position of a cancellative Haar coefficient in the stacked layout."""
        if not idx.cancellative:
            raise InvalidIndexError("stacked layout stores cancellative coefficients only")
        if idx.cube.level >= self.N:
            raise InvalidIndexError("cancellative indices require level < N")
        self.validate_cube(idx.cube)
        return (self.level_offset(idx.cube.level)
                + self.flat_pos(idx.cube.pos, idx.cube.level) * self.n_sig
                + self.sig_int(idx.sig))


@dataclass(frozen=True)
class DyadicCube:
    """A cube 2**-level * ([0,1)^d + pos) of the standard grid, translated by
    the grid's ``shift`` (see the module docstring for the labelling)."""

    level: int
    pos: tuple

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(int(p) for p in self.pos))


@dataclass(frozen=True)
class HaarIndex:
    """A cube together with a signature in {0,1}^d selecting one Haar function."""

    cube: DyadicCube
    sig: tuple

    def __post_init__(self):
        object.__setattr__(self, "sig", tuple(int(s) for s in self.sig))

    @property
    def cancellative(self) -> bool:
        return any(s == 0 for s in self.sig)


# ---------------------------------------------------------------------------
# Cached vectorized index maps.


def _memoized(method):
    """A method of :class:`_GridIndex` whose value is built once per grid
    and arguments, and kept by ``memo`` under (name, *args)."""
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        return self.memo((name, *args), lambda: method(self, *args))
    return cached


class _GridIndex:
    """Vectorized cube-index machinery for one grid; cached per GridSpec."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._memo = {}

    @functools.cached_property
    def cube_weight(self) -> np.ndarray:
        """|I|**(-1) = 2**(level * d) of every cube I on the cube axis; read-only."""
        g = self.grid
        w = np.repeat(2.0 ** (np.arange(g.N) * g.d), [g.n_cubes(lvl) for lvl in range(g.N)])
        w.setflags(write=False)
        return w

    @_memoized
    def cube_ancestors(self, k: int) -> np.ndarray:
        """Read-only cube-axis entry of the k-th ancestor of every cube of
        levels k..N-1, i.e. of the axis from ``cube_range(k).start`` on."""
        g = self.grid
        table = np.concatenate([g.cube_range(lvl - k).start + self.ancestor_flat(lvl, k)
                                for lvl in range(k, g.N)])
        table.setflags(write=False)
        return table

    @_memoized
    def cube_descendants(self, depth: int) -> np.ndarray:
        """Read-only table whose row c lists the cube-axis entries of the cubes
        ``depth`` levels below cube c (levels 0..N-1-depth), in desc_groups order."""
        g = self.grid
        table = np.concatenate([g.cube_range(lvl + depth).start + self.desc_groups(lvl, depth)
                                for lvl in range(g.N - depth)])
        table.setflags(write=False)
        return table

    @_memoized
    def descendant_inverse(self, depth: int, n_k: int) -> np.ndarray:
        """Read-only inverse over the stacked layout of the rows of
        ``cube_descendants(depth)[:n_k]``, each cube's n_sig rows in turn:
        entry r is the position of row r among them, or their count where
        none of those cubes has it."""
        g = self.grid
        cubes = self.cube_descendants(depth)[:n_k]
        return _inverse(1 + cubes[..., None] * g.n_sig + np.arange(g.n_sig), g.n_samples)

    @_memoized
    def bk_table(self, k: int) -> tuple:
        """B_k gather tables over the cubes of levels k..N-1, level-major:
        each cube's stacked row at signature 0, its k-th ancestor's stacked
        row at signature 0, and the scale 2**((level - k) * d / 2). One entry
        per k; a signature adds to the rows."""
        g, start = self.grid, self.grid.cube_range(k).start
        rows = 1 + np.arange(start, g.n_cubes_total) * g.n_sig
        anc = 1 + self.cube_ancestors(k) * g.n_sig
        scale = np.sqrt(self.cube_weight[start:] / 2.0 ** (k * g.d))
        for arr in (rows, anc, scale):
            arr.setflags(write=False)
        return rows, anc, scale

    def memo(self, key, build):
        """``build()``, called once per ``key`` on this grid: the per-grid
        values of the modules above, such as the B_k atom groups and the
        decomposition's term pools, one per family, which fill as lists of
        the family are assembled. The tables of this class share the same
        memo, under (method name, *args)."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @_memoized
    def bk_rows(self, k: int, sig: int) -> tuple:
        """Read-only rows of signature ``sig`` for the cubes of levels k..N-1,
        in :meth:`bk_table` order: ``(rows, inverse, b_rows)``.

        ``rows`` holds each cube's extended-layout row, its stacked row at a
        cancellative ``sig`` and its tail row n_samples + c at the
        noncancellative one (k = 0 only). ``inverse`` runs over the extended
        layout: entry r is the position of row r in ``rows``, or len(rows)
        where no cube has it, so a scatter of ``rows`` into zeros is a gather
        through it from the values plus one zero row. ``b_rows`` holds the
        k-th ancestors' stacked rows at ``sig`` (None at the noncancellative
        signature).
        """
        g = self.grid
        base, anc, _ = self.bk_table(k)
        if sig == g.noncanc_int:
            rows, b_rows = g.n_samples + np.arange(len(base)), None
        else:
            rows, b_rows = base + sig, anc + sig
        for arr in (rows, b_rows):
            if arr is not None:
                arr.setflags(write=False)
        return rows, _inverse(rows, g.n_samples + g.n_cubes_total), b_rows

    def coords(self, level: int) -> np.ndarray:
        """(d, n_cubes) coordinate array of all cubes at ``level``."""
        n = 1 << level
        flat = np.arange(self.grid.n_cubes(level))
        return np.array(np.unravel_index(flat, (n,) * self.grid.d))

    @_memoized
    def ancestor_flat(self, level: int, k: int) -> np.ndarray:
        """Flat index of the k-th ancestor for every cube at ``level``."""
        if k < 0 or k > level:
            raise DepthError(f"ancestor depth {k} exceeds level {level}")
        c = self.coords(level) >> k
        return np.ravel_multi_index(tuple(c), ((1 << (level - k)),) * self.grid.d)

    @_memoized
    def desc_groups(self, kappa: int, depth: int) -> np.ndarray:
        """Cubes at level kappa+depth grouped by ancestor at kappa.

        Returns an int array of shape (n_cubes(kappa), 2**(d*depth)) whose
        row ``q`` lists the flat indices of the descendants of cube ``q``.
        """
        anc = self.ancestor_flat(kappa + depth, depth)
        order = np.argsort(anc, kind="stable")
        return order.reshape(self.grid.n_cubes(kappa), -1)

    def ancestor_scan(self, values: np.ndarray) -> np.ndarray:
        """Sums over strict ancestors, computed top-down.

        ``values`` holds one entry per cube on the cube axis, shape
        (n_cubes_total, *passive). Entry c of the result is the sum of
        ``values`` over the strict ancestors of cube c, coarsest first.
        """
        g = self.grid
        out = np.zeros_like(values)
        for lvl in range(1, g.N):
            up = g.cube_range(lvl - 1)
            out[g.cube_range(lvl)] = (out[up] + values[up]).take(self.ancestor_flat(lvl, 1), axis=0)
        return out

    def subtree_scan(self, values: np.ndarray) -> np.ndarray:
        """Sums over strict subtrees, computed bottom-up.

        ``values`` is laid out as for :meth:`ancestor_scan`. Entry c of the
        result is the sum of ``values`` over the strict descendants of cube c.
        Each cube's children are summed over a contiguous last axis, so every
        column of a stack takes the summation order of a single column.
        """
        g = self.grid
        flat = values.reshape(len(values), math.prod(values.shape[1:]))
        out = np.zeros_like(flat)
        for lvl in range(g.N - 2, -1, -1):
            down = g.cube_range(lvl + 1)
            below = (out[down] + flat[down]).take(self.desc_groups(lvl, 1), axis=0)
            out[g.cube_range(lvl)] = np.ascontiguousarray(below.swapaxes(1, 2)).sum(axis=2)
        return out.reshape(values.shape)

    @_memoized
    def cells(self, level: int) -> np.ndarray:
        """(n_cubes, cells_per_cube) flat sample-cell indices of each cube."""
        g = self.grid
        step = 1 << (g.N - level)
        side = g.n_side
        c = self.coords(level)
        acc = None
        for a in range(g.d):
            axis_cells = (g.shift[a] + c[a][:, None] * step + np.arange(step)) % side
            weighted = axis_cells * (side ** (g.d - 1 - a))
            if acc is None:
                acc = weighted
            else:
                acc = (acc[:, :, None] + weighted[:, None, :]).reshape(acc.shape[0], -1)
        return acc

    @_memoized
    def cell_owner(self, level: int) -> np.ndarray:
        """Read-only (n_samples,) flat index of the cube at ``level`` that holds
        each sample cell: the inverse of :meth:`cells`."""
        cells = self.cells(level)
        owner = np.empty(self.grid.n_samples, dtype=np.intp)
        owner[cells] = np.arange(len(cells))[:, None]
        owner.setflags(write=False)
        return owner


def _inverse(rows: np.ndarray, size: int) -> np.ndarray:
    """Read-only inverse of the distinct ``rows`` (read flat) on an axis of
    ``size`` entries: entry r is the flat position of r in ``rows``, or
    rows.size where r is absent, the zero row a gather appends."""
    inverse = np.full(size, rows.size)
    inverse[rows.reshape(-1)] = np.arange(rows.size)
    inverse.setflags(write=False)
    return inverse


@functools.lru_cache(maxsize=None)
def grid_index(grid: GridSpec) -> _GridIndex:
    return _GridIndex(grid)
