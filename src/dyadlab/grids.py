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
"""

from __future__ import annotations

import functools
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
    # Layout: [mean, level 0 (cube-major, signature-minor), level 1, ...].
    # Only cancellative signatures are stored; total size equals n_samples.
    # The extended layout (dyadlab.haar.extend) appends the scaling pairings
    # of levels 0..N-1; level l's start at n_samples + (n_cubes(l) - 1) / n_sig.

    def level_offset(self, level: int) -> int:
        """Start of ``level`` in the layout: 1 + sum_{l < level} n_cubes(l) * n_sig,
        a telescoping sum equal to n_cubes(level)."""
        return 1 << (level * self.d)

    def level_block(self, stacked: np.ndarray, level: int) -> np.ndarray:
        """View of the level's coefficients, shape (n_cubes, n_sig, *passive)."""
        off = self.level_offset(level)
        cnt = self.n_cubes(level) * self.n_sig
        return stacked[off:off + cnt].reshape((self.n_cubes(level), self.n_sig) + stacked.shape[1:])

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


def ancestor(grid: GridSpec, cube: DyadicCube, k: int) -> DyadicCube:
    """Convenience wrapper for :meth:`GridSpec.ancestor`."""
    return grid.ancestor(cube, k)


# ---------------------------------------------------------------------------
# Cached vectorized index maps.


class _GridIndex:
    """Vectorized cube-index machinery for one grid; cached per GridSpec."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._anc = {}
        self._desc = {}
        self._cells = {}
        self._signs = {}
        self._rows = {}
        self._bk = {}

    def sig_rows(self, level: int, sig_int: int) -> np.ndarray:
        """Extended-layout indices of one signature's coefficients at ``level``
        (the noncancellative signature's lie in the tail)."""
        key = (level, sig_int)
        if key not in self._rows:
            g = self.grid
            cubes = np.arange(g.n_cubes(level))
            if sig_int == g.noncanc_int:
                rows = g.n_samples + (g.n_cubes(level) - 1) // g.n_sig + cubes
            else:
                rows = g.level_offset(level) + cubes * g.n_sig + sig_int
            rows.setflags(write=False)
            self._rows[key] = rows
        return self._rows[key]

    def bk_table(self, k: int) -> tuple:
        """B_k gather tables over the cubes of levels k..N-1, level-major:
        each cube's stacked row at signature 0, its k-th ancestor's stacked
        row at signature 0, and the scale 2**((level - k) * d / 2). One entry
        per k; a signature adds to the rows."""
        if k not in self._bk:
            g = self.grid
            levels = range(k, g.N)
            rows = np.concatenate([g.level_offset(lvl) + np.arange(g.n_cubes(lvl)) * g.n_sig
                                   for lvl in levels])
            anc = np.concatenate([g.level_offset(lvl - k) + self.ancestor_flat(lvl, k) * g.n_sig
                                  for lvl in levels])
            scale = np.concatenate([np.full(g.n_cubes(lvl), 2.0 ** ((lvl - k) * g.d / 2.0))
                                    for lvl in levels])
            for arr in (rows, anc, scale):
                arr.setflags(write=False)
            self._bk[k] = (rows, anc, scale)
        return self._bk[k]

    def coords(self, level: int) -> np.ndarray:
        """(d, n_cubes) coordinate array of all cubes at ``level``."""
        n = 1 << level
        flat = np.arange(self.grid.n_cubes(level))
        return np.array(np.unravel_index(flat, (n,) * self.grid.d))

    def ancestor_flat(self, level: int, k: int) -> np.ndarray:
        """Flat index of the k-th ancestor for every cube at ``level``."""
        key = (level, k)
        if key not in self._anc:
            if k < 0 or k > level:
                raise DepthError(f"ancestor depth {k} exceeds level {level}")
            c = self.coords(level) >> k
            self._anc[key] = np.ravel_multi_index(tuple(c), ((1 << (level - k)),) * self.grid.d)
        return self._anc[key]

    def desc_groups(self, kappa: int, depth: int) -> np.ndarray:
        """Cubes at level kappa+depth grouped by ancestor at kappa.

        Returns an int array of shape (n_cubes(kappa), 2**(d*depth)) whose
        row ``q`` lists the flat indices of the descendants of cube ``q``.
        """
        key = (kappa, depth)
        if key not in self._desc:
            anc = self.ancestor_flat(kappa + depth, depth)
            order = np.argsort(anc, kind="stable")
            self._desc[key] = order.reshape(self.grid.n_cubes(kappa), -1)
        return self._desc[key]

    def ancestor_scan(self, values: list) -> list:
        """Sums over strict ancestors, computed top-down.

        ``values[l]`` holds one entry per cube at level l, shape
        (n_cubes(l), *passive). Entry q of the result at level l is the sum
        of ``values[li]`` over the strict ancestors of cube q (li < l).
        """
        out = [np.zeros_like(values[0])]
        for lvl in range(1, len(values)):
            out.append((out[-1] + values[lvl - 1])[self.ancestor_flat(lvl, 1)])
        return out

    def subtree_scan(self, values: list) -> list:
        """Sums over strict subtrees, computed bottom-up.

        ``values`` is laid out as for :meth:`ancestor_scan`. Entry q of the
        result at level l is the sum of ``values[lj]`` over the strict
        descendants of cube q (l < lj < len(values)).
        """
        out = [np.zeros_like(values[-1])]
        for lvl in range(len(values) - 2, -1, -1):
            below = out[-1] + values[lvl + 1]
            out.append(below[self.desc_groups(lvl, 1)].sum(axis=1))
        return out[::-1]

    def cells(self, level: int) -> np.ndarray:
        """(n_cubes, cells_per_cube) flat sample-cell indices of each cube."""
        if level not in self._cells:
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
            self._cells[level] = acc
        return self._cells[level]

    def ancestor_haar_signs(self, level: int, k: int, sig) -> np.ndarray:
        """Sign of the k-th ancestor's Haar function sampled inside each cube.

        For every cube I at ``level`` (k >= 1), samples h^sig of I^(k) at the
        first cell of I and strips the amplitude, leaving the +-1 factor.
        """
        key = (level, k, tuple(sig))
        if key not in self._signs:
            c = self.coords(level)
            signs = np.ones(self.grid.n_cubes(level))
            for a in range(self.grid.d):
                if sig[a] == 0:
                    # + on the ancestor's lower half: bit k-1 of the position is 0
                    signs = signs * np.where((c[a] >> (k - 1)) & 1, -1.0, 1.0)
            signs.setflags(write=False)
            self._signs[key] = signs
        return self._signs[key]


@functools.lru_cache(maxsize=None)
def grid_index(grid: GridSpec) -> _GridIndex:
    return _GridIndex(grid)
