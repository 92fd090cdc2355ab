"""Haar systems and transforms on finite dyadic grids.

Functions are stored as samples on the finest cells (one value per cell,
quadrature weight 2**(-N*d) per cell); Haar coefficients are a derived,
lossless view. The transform is the orthonormal 2**d-band pyramid: at each
level the 2**d sibling scaling values of a cube combine into one parent
scaling value and 2**d - 1 cancellative Haar coefficients.

A function's space is a GridSpec or a ProductGrid, whose ``grids`` hold one
grid per variable; :class:`SampledFunction` holds what the two function
types share, the JSON codec included (one loop over the grids), and
:func:`forward_space` transforms along every variable.

All stacked-coefficient helpers accept trailing passive axes so the same
code drives one-parameter functions and per-variable transforms of tensor
products. The pyramid runs trials-leading: the P = prod(passive) columns
move to the front once, (P, n), so every kernel loop runs along a column's
cells rather than across the few columns. Each level takes one reshape per
axis, axis 0 first, into a block (2**a, P, cubes, 2, rest) whose
diff(0)/avg(1) choice becomes the next leading block index (:func:`_split`,
one kernel for every d). The levels write through: the last axis puts each
difference block straight into the level's rows of the output, a strided
(e, P, cube) view of them, and only the all-avg block, the next level's
scaling values, becomes a new array. :func:`inverse_stacked` and
:func:`scaling_levels` share the merge kernel that undoes it
(:func:`_merge`), which copies a level's rows into one block before its
axes run: measured, reading them through the strided view instead costs
more than the copy from d = 2 on. Every element takes the steps
fl(fl(a - b) c) and fl(fl(a + b) c) forward, fl(fl(d + a) c) and
fl(fl(a - d) c) inverse, in axis order, so each column of a stack gets the
bits of its single-column transform, and every output is C-contiguous
whatever the input's layout. Callers stack independent inputs on a passive
axis to share one pass: the decomposition extends all of its inner-shift
inputs, and contracts all of its outer-shift groups, in one call per
variable, and the direct commutator transforms f and b f together. What
depends on the grid alone is cached per grid on ``grid_index``: the index
tables, the B_k rows and atom groups and the decomposition's term pools,
so an identity check transforms b once and builds no atom of its own.

Kernels that pair against the noncancellative Haar function h_I^1 (the
cube's normalized indicator) work on the *extended* layout: the stacked
coefficients followed by the scaling pairings <f, h_I^1> of levels 0..N-1
(:func:`extend`), whose adjoint :func:`contract` folds those rows back.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .grids import (DepthError, GridMismatchError, GridSpec, HaarIndex, InvalidIndexError,
                    grid_index)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_MAGIC_1P = b"DYF1"


# ---------------------------------------------------------------------------
# Stacked transforms (operate on arrays of shape (n_samples, *passive)).


def _split(s: np.ndarray, out: np.ndarray, d: int, m: int) -> np.ndarray:
    """One pyramid step on trials-leading scaling values (P, (2m)**d): the
    level's differences go into its rows of ``out`` (n_samples, P), and the
    parent scaling values (P, m**d) are returned, the one new array.

    Axis ``a`` reads its block as (2**a, P, m**(a+1), 2, rest), the cell
    pair of each cube on axis ``a`` at index 3, and makes its diff(0)/avg(1)
    choice the next block index, so block e encodes the choices with axis 0
    most significant and the all-avg block is the parent. The last axis
    writes each difference block straight into the strided (e, P, cube)
    view of the level's rows.
    """
    P = len(s)
    t = s
    for a in range(d - 1):
        rest = (2 * m) ** (d - 1 - a)
        u = t.reshape(1 << a, P * m ** (a + 1), 2, rest)
        t = np.empty((1 << a, 2, P * m ** (a + 1), rest))
        np.subtract(u[:, :, 0], u[:, :, 1], out=t[:, 0])
        np.add(u[:, :, 0], u[:, :, 1], out=t[:, 1])
        t *= _INV_SQRT2
    h, off = 1 << (d - 1), m ** d  # the level's rows are off..(off << d) - 1
    u = t.reshape(h, P, off, 2)
    rows = out[off:off << d]
    diff = rows.reshape(off, 2 * h - 1, P).transpose(1, 2, 0)
    np.subtract(u[..., 0], u[..., 1], out=diff[0::2])
    if h > 1:
        np.add(u[:-1, ..., 0], u[:-1, ..., 1], out=diff[1::2])
    rows *= _INV_SQRT2
    parent = np.add(u[-1, ..., 0], u[-1, ..., 1])
    parent *= _INV_SQRT2
    return parent


def _merge(x: np.ndarray, s: np.ndarray, d: int, m: int) -> np.ndarray:
    """Inverse pyramid step: the coefficients of the level with m**d cubes in
    ``x`` (P, n_samples) and its scaling values ``s`` (P, m**d) -> the
    scaling values one level finer, (P, (2m)**d). Axis 0 first, as in
    :func:`_split`: its choice is the leading block index."""
    P, off = s.shape  # the level's rows are off..(off << d) - 1, see GridSpec.level_offset
    t = np.empty((1 << d, P, off))
    t[:-1] = x[:, off:off << d].reshape(P, off, (1 << d) - 1).transpose(2, 0, 1)
    t[-1] = s
    for a in range(d):
        rest = m ** (d - 1 - a)
        u = t.reshape(2, (1 << (d - 1 - a)) * P * (2 * m) ** a * m, rest)
        t = np.empty((u.shape[1], 2, rest))
        np.add(u[0], u[1], out=t[:, 0])
        np.subtract(u[1], u[0], out=t[:, 1])
        t *= _INV_SQRT2
    return t.reshape(P, (2 * m) ** d)


def _trials_leading(a: np.ndarray) -> np.ndarray:
    """(n, *passive) -> (P, n), P = prod(passive); a view where the layout allows."""
    return a.transpose((*range(1, a.ndim), 0)).reshape(math.prod(a.shape[1:]), len(a))


def forward_stacked(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Samples (n_samples, *passive) -> stacked Haar coefficients, C-contiguous.

    A shifted grid's transform is the standard one of the samples rolled by
    ``-grid.shift``; :func:`inverse_stacked` rolls back by ``+grid.shift``.
    """
    d, N, n = grid.d, grid.N, grid.n_samples
    s = np.multiply(_trials_leading(samples), 2.0 ** (-N * d / 2.0), dtype=float, order="C")
    P = len(s)
    if any(grid.shift):
        s = np.roll(s.reshape((P,) + (grid.n_side,) * d), [-x for x in grid.shift],
                    axis=tuple(range(1, d + 1))).reshape(P, n)
    out = np.empty((n, P))
    for lvl in range(N - 1, -1, -1):
        s = _split(s, out, d, 1 << lvl)
    out[0] = s[:, 0]
    return out.reshape(samples.shape)


def inverse_stacked(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """Stacked Haar coefficients -> samples (n_samples, *passive), C-contiguous."""
    d, N = grid.d, grid.N
    x = _trials_leading(stacked)
    s = x[:, :1]
    for lvl in range(N):
        s = _merge(x, s, d, 1 << lvl)
    if any(grid.shift):
        s = np.roll(s.reshape((len(s),) + (grid.n_side,) * d), grid.shift,
                    axis=tuple(range(1, d + 1))).reshape(len(s), grid.n_samples)
    return np.multiply(s.T, 2.0 ** (N * d / 2.0), order="C").reshape(stacked.shape)


def _along(axis: int, fn, a: np.ndarray) -> np.ndarray:
    """``fn``, which acts along axis 0, applied along ``axis`` of ``a``."""
    return fn(a) if axis == 0 else fn(a.swapaxes(0, axis)).swapaxes(0, axis)


def forward_space(space, samples: np.ndarray) -> np.ndarray:
    """Samples (*shape, *passive) on ``space``, variable v on axis v ->
    stacked coefficients, same shape: :func:`forward_stacked` along each
    variable's axis in turn, variable 1 first."""
    for v, g in enumerate(space.grids):
        samples = _along(v, partial(forward_stacked, g), samples)
    return samples


def inverse_space(space, stacked: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_space`, the last variable first."""
    for v in reversed(range(len(space.grids))):
        stacked = _along(v, partial(inverse_stacked, space.grids[v]), stacked)
    return stacked


def extend_space(space, stacked: np.ndarray) -> np.ndarray:
    """:func:`extend` along each variable's axis in turn, variable 1 first."""
    for v, g in enumerate(space.grids):
        stacked = _along(v, partial(extend, g), stacked)
    return stacked


def contract_space(space, ext: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`extend_space`: :func:`contract`, the last variable first."""
    for v in reversed(range(len(space.grids))):
        ext = _along(v, partial(contract, space.grids[v]), ext)
    return ext


def scaling_levels(grid: GridSpec, stacked: np.ndarray) -> list:
    """Scaling pairings <f, h_I^1> for every cube at levels 0..N-1.

    Entry ``l`` has shape (n_cubes(l), *passive), C-contiguous. These are
    the full cell averages scaled by |I|**(1/2), mean mode included.
    """
    passive = stacked.shape[1:]
    x = _trials_leading(stacked)
    out = [x[:, :1].astype(float)]
    for lvl in range(grid.N - 1):
        out.append(_merge(x, out[-1], grid.d, 1 << lvl))
    return [np.ascontiguousarray(s.T).reshape(s.shape[1:] + passive) for s in out]


def broadcast_level(grid: GridSpec, level: int, values: np.ndarray) -> np.ndarray:
    """Per-cube values (n_cubes, *passive) -> piecewise-constant samples."""
    return values.take(grid_index(grid).cell_owner(level), axis=0).astype(float, copy=False)


def cell_sums(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Samples of sum_I values[I] chi_I for ``values`` on the cube axis
    (axis 0, passive axes allowed): each cell's sum over the cubes that
    contain it, coarsest first, by one ancestor scan and one broadcast."""
    top = grid.cube_range(grid.N - 1)
    per_cube = grid_index(grid).ancestor_scan(values)[top] + values[top]
    return broadcast_level(grid, grid.N - 1, per_cube)


def pool_level(grid: GridSpec, level: int, samples: np.ndarray) -> np.ndarray:
    """Cell averages of ``samples`` over every cube at ``level``."""
    return samples.take(grid_index(grid).cells(level), axis=0).mean(axis=1)


def fold_noncancellative(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Stacked coefficients of sum_I c_I h_I^1 for ``c`` on the cube axis."""
    amp = np.sqrt(grid_index(grid).cube_weight).reshape((-1,) + (1,) * (c.ndim - 1))
    return forward_stacked(grid, cell_sums(grid, amp * c))


def extend(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """Stacked coefficients (n_samples, *passive) -> extended layout: the
    same rows followed by the :func:`scaling_levels` of levels 0..N-1,
    C-contiguous."""
    out = np.empty((grid.n_samples + grid.n_cubes_total,) + stacked.shape[1:])
    return np.concatenate([stacked] + scaling_levels(grid, stacked), out=out)


def contract(grid: GridSpec, ext: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`extend`: the stacked rows plus one fold of the tail
    rows; an all-zero tail returns the stacked rows themselves, a view."""
    n = grid.n_samples
    if not ext[n:].any():
        return ext[:n]
    return ext[:n] + fold_noncancellative(grid, ext[n:])


# ---------------------------------------------------------------------------
# Public function/coefficient types.


def _read_only(values, shape: tuple, what: str) -> np.ndarray:
    """A read-only float copy of ``values`` in ``shape``; refused unless it
    holds exactly prod(shape) values, all finite. ``what`` names them."""
    arr = np.asarray(values, dtype=float)
    if arr.size != math.prod(shape):
        raise ValueError(f"expected {math.prod(shape)} {what}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite (no NaN or inf)")
    arr = arr.reshape(shape).copy()
    arr.setflags(write=False)
    return arr


class SampledFunction:
    """What the sampled function types share. A subclass is a frozen
    dataclass whose first field is its ``space``, a GridSpec or a
    ProductGrid; its samples, one axis per variable, are a read-only copy.
    It declares the JSON key suffixes of its variables, given how many
    (``_json_suffixes``), and builds its space from the grids
    (``_make_space``)."""

    def __post_init__(self):
        shape = tuple(g.n_samples for g in self.space.grids)
        object.__setattr__(self, "samples", _read_only(self.samples, shape, "samples"))

    @property
    def cell_volume(self) -> float:
        return math.prod(g.cell_volume for g in self.space.grids)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.samples ** 2) * self.cell_volume))

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def __add__(self, other):
        self._check(other)
        return type(self)(self.space, self.samples + other.samples)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.space, self.samples - other.samples)

    def __mul__(self, scalar):
        return type(self)(self.space, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.space, -self.samples)

    def _check(self, other):
        if not isinstance(other, SampledFunction) or other.space != self.space:
            raise GridMismatchError("operands live on different grids")

    # -- serialization: JSON on every grid, binary on standard grids ------

    def to_json(self) -> str:
        """Keys d, N per variable (with the type's ``_json_suffixes``), the
        samples flat in row-major order, then omega per shifted grid."""
        grids = self.space.grids
        named = list(zip(self._json_suffixes(len(grids)), grids))
        obj = {key + v: getattr(g, key) for v, g in named for key in ("d", "N")}
        obj["samples"] = self.samples.reshape(-1).tolist()
        obj.update({"omega" + v: g.omega for v, g in named if g.omega is not None})
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`; a missing field raises ValueError naming it."""
        obj = json.loads(text)
        count = next(v for v in itertools.count(1) if f"d{v}" not in obj) - 1
        try:
            grids = [GridSpec(int(obj["d" + v]), int(obj["N" + v]), obj.get("omega" + v))
                     for v in cls._json_suffixes(count)]
            samples = obj["samples"]
        except KeyError as exc:
            raise ValueError(f"{cls.__name__} JSON: missing field {exc}") from None
        return cls(cls._make_space(*grids), np.asarray(samples, dtype=float))

    def _encode(self, magic: bytes, fmt: str, *fields) -> bytes:
        """The binary format: ``magic``, the header ``fields`` packed by the
        struct format ``fmt``, then the samples as LE float64."""
        if any(g.omega is not None for g in self.space.grids):
            raise ValueError("binary format covers standard (unshifted) grids only")
        return magic + struct.pack(fmt, *fields) + self.samples.astype("<f8").tobytes()

    @classmethod
    def _decode(cls, data: bytes, magic: bytes, fmt: str, make_space):
        """Inverse of :meth:`_encode`; ``make_space`` builds the space from
        the header fields. The payload must hold exactly one value per sample."""
        name, head = magic.decode(), 4 + struct.calcsize(fmt)
        if data[:4] != magic:
            raise ValueError(f"bad magic, expected {name}")
        if len(data) < head:
            raise ValueError(f"truncated {name} header: needs {head} bytes, got {len(data)}")
        space = make_space(*struct.unpack(fmt, data[4:head]))
        need, got = 8 * math.prod(g.n_samples for g in space.grids), len(data) - head
        if got != need:
            raise ValueError(f"{name} payload: needs {need} bytes, got {got}")
        return cls(space, np.frombuffer(data[head:], dtype="<f8"))


@dataclass(frozen=True)
class DyadicFunction(SampledFunction):
    """Real function on the torus, sampled on the finest cells of ``grid``.

    Samples are flat in row-major order (axis 1 slowest).
    """

    grid: GridSpec
    samples: np.ndarray

    _json_suffixes = staticmethod(lambda count: ("",))
    _make_space = staticmethod(lambda grid: grid)

    @property
    def space(self) -> GridSpec:
        return self.grid

    def to_bytes(self) -> bytes:
        """16-byte header (magic DYF1, u32 d, u32 N, u32 reserved) + LE float64."""
        return self._encode(_MAGIC_1P, "<III", self.grid.d, self.grid.N, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DyadicFunction":
        return cls._decode(data, _MAGIC_1P, "<III", lambda d, N, _: GridSpec(d, N))


@dataclass(frozen=True)
class HaarCoefficients:
    """Stacked Haar coefficient vector; a lossless view of a DyadicFunction."""

    grid: GridSpec
    stacked: np.ndarray

    def __post_init__(self):
        stacked = _read_only(self.stacked, (self.grid.n_samples,), "coefficients")
        object.__setattr__(self, "stacked", stacked)

    @property
    def mean(self) -> float:
        """Coefficient of the root noncancellative Haar (the function mean)."""
        return float(self.stacked[0])

    def level(self, level: int) -> np.ndarray:
        """Cancellative coefficients at ``level``, shape (n_cubes, n_sig);
        a level outside 0..N-1 raises DepthError."""
        if not 0 <= level <= self.grid.N - 1:
            raise DepthError(f"level {level} outside the levels 0..{self.grid.N - 1} "
                             f"below the root")
        return self.grid.level_block(self.stacked, level)

    def coefficient(self, idx: HaarIndex) -> float:
        return float(self.stacked[self.grid.stacked_index(idx)])

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.stacked ** 2))


def haar_forward(f: DyadicFunction) -> HaarCoefficients:
    return HaarCoefficients(f.grid, forward_stacked(f.grid, f.samples))


def haar_inverse(c: HaarCoefficients) -> DyadicFunction:
    return DyadicFunction(c.grid, inverse_stacked(c.grid, c.stacked))


def haar_function(grid: GridSpec, idx: HaarIndex) -> DyadicFunction:
    """The sampled Haar function h_I^sig; unit L2 norm, mean zero iff cancellative."""
    grid.validate_cube(idx.cube)
    grid.sig_int(idx.sig)  # refuses a bad signature
    lvl = idx.cube.level
    if idx.cancellative and lvl >= grid.N:
        raise InvalidIndexError("cancellative indices require level < N")
    step = 1 << (grid.N - lvl)
    amp = 2.0 ** (lvl * grid.d / 2.0)
    cells = grid_index(grid).cells(lvl)[grid.flat_pos(idx.cube.pos, lvl)]
    # per axis in the order of the cells: constant, or + on the lower half
    half = np.where(np.arange(step) < step // 2, 1.0, -1.0)
    signs = reduce(np.multiply.outer, [np.ones(step) if s == 1 else half for s in idx.sig])
    samples = np.zeros(grid.n_samples)
    samples[cells] = amp * signs.reshape(-1)
    return DyadicFunction(grid, samples)


def inner_product(f: SampledFunction, g: SampledFunction) -> float:
    """L2 pairing with piecewise-constant quadrature, of two functions on
    one grid or one product grid."""
    f._check(g)
    return float(np.sum(f.samples * g.samples) * f.cell_volume)


def random_function(grid: GridSpec, rng) -> DyadicFunction:
    """Gaussian samples; the workhorse input generator for studies and tests."""
    return DyadicFunction(grid, rng.standard_normal(grid.n_samples))
