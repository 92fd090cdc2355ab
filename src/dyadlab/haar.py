"""Haar systems and transforms on finite dyadic grids.

Functions are stored as samples on the finest cells (one value per cell,
quadrature weight 2**(-N*d) per cell); Haar coefficients are a derived,
lossless view. The transform is the orthonormal 2**d-band pyramid: at each
level the 2**d sibling scaling values of a cube combine into one parent
scaling value and 2**d - 1 cancellative Haar coefficients.

All stacked-coefficient helpers accept trailing passive axes so the same
code drives one-parameter functions and per-variable transforms of tensor
products.

Kernels that pair against the noncancellative Haar function h_I^1 (the
cube's normalized indicator) work on the *extended* layout: the stacked
coefficients followed by the scaling pairings <f, h_I^1> of levels 0..N-1
(:func:`extend`), whose adjoint :func:`contract` folds those rows back.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .grids import (DyadicCube, GridMismatchError, GridSpec, HaarIndex,
                    InvalidIndexError, grid_index)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_MAGIC_1P = b"DYF1"
_MAGIC_2P = b"DYF2"


# ---------------------------------------------------------------------------
# Stacked transforms (operate on arrays of shape (n_samples, *passive)).


def _butterfly_split(s: np.ndarray, d: int, n: int, passive: tuple) -> np.ndarray:
    """One pyramid step: (2n,)*d scaling block -> (n**d, 2**d) mixed block.

    Output column e encodes the per-axis choice diff(0)/avg(1) as binary with
    axis 0 most significant; the last column is the parent scaling value.
    """
    t = s.reshape(sum(((n, 2) for _ in range(d)), ()) + passive)
    for a in range(d):
        ax = 2 * a + 1
        lo = np.take(t, 0, axis=ax)
        hi = np.take(t, 1, axis=ax)
        t = np.stack(((lo - hi) * _INV_SQRT2, (lo + hi) * _INV_SQRT2), axis=ax)
    perm = ([2 * a for a in range(d)] + [2 * a + 1 for a in range(d)]
            + list(range(2 * d, t.ndim)))
    return t.transpose(perm).reshape((n ** d, 1 << d) + passive)


def _butterfly_merge(t: np.ndarray, d: int, n: int, passive: tuple) -> np.ndarray:
    """Inverse of :func:`_butterfly_split`."""
    t = t.reshape((n,) * d + (2,) * d + passive)
    perm = []
    for a in range(d):
        perm += [a, d + a]
    perm += list(range(2 * d, t.ndim))
    t = t.transpose(perm)
    for a in range(d):
        ax = 2 * a + 1
        diff = np.take(t, 0, axis=ax)
        avg = np.take(t, 1, axis=ax)
        t = np.stack(((diff + avg) * _INV_SQRT2, (avg - diff) * _INV_SQRT2), axis=ax)
    return t.reshape((2 * n,) * d + passive)


def forward_stacked(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Samples (n_samples, *passive) -> stacked Haar coefficients.

    A shifted grid's transform is the standard one of the samples rolled by
    ``-grid.shift``; :func:`inverse_stacked` rolls back by ``+grid.shift``.
    """
    d, N = grid.d, grid.N
    passive = samples.shape[1:]
    s = samples.reshape((grid.n_side,) * d + passive).astype(float)
    s = s * 2.0 ** (-N * d / 2.0)
    if any(grid.shift):
        s = np.roll(s, [-x for x in grid.shift], axis=tuple(range(d)))
    out = np.zeros(samples.shape, dtype=float)
    for lvl in range(N - 1, -1, -1):
        n = 1 << lvl
        t = _butterfly_split(s, d, n, passive)
        off0 = grid.level_offset(lvl)
        cnt = grid.n_cubes(lvl) * grid.n_sig
        out[off0:off0 + cnt] = t[:, :grid.n_sig].reshape((cnt,) + passive)
        s = t[:, -1].reshape((n,) * d + passive)
    out[0] = s.reshape(passive)
    return out


def inverse_stacked(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """Stacked Haar coefficients -> samples (n_samples, *passive)."""
    d, N = grid.d, grid.N
    passive = stacked.shape[1:]
    s = stacked[0].reshape((1,) * d + passive)
    for lvl in range(N):
        n = 1 << lvl
        blk = grid.level_block(stacked, lvl)
        t = np.concatenate([blk, s.reshape((n ** d, 1) + passive)], axis=1)
        s = _butterfly_merge(t, d, n, passive)
    if any(grid.shift):
        s = np.roll(s, grid.shift, axis=tuple(range(d)))
    return s.reshape((grid.n_samples,) + passive) * 2.0 ** (N * d / 2.0)


def scaling_levels(grid: GridSpec, stacked: np.ndarray) -> list:
    """Scaling pairings <f, h_I^1> for every cube at levels 0..N-1.

    Entry ``l`` has shape (n_cubes(l), *passive). These are the full cell
    averages scaled by |I|**(1/2), mean mode included.
    """
    d = grid.d
    passive = stacked.shape[1:]
    out = [stacked[0].reshape((1,) + passive) * np.ones((grid.n_cubes(0),) + passive)]
    s = stacked[0].reshape((1,) * d + passive)
    for lvl in range(grid.N - 1):
        n = 1 << lvl
        blk = grid.level_block(stacked, lvl)
        t = np.concatenate([blk, s.reshape((n ** d, 1) + passive)], axis=1)
        s = _butterfly_merge(t, d, n, passive)
        out.append(s.reshape((grid.n_cubes(lvl + 1),) + passive))
    return out


def broadcast_level(grid: GridSpec, level: int, values: np.ndarray) -> np.ndarray:
    """Per-cube values (n_cubes, *passive) -> piecewise-constant samples."""
    passive = values.shape[1:]
    cells = grid_index(grid).cells(level)
    out = np.zeros((grid.n_samples,) + passive, dtype=float)
    out[cells] = values[:, None]
    return out

def pool_level(grid: GridSpec, level: int, samples: np.ndarray) -> np.ndarray:
    """Cell averages of ``samples`` over every cube at ``level``."""
    cells = grid_index(grid).cells(level)
    return samples[cells].mean(axis=1)


def fold_noncancellative(grid: GridSpec, contribs: dict) -> np.ndarray:
    """Stacked coefficients of sum_l sum_I c_I h_I^1 for per-level arrays c."""
    passive = next(iter(contribs.values())).shape[1:]
    samples = np.zeros((grid.n_samples,) + passive, dtype=float)
    for lvl, vals in contribs.items():
        amp = 2.0 ** (lvl * grid.d / 2.0)
        samples += broadcast_level(grid, lvl, vals * amp)
    return forward_stacked(grid, samples)


def extend(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """Stacked coefficients (n_samples, *passive) -> extended layout: the
    same rows followed by the :func:`scaling_levels` of levels 0..N-1."""
    return np.concatenate([stacked] + scaling_levels(grid, stacked))


def contract(grid: GridSpec, ext: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`extend`: the stacked rows plus one fold of the tail
    rows; an all-zero tail returns the stacked rows themselves, a view."""
    n = grid.n_samples
    if not ext[n:].any():
        return ext[:n]
    rows = grid_index(grid).sig_rows
    tail = {lvl: ext[rows(lvl, grid.noncanc_int)] for lvl in range(grid.N)}
    return ext[:n] + fold_noncancellative(grid, tail)


# ---------------------------------------------------------------------------
# Public function/coefficient types.


@dataclass(frozen=True)
class DyadicFunction:
    """Real function on the torus, sampled on the finest cells of ``grid``.

    Samples are flat in row-major order (axis 1 slowest).
    """

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float).reshape(-1)
        if arr.shape != (self.grid.n_samples,):
            raise ValueError(f"expected {self.grid.n_samples} samples, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite (no NaN or inf)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.samples ** 2) * self.grid.cell_volume))

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def __add__(self, other):
        self._check(other)
        return DyadicFunction(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        self._check(other)
        return DyadicFunction(self.grid, self.samples - other.samples)

    def __mul__(self, scalar):
        return DyadicFunction(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return DyadicFunction(self.grid, -self.samples)

    def _check(self, other):
        if not isinstance(other, DyadicFunction) or other.grid != self.grid:
            raise GridMismatchError("operands live on different grids")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        obj = {"d": self.grid.d, "N": self.grid.N, "samples": self.samples.tolist()}
        if self.grid.omega is not None:
            obj["omega"] = [list(level) for level in self.grid.omega]
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "DyadicFunction":
        obj = json.loads(text)
        omega = tuple(tuple(level) for level in obj["omega"]) if "omega" in obj else None
        grid = GridSpec(int(obj["d"]), int(obj["N"]), omega)
        return cls(grid, np.asarray(obj["samples"], dtype=float))

    def to_bytes(self) -> bytes:
        """16-byte header (magic DYF1, u32 d, u32 N, u32 reserved) + LE float64."""
        if self.grid.omega is not None:
            raise ValueError("binary format covers standard (unshifted) grids only")
        header = _MAGIC_1P + struct.pack("<III", self.grid.d, self.grid.N, 0)
        return header + self.samples.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "DyadicFunction":
        if data[:4] != _MAGIC_1P:
            raise ValueError("bad magic, expected DYF1")
        d, N, _ = struct.unpack("<III", data[4:16])
        grid = GridSpec(d, N)
        samples = np.frombuffer(data[16:], dtype="<f8")
        return cls(grid, samples)


@dataclass(frozen=True)
class HaarCoefficients:
    """Stacked Haar coefficient vector; a lossless view of a DyadicFunction."""

    grid: GridSpec
    stacked: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.stacked, dtype=float).reshape(-1)
        if arr.shape != (self.grid.n_samples,):
            raise ValueError("stacked vector has wrong size for grid")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "stacked", arr)

    @property
    def mean(self) -> float:
        """Coefficient of the root noncancellative Haar (the function mean)."""
        return float(self.stacked[0])

    def level(self, level: int) -> np.ndarray:
        """Cancellative coefficients at ``level``, shape (n_cubes, n_sig)."""
        return self.grid.level_block(self.stacked, level)

    def coefficient(self, idx: HaarIndex) -> float:
        return float(self.stacked[self.grid.stacked_index(idx)])

    def items(self):
        """Iterate (HaarIndex, coefficient) over all cancellative indices."""
        g = self.grid
        for lvl in range(g.N):
            blk = self.level(lvl)
            for flat in range(g.n_cubes(lvl)):
                cube = DyadicCube(lvl, g.pos_from_flat(flat, lvl))
                for e in range(g.n_sig):
                    yield HaarIndex(cube, g.int_sig(e)), float(blk[flat, e])

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.stacked ** 2))


def haar_forward(f: DyadicFunction) -> HaarCoefficients:
    return HaarCoefficients(f.grid, forward_stacked(f.grid, f.samples))


def haar_inverse(c: HaarCoefficients) -> DyadicFunction:
    return DyadicFunction(c.grid, inverse_stacked(c.grid, c.stacked))


def haar_function(grid: GridSpec, idx: HaarIndex) -> DyadicFunction:
    """The sampled Haar function h_I^sig; unit L2 norm, mean zero iff cancellative."""
    grid.validate_cube(idx.cube)
    if len(idx.sig) != grid.d or any(s not in (0, 1) for s in idx.sig):
        raise InvalidIndexError(f"bad signature {idx.sig}")
    lvl = idx.cube.level
    if idx.cancellative and lvl >= grid.N:
        raise InvalidIndexError("cancellative indices require level < N")
    step = 1 << (grid.N - lvl)
    side = grid.n_side
    amp = 2.0 ** (lvl * grid.d / 2.0)
    cells = None
    signs = None
    for a in range(grid.d):
        axis_cells = (grid.shift[a] + idx.cube.pos[a] * step + np.arange(step)) % side
        axis_signs = np.ones(step) if idx.sig[a] == 1 else np.where(
            np.arange(step) < step // 2, 1.0, -1.0)
        w = axis_cells * (side ** (grid.d - 1 - a))
        if cells is None:
            cells, signs = w, axis_signs
        else:
            cells = (cells[:, None] + w[None, :]).reshape(-1)
            signs = (signs[:, None] * axis_signs[None, :]).reshape(-1)
    samples = np.zeros(grid.n_samples)
    samples[cells] = amp * signs
    return DyadicFunction(grid, samples)


def inner_product(f: DyadicFunction, g: DyadicFunction) -> float:
    """L2 pairing with piecewise-constant quadrature."""
    f._check(g)
    return float(np.sum(f.samples * g.samples) * f.grid.cell_volume)


def pointwise_multiply(f: DyadicFunction, g: DyadicFunction) -> DyadicFunction:
    f._check(g)
    return DyadicFunction(f.grid, f.samples * g.samples)


def random_function(grid: GridSpec, rng, scale: float = 1.0) -> DyadicFunction:
    """Gaussian samples; the workhorse input generator for studies and tests."""
    return DyadicFunction(grid, rng.standard_normal(grid.n_samples) * scale)
