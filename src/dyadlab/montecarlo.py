"""Random shifted dyadic grids and Monte Carlo averaging of shift operators.

A single dyadic grid breaks translation invariance: the matrix of a fixed
Haar-shift pattern on one grid is far from Toeplitz. Averaging the same
pattern over independently shifted grids restores translation invariance up
to sampling noise, which is the operational content of averaging over grids.
The bound study measures commutator norms against the linear-in-complexity
growth and the geometrically weighted total.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec
from .haar import random_function
from .norms import NormReport, dyadic_bmo_norm, geometric_constant
from .shifts import (LinearOperatorHandle, ShiftOperator, dense_matrix,
                     max_k_level, multiplication_commutator, random_shift)


@dataclass(frozen=True)
class OmegaSample:
    """Per-level grid offsets omega_j in {0,1}^d for levels 1..N.

    They name the shifted grid whose translation is
    sum_j 2**(N-j) omega_j finest cells per axis (see :mod:`dyadlab.grids`);
    uniform offsets give a uniform translation.
    """

    offsets: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "offsets",
                           tuple(tuple(int(x) for x in lvl) for lvl in self.offsets))


def sample_omega(base: GridSpec, rng_seed: int) -> OmegaSample:
    """Offsets drawn i.i.d. uniform on {0,1}^d; reproducible from the seed."""
    offsets = np.random.default_rng(rng_seed).integers(0, 2, size=(base.N, base.d))
    return OmegaSample(offsets.tolist(), int(rng_seed))


def shifted_grid(base: GridSpec, omega: OmegaSample) -> GridSpec:
    """The base grid translated by ``GridSpec.shift`` cells; the level-k cube
    at position p covers cells shift + p * 2**(N-k) + [0, 2**(N-k))."""
    return GridSpec(base.d, base.N, omega.offsets)


def hilbert_pattern_shift(grid: GridSpec) -> ShiftOperator:
    """Fixed (i,j) = (0,1) pattern: coefficients at the admissible bound with
    alternating child signs, the dyadic model of an antisymmetric kernel."""
    if grid.d != 1:
        raise ValueError("the fixed demo pattern is one-dimensional")
    blocks = []
    amp = 2.0 ** -0.5
    for kappa in range(max_k_level(grid, 0, 1) + 1):
        block = np.zeros((grid.n_cubes(kappa), 1, 1, 2, 1))
        # slot 0 is the left child 2K, slot 1 the right child 2K+1
        block[:, 0, 0, 0, 0] = amp
        block[:, 0, 0, 1, 0] = -amp
        blocks.append(block)
    return ShiftOperator(grid, 0, 1, "cancellative", blocks=tuple(blocks))


def hilbert_pattern_builder(base: GridSpec):
    """omega -> handle of the fixed pattern on the shifted grid.

    The pattern's blocks and dense matrix are built once on ``base``; a
    shifted grid is a translation, so each sample reuses the blocks and rolls
    the matrix by the grid's shift along both axes.
    """
    pattern = hilbert_pattern_shift(base)
    M_base = dense_matrix(pattern)

    def build(omega: OmegaSample) -> LinearOperatorHandle:
        g = shifted_grid(base, omega)
        s = g.shift[0]
        return LinearOperatorHandle(g, replace(pattern, grid=g).apply_samples,
                                    matrix_fn=lambda: np.roll(M_base, (s, s), axis=(0, 1)))

    build.grid = base
    return build


def average_operator(builder, samples: int, rng_seed: int, base: GridSpec = None):
    """Monte Carlo mean and per-entry standard error of builder(omega) matrices.

    ``builder`` maps an OmegaSample to a LinearOperatorHandle (or directly to
    a dense matrix); the base grid is read from ``builder.grid`` unless given.
    Per-sample seeds derive from the master seed and accumulation is
    sequential in sample order, so results are bit-stable. A builder that
    raises stops the average; the exception carries a note naming the
    sample's replay seed (``sample_omega(base, seed)`` rebuilds its grid).
    """
    [(mean, stderr)], stats = _average_stats(builder, (lambda M: M,), samples,
                                             rng_seed, base)
    return mean, stderr, stats


def _average_stats(builder, fns, samples: int, rng_seed: int, base: GridSpec = None):
    """One pass of :func:`average_operator` over the seeded grids that averages
    fn(M) for every fn in ``fns``; returns [(mean, stderr) per fn] and stats."""
    base = base or getattr(builder, "grid", None)
    if not isinstance(base, GridSpec):
        raise ValueError("builder must expose its base grid (builder.grid or base=)")
    if samples < 1:
        raise ValueError(f"need at least one Monte Carlo sample, got {samples}")
    children = np.random.SeedSequence(rng_seed).spawn(samples)
    mean = [None] * len(fns)
    msq = [None] * len(fns)
    for used, child in enumerate(children, start=1):
        seed = int(child.generate_state(1)[0])
        try:
            handle = builder(sample_omega(base, seed))
            M = handle.matrix() if isinstance(handle, LinearOperatorHandle) \
                else np.asarray(handle, dtype=float)
            values = [fn(M) for fn in fns]
        except BaseException as exc:  # annotated and re-raised, never dropped
            exc.add_note(f"Monte Carlo sample {used} of {samples}, replay seed {seed}")
            raise
        for n, X in enumerate(values):
            if mean[n] is None:
                mean[n] = np.zeros_like(X)
                msq[n] = np.zeros_like(X)
            delta = X - mean[n]
            mean[n] += delta / used
            msq[n] += delta * (X - mean[n])
    out = [(m, np.sqrt(q / (used - 1) / used) if used > 1 else np.zeros_like(m))
           for m, q in zip(mean, msq)]
    return out, {"samples": samples, "used": used, "seed": rng_seed}


# ---------------------------------------------------------------------------
# Statistics on averaged matrices.


@functools.lru_cache(maxsize=4)
def _cyclic_class(n: int) -> np.ndarray:
    """(n, n) index of each entry's cyclic diagonal, (row - column) mod n."""
    x, y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    cls = (x - y) % n
    cls.setflags(write=False)
    return cls


def toeplitz_deviation(M: np.ndarray) -> np.ndarray:
    """M minus its cyclic-diagonal class means (zero iff cyclically Toeplitz)."""
    n = M.shape[0]
    cls = _cyclic_class(n)
    class_mean = np.bincount(cls.ravel(), weights=M.ravel(), minlength=n) / n
    return M - class_mean[cls]


def _bonferroni_z(n_tests: int, alpha: float = 0.01) -> float:
    """Two-sided familywise z threshold for ``n_tests`` simultaneous tests."""
    from math import erf, sqrt
    target = 1.0 - alpha / (2.0 * max(n_tests, 1))
    lo, hi = 0.0, 16.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + erf(mid / sqrt(2.0))) < target:
            lo = mid
        else:
            hi = mid
    return hi


def zscore_verdict(mean: np.ndarray, stderr: np.ndarray, z: float = 3.0,
                   mask: np.ndarray = None) -> dict:
    """Is an averaged statistic consistent with zero given its standard errors?

    Reports the per-entry picture (fraction beyond ``z`` sigma, which for pure
    noise stays near 0.3%) and a familywise verdict at the Bonferroni-corrected
    threshold: with thousands of simultaneous entries a few ~3 sigma
    excursions are expected, so per-entry 3 sigma is a note, not a hard
    tolerance.
    """
    if mask is None:
        mask = np.ones(mean.shape, dtype=bool)
    se = np.maximum(stderr, 1e-300)
    zs = (np.abs(mean) / se)[mask]
    zcrit = _bonferroni_z(zs.size)
    return {"max_z": float(np.max(zs)) if zs.size else 0.0,
            "frac_beyond_z": float(np.mean(zs > z)) if zs.size else 0.0,
            "per_entry_z": z,
            "bonferroni_z": zcrit,
            "pass": bool(zs.size == 0 or np.max(zs) <= zcrit),
            "max_abs": float(np.max(np.abs(mean[mask]))) if zs.size else 0.0,
            "n_tests": int(zs.size)}


def mc_representation_demo(base: GridSpec, samples: int, rng_seed: int) -> dict:
    """Average the fixed shift pattern over random grids and test the emergent
    translation invariance and antisymmetry.

    The Toeplitz and antisymmetry statistics are accumulated per sample (not
    reconstructed from the mean matrix), so their standard errors honestly
    reflect cross-entry correlations. A single-grid sample is reported for
    contrast: its Toeplitz deviation is orders of magnitude above the average.
    """
    builder = hilbert_pattern_builder(base)
    averages, stats = _average_stats(
        builder, (lambda M: M, toeplitz_deviation, lambda M: M + M.T),
        samples, rng_seed)
    (mean, stderr), (dev_mean, dev_se), (sym_mean, sym_se) = averages
    n = base.n_samples
    offdiag = _cyclic_class(n) != 0
    toeplitz = zscore_verdict(dev_mean, dev_se, mask=offdiag)
    upper = np.zeros((n, n), dtype=bool)
    upper[np.triu_indices(n, k=1)] = True
    antisym = zscore_verdict(sym_mean, sym_se, mask=upper)
    single = builder(sample_omega(base, rng_seed + 1)).matrix()
    single_dev = float(np.max(np.abs(toeplitz_deviation(single))))
    avg_dev = float(np.max(np.abs(dev_mean)))
    return {"stats": stats, "toeplitz": toeplitz, "antisymmetry": antisym,
            "single_omega_max_dev": single_dev,
            "averaged_max_dev": avg_dev,
            "single_omega_not_toeplitz": bool(single_dev > 10 * max(avg_dev, 1e-12)),
            "mean_matrix": mean, "stderr_matrix": stderr}


# ---------------------------------------------------------------------------
# Commutator bound study.


def commutator_bound_study(delta: float, i_max: int, j_max: int, trials: int,
                           rng_seed: int, grid: GridSpec = None) -> dict:
    """Per-(i,j) commutator norms against (1 + max(i,j)) and the weighted sum.

    For each (i, j) the sup over trials of ||[M_b, S] f|| with bmo(b) = 1 and
    ||f|| = 1 is recorded; the weighted total sums them against the geometric
    schedule 2**(-max(i,j) delta/2).
    """
    grid = grid or GridSpec(1, 6)
    reports = []
    weighted_total = 0.0
    max_ratio = 0.0
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            if max_k_level(grid, i, j) < 0:
                continue
            best = 0.0
            for t in range(trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=rng_seed, spawn_key=(i, j, t)))
                b = random_function(grid, rng)
                nb = dyadic_bmo_norm(b)
                if nb == 0.0:
                    continue
                b = b * (1.0 / nb)
                f = random_function(grid, rng)
                f = f * (1.0 / f.norm())
                S = random_shift(grid, i, j, rng)
                best = max(best, multiplication_commutator(b, S, f).norm())
            ratio = best / (1 + max(i, j))
            max_ratio = max(max_ratio, ratio)
            weighted_total += 2.0 ** (-max(i, j) * delta / 2.0) * best
            reports.append(NormReport(kind="commutator", i=i, j=j, trials=trials,
                                      max_ratio=ratio, seed=rng_seed,
                                      extra={"sup_norm": best}))
    cap = max(i_max, j_max)
    geo = geometric_constant(delta, cap)
    return {"reports": reports, "weighted_total": weighted_total,
            "max_ratio": max_ratio, "geometric_constant": geo,
            "delta": delta, "bound_ok": bool(weighted_total <= geo * max_ratio + 1e-12),
            "grid": {"d": grid.d, "N": grid.N}, "trials": trials, "seed": rng_seed}
