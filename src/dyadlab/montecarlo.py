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
import math
from dataclasses import replace

import numpy as np

from .grids import GridSpec
from .haar import forward_stacked
from .norms import (NormReport, _bmo_stacked, _column_norms, _in_blocks, _require_at_least,
                    _trial_rng, geometric_constant)
from .shifts import (LinearOperatorHandle, ShiftOperator, blocks_shape, dense_matrix,
                     max_k_level, commutator_stacked, random_shift)


def sample_omega(base: GridSpec, rng_seed: int) -> GridSpec:
    """The base grid shifted by per-level offsets omega_j drawn i.i.d.
    uniform on {0,1}^d; reproducible from the seed. Its translation is
    sum_j 2**(N-j) omega_j finest cells per axis (see :mod:`dyadlab.grids`),
    so uniform offsets give a uniform translation."""
    offsets = np.random.default_rng(rng_seed).integers(0, 2, size=(base.N, base.d))
    return GridSpec(base.d, base.N, offsets.tolist())


def hilbert_pattern_shift(grid: GridSpec) -> ShiftOperator:
    """Fixed (i,j) = (0,1) pattern: coefficients at the admissible bound with
    alternating child signs, the dyadic model of an antisymmetric kernel."""
    if grid.d != 1:
        raise ValueError("the fixed demo pattern is one-dimensional")
    blocks = np.zeros(blocks_shape(grid, 0, 1))
    # slot 0 is the left child 2K, slot 1 the right child 2K+1
    blocks[:, 0, 0, 0, 0] = 2.0 ** -0.5
    blocks[:, 0, 0, 1, 0] = -2.0 ** -0.5
    return ShiftOperator(grid, 0, 1, "cancellative", blocks=blocks)


def hilbert_pattern_builder(base: GridSpec):
    """Shifted grid -> handle of the fixed pattern on it.

    The pattern's blocks and dense matrix are built once on ``base``; a
    shifted grid is a translation, so each grid rolls the matrix by the
    grid's shift along both axes. The shift on the shifted grid, which
    reuses the blocks, is built only when the handle's ``apply_samples`` is
    called: the average reads ``matrix()`` alone.
    """
    pattern = hilbert_pattern_shift(base)
    M_base = dense_matrix(pattern)

    def build(g: GridSpec) -> LinearOperatorHandle:
        s = g.shift[0]
        return LinearOperatorHandle(g, lambda x: replace(pattern, grid=g).apply_samples(x),
                                    matrix_fn=lambda: np.roll(M_base, (s, s), axis=(0, 1)))

    build.grid = base
    return build


def average_operator(builder, samples: int, rng_seed: int):
    """Monte Carlo mean and per-entry standard error of builder(grid) matrices.

    ``builder`` maps a shifted grid of its base grid ``builder.grid`` to a
    LinearOperatorHandle (or directly to a dense matrix). It sees only the
    grid, so the average depends only on how many of the ``samples`` drew
    each of the 2**(N*d) grids: every sample draws a grid index uniformly,
    and each distinct grid is built once and weighted by its count (see
    :func:`_average_stats`). Results are bit-stable for a given
    ``rng_seed``. A builder that raises stops the average; the exception
    carries a note naming the grid's offsets and how many samples drew it.
    A negative ``rng_seed`` raises ValueError, as ``np.random.default_rng``
    does.
    """
    [(mean, stderr)], stats, _ = _average_stats(builder, (lambda M: M,), samples, rng_seed)
    return mean, stderr, stats


def _average_stats(builder, fns, samples: int, rng_seed: int):
    """One pass of :func:`average_operator` over the seeded grids that averages
    fn(M) for every fn in ``fns`` (all of one shape); returns
    [(mean, stderr) per fn], the stats and the number of distinct grids drawn.

    Every sample's grid index is drawn in one call of
    ``default_rng(rng_seed).integers(0, 2**(N*d), size=samples)``; offset a
    of level j is bit (j - 1) * d + a of the index. ``np.unique`` counts the
    samples of each index, and each distinct grid is built and scored once,
    in index order. Its ``count`` identical values merge into the running
    mean and sum of squared deviations by the pairwise update of Chan, Golub
    & LeVeque (1983). Grids are streamed: no matrix outlives its merge.
    """
    base = getattr(builder, "grid", None)
    if not isinstance(base, GridSpec):
        raise ValueError("builder must expose its base grid as builder.grid")
    if samples < 1:
        raise ValueError(f"need at least one Monte Carlo sample, got {samples}")
    indices = np.random.default_rng(rng_seed).integers(0, base.n_samples, size=samples)
    grids, counts = np.unique(indices, return_counts=True)
    used, mean, msq = 0, None, None
    for index, count in zip(grids.tolist(), counts.tolist()):
        offsets = tuple(tuple(index >> (lvl * base.d + a) & 1 for a in range(base.d))
                        for lvl in range(base.N))
        try:
            handle = builder(GridSpec(base.d, base.N, offsets))
            M = handle.matrix() if isinstance(handle, LinearOperatorHandle) \
                else np.asarray(handle, dtype=float)
            X = np.stack([fn(M) for fn in fns])
        except BaseException as exc:  # annotated and re-raised, never dropped
            exc.add_note(f"Monte Carlo grid with offsets {offsets}, "
                         f"drawn by {count} of {samples} samples")
            raise
        if mean is None:
            mean, msq = np.zeros_like(X), np.zeros_like(X)
        total = used + count
        delta = X - mean
        mean += delta * (count / total)
        msq += delta * delta * (used * count / total)
        used = total
    out = [(m, np.sqrt(q / (used - 1) / used) if used > 1 else np.zeros_like(m))
           for m, q in zip(mean, msq)]
    return out, {"samples": samples, "used": used, "seed": rng_seed}, len(grids)


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


# Wichura's AS241 rational approximations, (numerator, denominator) of each
# branch, highest degree first: the central one in r = 0.180625 - q**2,
# q = p - 0.5, then the two tails in s - 1.6 (s <= 5) or s - 5, where
# s = sqrt(-log(min(p, 1 - p))).
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _normal_quantile(p: float) -> float:
    """The standard normal quantile of p in (0, 1), by AS241 (Wichura,
    *Appl. Statist.* 37, 1988) evaluated as ``statistics.NormalDist().inv_cdf``
    evaluates it, so the two agree bit for bit."""
    def poly(coefs, r):
        return functools.reduce(lambda acc, c: acc * r + c, coefs)
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num, den = _AS241[0]
        return poly(num, r) * q / poly(den, r)
    r = math.sqrt(-math.log(p if q <= 0.0 else 1.0 - p))
    (num, den), r = (_AS241[1], r - 1.6) if r <= 5.0 else (_AS241[2], r - 5.0)
    x = poly(num, r) / poly(den, r)
    return -x if q < 0.0 else x


def _bonferroni_z(n_tests: int, alpha: float = 0.01) -> float:
    """Two-sided familywise z threshold for ``n_tests`` simultaneous tests:
    the normal quantile of 1 - alpha / (2 n_tests), computed in-house by
    AS241 (Wichura, *Appl. Statist.* 1988; see :func:`_normal_quantile`)."""
    return -_normal_quantile(alpha / (2 * max(n_tests, 1)))


def zscore_verdict(mean: np.ndarray, stderr: np.ndarray, mask: np.ndarray) -> dict:
    """Is an averaged statistic consistent with zero, on the entries that the
    boolean ``mask`` selects, given its standard errors?

    Reports the per-entry picture (fraction beyond 3 sigma, which for pure
    noise stays near 0.3%) and a familywise verdict at the Bonferroni-corrected
    threshold: with thousands of simultaneous entries a few ~3 sigma
    excursions are expected, so per-entry 3 sigma is a note, not a hard
    tolerance.
    """
    se = np.maximum(stderr, 1e-300)
    zs = (np.abs(mean) / se)[mask]
    zcrit = _bonferroni_z(zs.size)
    return {"max_z": float(np.max(zs)) if zs.size else 0.0,
            "frac_beyond_z": float(np.mean(zs > 3.0)) if zs.size else 0.0,
            "per_entry_z": 3.0,
            "bonferroni_z": zcrit,
            "pass": bool(zs.size == 0 or np.max(zs) <= zcrit),
            "max_abs": float(np.max(np.abs(mean[mask]))) if zs.size else 0.0,
            "n_tests": int(zs.size)}


def mc_representation_demo(base: GridSpec, samples: int, rng_seed: int) -> dict:
    """Average the fixed shift pattern over random grids and test the emergent
    translation invariance and antisymmetry.

    The Toeplitz and antisymmetry statistics are averaged over the sampled
    grids (not reconstructed from the mean matrix), so their standard errors
    honestly reflect cross-entry correlations. A single-grid sample is
    reported for contrast: its Toeplitz deviation is orders of magnitude above
    the average. ``counters`` holds the sample count and the number of
    distinct grids among the samples.
    """
    builder = hilbert_pattern_builder(base)
    averages, stats, distinct = _average_stats(
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
            "mean_matrix": mean, "stderr_matrix": stderr,
            "counters": {"samples": samples, "distinct_grids": distinct}}


# ---------------------------------------------------------------------------
# Commutator bound study.


def commutator_bound_study(delta: float, i_max: int, j_max: int, trials: int,
                           rng_seed: int, grid: GridSpec, counters: dict = None) -> dict:
    """Per-(i,j) commutator norms against (1 + max(i,j)) and the weighted sum.

    For each (i, j) the sup over trials of ||[M_b, S] f|| with bmo(b) = 1 and
    ||f|| = 1 is recorded; the weighted total sums them against the geometric
    schedule 2**(-max(i,j) delta/2). ``trials`` must be at least 1,
    ``i_max`` and ``j_max`` at least 0, and ``delta`` in (0, 2], all checked
    before any trial runs.

    Trial (i, j, t) draws b, then f (``standard_normal(n_samples)`` each),
    then its shift from ``_trial_rng(rng_seed, i, j, t)``; a b of BMO norm
    0 is skipped before f is drawn. The trials run in loop order in blocks
    of max(1, 2**13 // n_samples) trials, over every (i, j), so memory does
    not grow with ``trials``. A block transforms its b stack once for the
    BMO norms and runs one ``commutator_stacked`` with one
    symbol and one shift per column; every norm is taken per column, so each
    trial keeps the bits it has when run alone. A ``counters`` dict receives
    {"pairs", "trials", "blocks"}, ``trials`` counted per pair.
    """
    _require_at_least(1, trials=trials)
    _require_at_least(0, i_max=i_max, j_max=j_max)
    geo = geometric_constant(delta, max(i_max, j_max))  # checks delta before any draw
    n, volume = grid.n_samples, grid.cell_volume
    pairs = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)
             if max_k_level(grid, i, j) >= 0]
    best = dict.fromkeys(pairs, 0.0)

    def run_block(keys: list) -> None:
        """Run the trials ``keys`` as one block and fold their norms into
        ``best``; the block's arrays are freed on return."""
        rngs = [_trial_rng(rng_seed, *key) for key in keys]
        b = np.stack([rng.standard_normal(n) for rng in rngs], axis=1)
        nb = _bmo_stacked(grid, forward_stacked(grid, b))
        live = np.flatnonzero(nb != 0.0)
        if live.size == 0:
            return
        b = b[:, live] * (1.0 / nb[live])
        f = np.stack([rngs[c].standard_normal(n) for c in live], axis=1)
        f = f * (1.0 / _column_norms(f, volume))
        shifts = [random_shift(grid, *keys[c][:2], rngs[c]) for c in live]
        out = commutator_stacked(b, (shifts,), f)
        for c, norm in zip(live, _column_norms(out, volume)):
            pair = keys[c][:2]
            best[pair] = max(best[pair], float(norm))

    blocks = _in_blocks((pair + (t,) for pair in pairs for t in range(trials)),
                        n, run_block)
    if counters is not None:
        counters.update(pairs=len(pairs), trials=trials, blocks=blocks)
    reports = []
    weighted_total = 0.0
    max_ratio = 0.0
    for (i, j), sup in best.items():
        ratio = sup / (1 + max(i, j))
        max_ratio = max(max_ratio, ratio)
        weighted_total += 2.0 ** (-max(i, j) * delta / 2.0) * sup
        reports.append(NormReport(kind="commutator", i=i, j=j, trials=trials,
                                  max_ratio=ratio, seed=rng_seed,
                                  extra={"sup_norm": sup}))
    return {"reports": reports, "weighted_total": weighted_total,
            "max_ratio": max_ratio, "geometric_constant": geo,
            "delta": delta, "bound_ok": bool(weighted_total <= geo * max_ratio + 1e-12),
            "grid": {"d": grid.d, "N": grid.N}, "trials": trials, "seed": rng_seed}
