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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec
from .haar import forward_stacked, random_function
from .norms import (_BLOCK_SAMPLES, NormReport, _bmo_stacked, _column_norms, _in_blocks,
                    _require_trials, geometric_constant)
from .shifts import (LinearOperatorHandle, ShiftOperator, blocks_shape, dense_matrix,
                     max_k_level, multiplication_commutator_stacked, random_shift)


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
    blocks = np.zeros(blocks_shape(grid, 0, 1))
    # slot 0 is the left child 2K, slot 1 the right child 2K+1
    blocks[:, 0, 0, 0, 0] = 2.0 ** -0.5
    blocks[:, 0, 0, 1, 0] = -2.0 ** -0.5
    return ShiftOperator(grid, 0, 1, "cancellative", blocks=blocks)


def hilbert_pattern_builder(base: GridSpec):
    """omega -> handle of the fixed pattern on the shifted grid.

    The pattern's blocks and dense matrix are built once on ``base``; a
    shifted grid is a translation, so each grid reuses the blocks and rolls
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
    A builder must depend on ``omega.offsets`` alone, i.e. on the grid: the
    torus has only 2**(N*d) distinct grids, so each one drawn is built once
    and weighted by the number of samples that drew it (see
    :func:`_average_stats`). Sample i = 0, 1, ... has the replay seed
    ``SeedSequence(rng_seed).spawn(samples)[i].generate_state(1)[0]`` and the
    grid ``sample_omega(base, seed)``; all samples are drawn in one vectorized
    pass that reproduces numpy's stream, and distinct grids merge in
    first-seen order, so results are bit-stable. A builder that raises stops
    the average; the exception carries a note naming the replay seed of the
    first sample that drew that grid (``sample_omega(base, seed)`` rebuilds
    it). A negative ``rng_seed`` raises ValueError, as ``SeedSequence`` does.
    """
    [(mean, stderr)], stats, _ = _average_stats(builder, (lambda M: M,), samples,
                                                rng_seed, base)
    return mean, stderr, stats


def _average_stats(builder, fns, samples: int, rng_seed: int, base: GridSpec = None):
    """One pass of :func:`average_operator` over the seeded grids that averages
    fn(M) for every fn in ``fns`` (all of one shape); returns
    [(mean, stderr) per fn], the stats and the number of distinct grids drawn.

    :func:`_draw_grids` draws every sample's replay seed and offsets in one
    vectorized pass, and ``np.unique`` groups the samples by their offsets.
    Each distinct grid is then rebuilt by ``sample_omega`` from the seed of
    the first sample that drew it, checked against the batch draw (a
    mismatch raises RuntimeError before anything merges), built and scored
    once, in first-seen order. Its ``count`` identical values merge into the
    running mean and sum of squared deviations by the pairwise update of
    Chan, Golub & LeVeque (1983). Groups are streamed: no matrix outlives its
    merge.
    """
    base = base or getattr(builder, "grid", None)
    if not isinstance(base, GridSpec):
        raise ValueError("builder must expose its base grid (builder.grid or base=)")
    if samples < 1:
        raise ValueError(f"need at least one Monte Carlo sample, got {samples}")
    seeds, keys = _draw_grids(base, samples, rng_seed)
    _, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(firsts)
    used, mean, msq = 0, None, None
    for first, count in zip(firsts[order].tolist(), counts[order].tolist()):
        number, omega = first + 1, sample_omega(base, int(seeds[first]))
        if _offsets_key(omega.offsets) != keys[first]:
            raise RuntimeError(f"Monte Carlo sample {number} of {samples}: the batch "
                               f"draw disagrees with sample_omega(base, {omega.seed})")
        try:
            handle = builder(omega)
            M = handle.matrix() if isinstance(handle, LinearOperatorHandle) \
                else np.asarray(handle, dtype=float)
            X = np.stack([fn(M) for fn in fns])
        except BaseException as exc:  # annotated and re-raised, never dropped
            exc.add_note(f"Monte Carlo sample {number} of {samples}, "
                         f"replay seed {omega.seed}")
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
    return out, {"samples": samples, "used": used, "seed": rng_seed}, len(firsts)


# ---------------------------------------------------------------------------
# The batch draw: numpy's per-sample seeding and offset draw, on arrays over
# samples. Constants are numpy's SeedSequence hash (numpy/random/
# bit_generator.pyx) and PCG64's 128-bit LCG multiplier (pcg64.h).

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _draw_grids(base: GridSpec, samples: int, rng_seed: int):
    """Replay seeds (uint32) and packed offsets (uint64) of samples
    0..samples-1, bit for bit those of the per-sample loop

        seed = SeedSequence(rng_seed).spawn(samples)[i].generate_state(1)[0]
        offsets = sample_omega(base, seed).offsets

    with offset a of level j at bit (j - 1) * d + a of the key. Samples are
    drawn in blocks of ``_BLOCK_SAMPLES``, so the temporaries do not grow
    with ``samples``. A negative ``rng_seed`` raises ValueError.
    """
    rng_seed = operator.index(rng_seed)
    if rng_seed < 0:
        raise ValueError(f"expected a non-negative seed, got {rng_seed}")
    root = [np.array([rng_seed >> s & _M32], dtype=np.uint32)
            for s in range(0, max(rng_seed.bit_length(), 1), 32)]
    # with a spawn key, numpy pads the root entropy to the pool size
    root += [np.zeros(1, dtype=np.uint32)] * (4 - len(root))
    seeds, keys = [], []
    for start in range(0, samples, _BLOCK_SAMPLES):
        child = np.arange(start, min(start + _BLOCK_SAMPLES, samples), dtype=np.uint32)
        seed = _generate_state(_mix_entropy(root + [child]), 1)[0]
        seeds.append(seed)
        keys.append(_default_rng_keys(seed, base.N * base.d))
    return np.concatenate(seeds), np.concatenate(keys)


def _offsets_key(offsets: tuple) -> int:
    """The packed key of ``OmegaSample.offsets``, as :func:`_draw_grids` packs it."""
    bits = [x for level in offsets for x in level]
    return sum(x << b for b, x in enumerate(bits))


def _hashmix(value, hashes):
    """SeedSequence's hashmix of uint32 words, with the next hash constants."""
    xor, mult = next(hashes)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constants of successive hashmix calls."""
    while True:
        nxt = init * mult & _M32
        yield init, nxt
        init = nxt


def _mix_entropy(words: list) -> list:
    """SeedSequence's 4-word pool of the uint32 entropy ``words`` (arrays
    that broadcast against each other)."""
    hashes = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [_hashmix(words[i] if i < len(words) else zero, hashes) for i in range(4)]

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ out >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], _hashmix(pool[src], hashes))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], _hashmix(word, hashes))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) of ``pool``, as uint32 word arrays."""
    hashes = _hash_constants(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % 4], hashes) for i in range(n_words)]


def _default_rng_keys(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    """Packed ``default_rng(seed).integers(0, 2, n_bits)`` per uint32 seed.

    Each PCG64 output steps the LCG once and returns the 64-bit xsl-rr of its
    state; ``integers(0, 2)`` takes the top bit of a 32-bit half of an
    output, low half first.
    """
    hi, lo, inc = _pcg64_seeded(seeds)
    hi, lo = _pcg64_step(hi, lo, inc)  # the last step of the seeding
    key = np.zeros(seeds.shape, dtype=np.uint64)
    for b in range(n_bits):
        if b % 2 == 0:
            hi, lo = _pcg64_step(hi, lo, inc)
            xsl, rot = hi ^ lo, hi >> 58
        # the output is xsl rotated right by rot: its bit 31 (63) is bit
        # 31 + rot (63 + rot) of xsl, mod 64
        key |= (xsl >> ((31 + 32 * (b % 2) + rot) & 63) & 1) << b
    return key


def _pcg64_seeded(seeds: np.ndarray):
    """PCG64's state (high and low uint64 halves) before the last step of
    ``default_rng(seed)``'s seeding, and its increment, per uint32 seed.

    The state s and the stream t come from ``SeedSequence(seed).
    generate_state(4, uint64)``, each 128 bits with its high half first; the
    increment is 2t + 1, and the LCG starts at 0, steps, adds s and steps.
    """
    words = _generate_state(_mix_entropy([seeds]), 8)
    s_hi, s_lo, t_hi, t_lo = (words[i].astype(np.uint64) | words[i + 1].astype(np.uint64) << 32
                              for i in range(0, 8, 2))
    inc = (t_hi << 1 | t_lo >> 63, t_lo << 1 | 1)
    lo = inc[1] + s_lo
    return inc[0] + s_hi + (lo < s_lo), lo, inc


def _pcg64_step(hi, lo, inc):
    """The LCG step x -> x * MULT + inc mod 2**128 on (high, low) uint64
    halves; the high half of lo * MULT_LO is formed from 32-bit halves."""
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    a0, a1 = lo & _M32, lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc[0])
    lo = lo * _PCG_MULT_LO + inc[1]
    return hi + (lo < inc[1]), lo


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
                           rng_seed: int, grid: GridSpec = None,
                           counters: dict = None) -> dict:
    """Per-(i,j) commutator norms against (1 + max(i,j)) and the weighted sum.

    For each (i, j) the sup over trials of ||[M_b, S] f|| with bmo(b) = 1 and
    ||f|| = 1 is recorded; the weighted total sums them against the geometric
    schedule 2**(-max(i,j) delta/2). ``trials`` must be at least 1.

    Trial (i, j, t) draws b, then f, then its shift from
    ``SeedSequence(entropy=rng_seed, spawn_key=(i, j, t))``; a b of BMO norm
    0 is skipped before f is drawn. The trials run in loop order in blocks
    of max(1, 2**13 // n_samples) trials, over every (i, j), so memory does
    not grow with ``trials``. A block transforms its b stack once for the
    BMO norms and runs one ``multiplication_commutator_stacked`` with one
    symbol and one shift per column; every norm is taken per column, so each
    trial keeps the bits it has when run alone. A ``counters`` dict receives
    {"pairs", "trials", "blocks"}, ``trials`` counted per pair.
    """
    _require_trials(trials)
    grid = grid or GridSpec(1, 6)
    volume = grid.cell_volume
    pairs = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)
             if max_k_level(grid, i, j) >= 0]
    best = dict.fromkeys(pairs, 0.0)

    def run_block(keys: list) -> None:
        """Run the trials ``keys`` as one block and fold their norms into
        ``best``; the block's arrays are freed on return."""
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=key))
                for key in keys]
        b = np.stack([random_function(grid, rng).samples for rng in rngs], axis=1)
        nb = _bmo_stacked(grid, forward_stacked(grid, b))
        live = np.flatnonzero(nb != 0.0)
        if live.size == 0:
            return
        b = b[:, live] * (1.0 / nb[live])
        f = np.stack([random_function(grid, rngs[c]).samples for c in live], axis=1)
        f = f * (1.0 / _column_norms(f, volume))
        shifts = [random_shift(grid, *keys[c][:2], rngs[c]) for c in live]
        out = multiplication_commutator_stacked(b, shifts, f)
        for c, norm in zip(live, _column_norms(out, volume)):
            pair = keys[c][:2]
            best[pair] = max(best[pair], float(norm))

    blocks = _in_blocks((pair + (t,) for pair in pairs for t in range(trials)),
                        grid.n_samples, run_block)
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
    cap = max(i_max, j_max)
    geo = geometric_constant(delta, cap)
    return {"reports": reports, "weighted_total": weighted_total,
            "max_ratio": max_ratio, "geometric_constant": geo,
            "delta": delta, "bound_ok": bool(weighted_total <= geo * max_ratio + 1e-12),
            "grid": {"d": grid.d, "N": grid.N}, "trials": trials, "seed": rng_seed}
