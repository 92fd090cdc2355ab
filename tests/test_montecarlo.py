from dataclasses import replace

import numpy as np
import pytest

from dyadlab import (DyadicFunction, GridSpec, average_operator,
                     commutator_bound_study, dense_matrix, hilbert_pattern_builder,
                     hilbert_pattern_shift, mc_representation_demo,
                     random_function, random_shift, sample_omega,
                     toeplitz_deviation, zscore_verdict)
from dyadlab import montecarlo
from dyadlab.montecarlo import _bonferroni_z
import conftest
from conftest import (commutator_bound_study_oracle, dense_shift_matrix_oracle,
                      grid_indices, grid_of_index, offsets_of_index,
                      welford_average_oracle)


BASE = GridSpec(1, 5)


def distinct_grids(base, samples, rng_seed):
    """Index and sample count of each distinct grid drawn, in index order."""
    indices, counts = np.unique(grid_indices(base, samples, rng_seed), return_counts=True)
    return indices.tolist(), counts.tolist()


def test_sample_omega_deterministic():
    a = sample_omega(BASE, 42)
    b = sample_omega(BASE, 42)
    assert a == b
    assert (a.d, a.N) == (BASE.d, BASE.N)
    assert len(a.omega) == BASE.N
    assert all(x in (0, 1) for lvl in a.omega for x in lvl)


@pytest.mark.parametrize("d,N", [(1, 2), (1, 6), (2, 4), (3, 3), (1, 12)])
def test_sample_omega_is_the_per_level_draw(d, N):
    base = GridSpec(d, N)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        want = tuple(tuple(int(x) for x in rng.integers(0, 2, size=d)) for _ in range(N))
        assert sample_omega(base, seed) == GridSpec(d, N, want)


def test_zero_offsets_are_the_base_grid():
    assert grid_of_index(BASE, 0) == GridSpec(BASE.d, BASE.N, ((0,),) * BASE.N) == BASE


def test_pattern_coefficients_at_admissible_bound():
    S = hilbert_pattern_shift(BASE)
    blocks = S.blocks
    assert np.allclose(np.abs(blocks[blocks != 0.0]), 2.0 ** -0.5)
    assert np.count_nonzero(blocks) == 2 * len(blocks)
    # signs alternate between the two children
    assert np.allclose(blocks[..., 0, 0] + blocks[..., 1, 0], 0.0)


def test_base_matrix_matches_oracle():
    # the unshifted sample's matrix is the base matrix itself
    M_base = hilbert_pattern_builder(BASE)(BASE).matrix()
    assert np.max(np.abs(M_base - dense_shift_matrix_oracle(hilbert_pattern_shift(BASE)))) < 1e-13


def test_pattern_matrix_matches_generic_apply():
    builder = hilbert_pattern_builder(BASE)
    pattern = hilbert_pattern_shift(BASE)
    for seed in range(8):
        handle = builder(sample_omega(BASE, seed))
        M = handle.matrix()
        assert np.max(np.abs(M - dense_matrix(handle))) < 1e-12
        oracle = dense_shift_matrix_oracle(replace(pattern, grid=handle.grid))
        assert np.max(np.abs(M - oracle)) < 1e-12


def test_average_operator_trivial_cases():
    g = GridSpec(1, 2)

    def zero_builder(grid):
        return np.zeros((4, 4))
    zero_builder.grid = g
    m, se, stats = average_operator(zero_builder, 10, 3)
    assert np.all(m == 0) and np.all(se == 0)

    fixed = np.arange(16.0).reshape(4, 4)

    def fixed_builder(grid):
        return fixed
    fixed_builder.grid = g
    m, se, stats = average_operator(fixed_builder, 10, 3)
    assert np.max(np.abs(m - fixed)) == 0.0
    assert np.max(se) == 0.0
    assert stats == {"samples": 10, "used": 10, "seed": 3}
    with pytest.raises(ValueError):
        average_operator(fixed_builder, 0, 3)

    # one sample: its own matrix, with zero standard error
    builder = hilbert_pattern_builder(BASE)
    m, se, stats = average_operator(builder, 1, 3)
    (index,) = grid_indices(BASE, 1, 3)
    assert np.array_equal(m, builder(grid_of_index(BASE, index)).matrix())
    assert np.all(se == 0.0)
    assert stats == {"samples": 1, "used": 1, "seed": 3}


def test_average_operator_linearity():
    g = GridSpec(1, 2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))

    # the offset of level j is bit N - j of the shift
    def build_a(grid):
        return A * (grid.shift[0] >> 1)
    def build_b(grid):
        return B * (grid.shift[0] & 1)
    def build_sum(grid):
        return 2.0 * A * (grid.shift[0] >> 1) + B * (grid.shift[0] & 1)
    for b in (build_a, build_b, build_sum):
        b.grid = g
    ma, _, _ = average_operator(build_a, 60, 5)
    mb, _, _ = average_operator(build_b, 60, 5)
    ms, _, _ = average_operator(build_sum, 60, 5)
    assert np.max(np.abs(ms - (2.0 * ma + mb))) < 1e-12


def test_average_operator_propagates_failures():
    g = GridSpec(1, 2)
    grids, counts = distinct_grids(g, 9, 1)
    assert len(grids) >= 3
    calls = []

    def flaky(grid):
        calls.append(grid)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return np.eye(4)
    flaky.grid = g
    with pytest.raises(RuntimeError, match="boom") as info:
        average_operator(flaky, 9, 1)
    # one call per distinct grid, in index order
    assert calls == [grid_of_index(g, i) for i in grids[:3]]
    assert any(f"offsets {offsets_of_index(g, grids[2])}, drawn by {counts[2]} of 9 samples"
               in note
               for note in info.value.__notes__)

    # a failing statistic is reported the same way
    def bad_statistic(M):
        raise FloatingPointError("bad")
    with pytest.raises(FloatingPointError) as info:
        montecarlo._average_stats(hilbert_pattern_builder(g), (bad_statistic,), 5, 1)
    grids, counts = distinct_grids(g, 5, 1)
    assert grids[0] == 0  # the all-zero grid, whose omega is None, names its offsets too
    assert any(f"offsets {offsets_of_index(g, grids[0])}, drawn by {counts[0]} of 5 samples"
               in note
               for note in info.value.__notes__)


def test_builder_called_once_per_distinct_grid_in_index_order():
    g = GridSpec(1, 3)
    calls = []

    def build(grid):
        calls.append(grid)
        return np.eye(g.n_samples) * grid.shift[0]
    build.grid = g
    mean, _, stats = average_operator(build, 100, 5)
    assert calls == [grid_of_index(g, i) for i in distinct_grids(g, 100, 5)[0]]
    assert len(calls) == 8 and stats["used"] == 100
    # each grid weighs as many samples as drew it
    shifts = [grid_of_index(g, i).shift[0] for i in grid_indices(g, 100, 5)]
    assert np.isclose(mean[0, 0], np.mean(shifts), rtol=1e-14)


@pytest.mark.parametrize("samples", [1, 7, 100, 5000])
@pytest.mark.parametrize("rng_seed", [0, 5, 2 ** 64 + 1])
def test_average_counts_the_samples_of_each_grid_index(samples, rng_seed):
    # the mean of the one-hot vectors of the drawn grid indices is their
    # histogram over the samples
    g = GridSpec(1, 3)

    def one_hot(grid):
        index = sum(x << lvl for lvl, (x,) in enumerate(grid.omega or ()))
        return np.eye(g.n_samples)[index]
    one_hot.grid = g
    mean, _, stats = average_operator(one_hot, samples, rng_seed)
    want = np.bincount(grid_indices(g, samples, rng_seed), minlength=g.n_samples)
    assert np.array_equal(np.rint(mean * samples), want)
    assert stats["used"] == samples


def test_average_operator_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        average_operator(hilbert_pattern_builder(BASE), 3, -1)


def _pattern_case(d, N):
    """(builder, statistics) of a fixed shift pattern on the shifted grids:
    the demo's pattern and statistics in one dimension, a random shift's
    matrix and its symmetric part in two."""
    base = GridSpec(d, N)
    if d == 1:
        return (hilbert_pattern_builder(base),
                (lambda M: M, toeplitz_deviation, lambda M: M + M.T))
    S = random_shift(base, 0, 1, 17)

    def build(grid):
        return dense_matrix(replace(S, grid=grid))
    build.grid = base
    return build, (lambda M: M, lambda M: M + M.T)


@pytest.mark.parametrize("d,N,samples", [(1, 4, 300), (1, 6, 300), (2, 2, 200), (1, 3, 8200)])
@pytest.mark.parametrize("rng_seed", [0, 3, 11])
def test_grouped_average_matches_per_sample_welford(d, N, samples, rng_seed):
    builder, fns = _pattern_case(d, N)
    scale = [0.0] * len(fns)

    def recording(n, fn):
        def run(M):
            X = fn(M)
            scale[n] = max(scale[n], float(np.max(np.abs(X))))
            return X
        return run
    want, want_stats, want_grids = welford_average_oracle(
        builder, [recording(n, fn) for n, fn in enumerate(fns)], samples, rng_seed)
    got, stats, grids = montecarlo._average_stats(builder, fns, samples, rng_seed)
    assert stats == want_stats and grids == want_grids
    for (mean, se), (want_mean, want_se), x_max in zip(got, want, scale):
        assert np.max(np.abs(mean - want_mean)) <= 1e-13 * x_max
        assert np.max(np.abs(se - want_se)) <= 1e-12 * np.max(want_se)


def test_toeplitz_deviation_is_linear_and_zero_on_circulant():
    n = 8
    col = np.arange(n, dtype=float)
    circ = np.array([[col[(r - c) % n] for c in range(n)] for r in range(n)])
    assert np.max(np.abs(toeplitz_deviation(circ))) < 1e-13
    A = np.random.default_rng(3).standard_normal((n, n))
    B = np.random.default_rng(4).standard_normal((n, n))
    lhs = toeplitz_deviation(2.0 * A + B)
    rhs = 2.0 * toeplitz_deviation(A) + toeplitz_deviation(B)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bonferroni_threshold_monotone():
    assert _bonferroni_z(1) < _bonferroni_z(100) < _bonferroni_z(10000) < 6.0


@pytest.mark.parametrize("n_tests", [1, 100, 2016, 4032, 10 ** 4, 10 ** 6])
def test_bonferroni_threshold_is_the_normal_quantile(n_tests):
    norm = pytest.importorskip("scipy.stats").norm
    want = norm.isf(0.01 / (2 * n_tests))
    assert abs(_bonferroni_z(n_tests) - want) <= 1e-14


def test_representation_demo_small():
    # reduced sample count keeps the test quick; statistics still separate the
    # averaged matrix (noise-level deviations) from a single grid
    rep = mc_representation_demo(GridSpec(1, 4), samples=800, rng_seed=11)
    assert rep["toeplitz"]["pass"]
    assert rep["antisymmetry"]["pass"]
    assert rep["single_omega_not_toeplitz"]
    assert rep["single_omega_max_dev"] > 10 * rep["averaged_max_dev"]


def test_representation_demo_is_one_pass(monkeypatch):
    base = GridSpec(1, 4)
    builder = hilbert_pattern_builder(base)

    def mapped(fn):
        def build(grid):
            return fn(builder(grid).matrix())
        build.grid = base
        return build
    want = [average_operator(builder, 50, 7)[:2],
            average_operator(mapped(toeplitz_deviation), 50, 7)[:2],
            average_operator(mapped(lambda M: M + M.T), 50, 7)[:2]]
    calls = []

    def counting_builder(grid):
        inner = hilbert_pattern_builder(grid)

        def build(grid):
            calls.append(grid)
            return inner(grid)
        build.grid = grid
        return build

    verdict_inputs = []

    def recording_verdict(mean, stderr, **kwargs):
        verdict_inputs.append((mean, stderr))
        return zscore_verdict(mean, stderr, **kwargs)

    monkeypatch.setattr(montecarlo, "hilbert_pattern_builder", counting_builder)
    monkeypatch.setattr(montecarlo, "zscore_verdict", recording_verdict)
    rep = mc_representation_demo(base, samples=50, rng_seed=7)
    # one call per distinct grid drawn, and one for the single-grid contrast
    distinct = [grid_of_index(base, i) for i in distinct_grids(base, 50, 7)[0]]
    assert calls == distinct + [sample_omega(base, 7 + 1)]
    assert rep["counters"] == {"samples": 50, "distinct_grids": len(distinct)}
    got = [(rep["mean_matrix"], rep["stderr_matrix"])] + verdict_inputs
    assert len(got) == 3
    for (mean, se), (want_mean, want_se) in zip(got, want):
        assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)


def test_representation_demo_verdicts_match_per_sample_welford(monkeypatch):
    base = GridSpec(1, 6)
    for rng_seed in range(20):
        rep = mc_representation_demo(base, samples=1000, rng_seed=rng_seed)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_average_stats", welford_average_oracle)
            want = mc_representation_demo(base, samples=1000, rng_seed=rng_seed)
        assert rep["counters"] == want["counters"]
        assert rep["single_omega_max_dev"] == want["single_omega_max_dev"]
        assert rep["single_omega_not_toeplitz"] == want["single_omega_not_toeplitz"]
        assert np.isclose(rep["averaged_max_dev"], want["averaged_max_dev"],
                          rtol=1e-12, atol=0.0)
        for key in ("toeplitz", "antisymmetry"):
            got, ref = rep[key], want[key]
            for field in ("pass", "frac_beyond_z", "n_tests", "bonferroni_z"):
                assert got[field] == ref[field], (rng_seed, key, field)
            for field in ("max_z", "max_abs"):
                assert np.isclose(got[field], ref[field], rtol=1e-12, atol=0.0)


def test_single_omega_matrix_not_toeplitz():
    builder = hilbert_pattern_builder(GridSpec(1, 5))
    M = builder(sample_omega(GridSpec(1, 5), 2)).matrix()
    assert np.max(np.abs(toeplitz_deviation(M))) > 1e-2


def test_bound_study_report(rng):
    rep = commutator_bound_study(1.0, 2, 2, trials=2, rng_seed=13,
                                 grid=GridSpec(1, 5))
    assert rep["bound_ok"]
    assert len(rep["reports"]) == 9
    assert rep["max_ratio"] > 0
    # constant-symbol commutators measure zero
    from dyadlab import multiplication_commutator, random_shift, DyadicFunction
    g = GridSpec(1, 5)
    const = DyadicFunction(g, np.ones(g.n_samples))
    S = random_shift(g, 1, 1, rng)
    assert multiplication_commutator(const, S, random_function(g, rng)).norm() < 1e-13


@pytest.mark.parametrize("i_max, j_max, key", [(-1, 2, "i_max"), (2, -1, "j_max")])
def test_bound_study_refuses_a_negative_range(i_max, j_max, key):
    # no (i, j) pair left bound_ok True over nothing
    with pytest.raises(ValueError, match=f"{key} must be at least 0, got -1$"):
        commutator_bound_study(1.0, i_max, j_max, 2, 0, grid=GridSpec(1, 3))


@pytest.mark.parametrize("delta", [3.0, 0.0])
def test_bound_study_checks_delta_before_any_trial(delta, monkeypatch):
    # delta was checked only after every trial had run
    def refuse(*args):
        raise AssertionError("a commutator ran before delta was checked")
    monkeypatch.setattr(montecarlo, "commutator_stacked", refuse)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 2\]$"):
        commutator_bound_study(delta, 1, 1, 2, 0, grid=GridSpec(1, 3))


# (grid, i_max, j_max, trials): one block at N = 6 (100 trials of 64 samples)
# and at d = 2 N = 3, 5 blocks of 8 trials at N = 10 and 2 at d = 2 N = 5
_BOUND_CASES = [(GridSpec(1, 6), 4, 4, 4), (GridSpec(2, 3), 3, 2, 5),
                (GridSpec(1, 10), 1, 1, 10), (GridSpec(2, 5), 1, 1, 3)]


@pytest.mark.parametrize("grid, i_max, j_max, trials", _BOUND_CASES, ids=str)
@pytest.mark.parametrize("seed", [0, 1, 41])
def test_bound_study_is_the_per_trial_oracle(grid, i_max, j_max, trials, seed):
    counters = {}
    got = commutator_bound_study(0.5, i_max, j_max, trials, seed, grid=grid,
                                 counters=counters)
    assert got == commutator_bound_study_oracle(0.5, i_max, j_max, trials, seed, grid=grid)
    pairs = len(got["reports"])
    width = max(1, 2 ** 13 // grid.n_samples)
    assert counters == {"pairs": pairs, "trials": trials,
                        "blocks": -(-pairs * trials // width)}


def test_bound_study_skips_a_constant_symbol(monkeypatch):
    # trial (1, 0, 2) draws a constant b: it is skipped and draws no f and
    # no shift, in the study as in the per-trial loop
    inner = conftest.random_function
    draws = []

    def constant_once(grid, rng):
        key = rng.bit_generator.seed_seq.spawn_key
        draws.append(key)
        if key == (1, 0, 2) and draws.count(key) == 1:
            return DyadicFunction(grid, np.full(grid.n_samples, 2.5))
        return inner(grid, rng)

    shifts = []
    inner_shift = montecarlo.random_shift

    def counting(grid, i, j, rng):
        shifts.append((i, j))
        return inner_shift(grid, i, j, rng)

    for module in (montecarlo, conftest):
        monkeypatch.setattr(module, "random_function", constant_once)
    monkeypatch.setattr(montecarlo, "random_shift", counting)
    grid = GridSpec(1, 4)
    got = commutator_bound_study(1.0, 1, 1, 3, 5, grid=grid)
    assert len(shifts) == 4 * 3 - 1 and shifts.count((1, 0)) == 2
    assert len(draws) == 2 * 4 * 3 - 1 and draws.count((1, 0, 2)) == 1
    draws.clear()
    assert got == commutator_bound_study_oracle(1.0, 1, 1, 3, 5, grid=grid)


def test_bound_study_memory_does_not_grow_with_trials():
    import tracemalloc
    grid = GridSpec(1, 10)  # 1024 samples: 8 trials of one (i, j) fill a block
    commutator_bound_study(1.0, 0, 0, 2, 1, grid=grid)  # fill the grid caches

    def peak(trials):
        tracemalloc.start()
        try:
            commutator_bound_study(1.0, 0, 0, trials, 1, grid=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40) <= 1.25 * peak(8)
