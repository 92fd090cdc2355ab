from dataclasses import replace

import numpy as np
import pytest

from dyadlab import (GridSpec, OmegaSample, average_operator,
                     commutator_bound_study, dense_matrix, hilbert_pattern_builder,
                     hilbert_pattern_shift, mc_representation_demo,
                     random_function, sample_omega, shifted_grid,
                     toeplitz_deviation, zscore_verdict)
from dyadlab import montecarlo
from dyadlab.montecarlo import _bonferroni_z
from conftest import dense_shift_matrix_oracle


BASE = GridSpec(1, 5)


def test_sample_omega_deterministic():
    a = sample_omega(BASE, 42)
    b = sample_omega(BASE, 42)
    assert a == b
    assert len(a.offsets) == BASE.N
    assert all(x in (0, 1) for lvl in a.offsets for x in lvl)


def test_shifted_grid_identity_and_offsets():
    zero = OmegaSample(tuple((0,) for _ in range(BASE.N)), 0)
    assert shifted_grid(BASE, zero) == BASE


def test_pattern_coefficients_at_admissible_bound():
    S = hilbert_pattern_shift(BASE)
    for block in S.blocks:
        vals = np.abs(block[block != 0.0])
        assert np.allclose(vals, 2.0 ** -0.5)
    # signs alternate between the two children
    assert np.allclose(block[..., 0, 0] + block[..., 1, 0], 0.0)


def test_base_matrix_matches_oracle():
    # the unshifted sample's matrix is the base matrix itself
    zero = OmegaSample(tuple((0,) for _ in range(BASE.N)), 0)
    M_base = hilbert_pattern_builder(BASE)(zero).matrix()
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

    def zero_builder(om):
        return np.zeros((4, 4))
    zero_builder.grid = g
    m, se, stats = average_operator(zero_builder, 10, 3)
    assert np.all(m == 0) and np.all(se == 0)

    fixed = np.arange(16.0).reshape(4, 4)

    def fixed_builder(om):
        return fixed
    fixed_builder.grid = g
    m, se, stats = average_operator(fixed_builder, 10, 3)
    assert np.max(np.abs(m - fixed)) == 0.0
    assert np.max(se) == 0.0
    assert stats == {"samples": 10, "used": 10, "seed": 3}
    with pytest.raises(ValueError):
        average_operator(fixed_builder, 0, 3)


def test_average_operator_linearity():
    g = GridSpec(1, 2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))

    def build_a(om):
        return A * om.offsets[0][0]
    def build_b(om):
        return B * om.offsets[1][0]
    def build_sum(om):
        return 2.0 * A * om.offsets[0][0] + B * om.offsets[1][0]
    for b in (build_a, build_b, build_sum):
        b.grid = g
    ma, _, _ = average_operator(build_a, 60, 5)
    mb, _, _ = average_operator(build_b, 60, 5)
    ms, _, _ = average_operator(build_sum, 60, 5)
    assert np.max(np.abs(ms - (2.0 * ma + mb))) < 1e-12


def test_average_operator_propagates_failures():
    g = GridSpec(1, 2)
    seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(1).spawn(9)]
    calls = []

    def flaky(om):
        calls.append(om.seed)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return np.eye(4)
    flaky.grid = g
    with pytest.raises(RuntimeError, match="boom") as info:
        average_operator(flaky, 9, 1)
    assert calls == seeds[:3]
    assert any(f"replay seed {seeds[2]}" in note for note in info.value.__notes__)

    # a failing statistic is reported the same way
    def bad_statistic(M):
        raise FloatingPointError("bad")
    with pytest.raises(FloatingPointError) as info:
        montecarlo._average_stats(hilbert_pattern_builder(g), (bad_statistic,), 5, 1)
    assert any(f"replay seed {seeds[0]}" in note for note in info.value.__notes__)


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
        def build(omega):
            return fn(builder(omega).matrix())
        build.grid = base
        return build
    want = [average_operator(builder, 50, 7)[:2],
            average_operator(mapped(toeplitz_deviation), 50, 7)[:2],
            average_operator(mapped(lambda M: M + M.T), 50, 7)[:2]]
    calls = []

    def counting_builder(grid):
        inner = hilbert_pattern_builder(grid)

        def build(omega):
            calls.append(omega.seed)
            return inner(omega)
        build.grid = grid
        return build

    verdict_inputs = []

    def recording_verdict(mean, stderr, **kwargs):
        verdict_inputs.append((mean, stderr))
        return zscore_verdict(mean, stderr, **kwargs)

    monkeypatch.setattr(montecarlo, "hilbert_pattern_builder", counting_builder)
    monkeypatch.setattr(montecarlo, "zscore_verdict", recording_verdict)
    rep = mc_representation_demo(base, samples=50, rng_seed=7)
    assert len(calls) == 50 + 1
    got = [(rep["mean_matrix"], rep["stderr_matrix"])] + verdict_inputs
    assert len(got) == 3
    for (mean, se), (want_mean, want_se) in zip(got, want):
        assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)


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
