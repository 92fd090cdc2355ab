import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     LinearOperatorHandle, ShiftOperator, haar_function,
                     inner_product, multiplication_commutator,
                     noncancellative_shift, operator_norm,
                     random_function, random_shift)
from dyadlab import shifts
from dyadlab.grids import DepthError, WrongKindError
from dyadlab.haar import fold_noncancellative, forward_stacked, scaling_levels
from dyadlab.norms import dyadic_bmo_norm
from dyadlab.shifts import expected_coefficient_count, max_k_level
from conftest import dense_matrix, dense_shift_matrix_oracle


def test_coefficient_count_formula():
    # included K-levels stop where both Haar slots stay cancellative
    g = GridSpec(1, 3)
    S = random_shift(g, 1, 1, 0)
    # K at levels 0..N-1-max(i,j): (1 + 2) cubes x 2 I-slots x 2 J-slots
    assert S.coefficient_count() == expected_coefficient_count(g, 1, 1) == 12
    g6 = GridSpec(1, 6)
    assert expected_coefficient_count(g6, 0, 0) == 63
    g2 = GridSpec(2, 3)
    S2 = random_shift(g2, 1, 0, 1)
    assert S2.coefficient_count() == expected_coefficient_count(g2, 1, 0) \
        == (1 + 4) * 4 * 3 * 1 * 3


def test_depth_error():
    with pytest.raises(DepthError):
        random_shift(GridSpec(1, 2), 2, 0, 0)
    assert max_k_level(GridSpec(1, 4), 1, 2) == 1


def test_coefficient_bound_by_construction():
    g = GridSpec(2, 3)
    S = random_shift(g, 1, 1, 3)
    bound = 2.0 ** (-g.d * 2 / 2.0)
    for block in S.blocks:
        assert np.max(np.abs(block)) <= bound + 1e-15


def test_single_coefficient_apply_example():
    # a_KKK = 1 at the root, i=j=0: Sf = <f,h> h, f=[1,3] -> [-1,1]
    g = GridSpec(1, 1)
    blocks = (np.ones((1, 1, 1, 1, 1)),)
    S = ShiftOperator(g, 0, 0, "cancellative", blocks=blocks)
    out = S.apply(DyadicFunction(g, [1.0, 3.0]))
    assert np.allclose(out.samples, [-1.0, 1.0])


def test_apply_matches_dense_oracle(rng):
    for (d, N, i, j) in [(1, 3, 0, 0), (1, 4, 1, 2), (2, 3, 1, 1)]:
        g = GridSpec(d, N)
        S = random_shift(g, i, j, rng)
        M = dense_shift_matrix_oracle(S)
        for _ in range(3):
            f = random_function(g, rng)
            assert np.max(np.abs(S.apply(f).samples - M @ f.samples)) < 1e-12


def test_cancellative_kills_constants(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    const = DyadicFunction(g, np.full(g.n_samples, 2.5))
    assert S.apply(const).norm() < 1e-13
    zero = ShiftOperator(g, 1, 1, "cancellative",
                         blocks=tuple(np.zeros_like(b) for b in S.blocks))
    assert zero.apply(random_function(g, rng)).norm() == 0.0


def test_contraction_property(rng):
    for (d, N, i, j) in [(1, 5, 0, 0), (1, 5, 2, 1), (2, 3, 1, 1), (2, 2, 0, 0)]:
        g = GridSpec(d, N)
        for trial in range(5):
            S = random_shift(g, i, j, int(rng.integers(0, 2 ** 31)))
            for _ in range(5):
                f = random_function(g, rng)
                assert S.apply(f).norm() <= (1 + 1e-12) * f.norm()


def test_adjoint_consistency(rng):
    g = GridSpec(2, 3)
    S = random_shift(g, 1, 0, rng)
    St = S.adjoint()
    for _ in range(5):
        f = random_function(g, rng)
        h = random_function(g, rng)
        assert abs(inner_product(S.apply(f), h)
                   - inner_product(f, St.apply(h))) < 1e-11


def test_noncancellative_shift(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    assert abs(dyadic_bmo_norm(S.symbol) - 1.0) < 1e-10
    assert "symbol_scale" in S.meta
    M = dense_shift_matrix_oracle(S)
    f = random_function(g, rng)
    assert np.max(np.abs(S.apply(f).samples - M @ f.samples)) < 1e-12
    # zero symbol -> zero operator
    zero = noncancellative_shift(g, DyadicFunction(g, np.zeros(g.n_samples)))
    assert zero.apply(f).norm() == 0.0
    # coefficient bound |a_I| <= 1 follows from the BMO normalization
    for lvl, arr in enumerate(S.symbol_coefficients()):
        assert np.max(np.abs(arr)) <= 1.0 + 1e-10
    with pytest.raises(WrongKindError):
        random_shift(g, 1, 0, rng, kind="noncancellative")
    with pytest.raises(ValueError):
        noncancellative_shift(g, S.symbol * 3.0)


def test_grid_mismatch():
    S = random_shift(GridSpec(1, 3), 0, 0, 0)
    f = random_function(GridSpec(1, 4), np.random.default_rng(0))
    with pytest.raises(ValueError):
        S.apply(f)


def test_commutator_basics(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    fconst = DyadicFunction(g, np.ones(g.n_samples))
    # constants commute
    assert multiplication_commutator(fconst * 2.0, S, random_function(g, rng)).norm() < 1e-13
    assert multiplication_commutator(fconst, S, fconst).norm() < 1e-13
    # mean invariance: [M_(b+c), T] = [M_b, T]
    b = random_function(g, rng)
    f = random_function(g, rng)
    lhs = multiplication_commutator(b, S, f)
    rhs = multiplication_commutator(b + fconst * 3.3, S, f)
    assert (lhs - rhs).norm() < 1e-12


def test_commutator_vanishing_region(rng):
    # [h_I, S] h_J = 0 whenever I strictly contains J^(i); checked over all
    # such cancellative pairs at N=4
    g = GridSpec(1, 4)
    for (i, j) in [(1, 1), (2, 1), (0, 2)]:
        S = random_shift(g, i, j, rng)
        checked = 0
        for lj in range(g.N):
            for mj in range(g.n_cubes(lj)):
                J = DyadicCube(lj, g.pos_from_flat(mj, lj))
                if lj < i:
                    continue
                anc = g.ancestor(J, i)
                for li in range(anc.level):
                    I = g.ancestor(anc, anc.level - li)
                    hI = haar_function(g, HaarIndex(I, (0,)))
                    hJ = haar_function(g, HaarIndex(J, (0,)))
                    assert multiplication_commutator(hI, S, hJ).norm() < 1e-12
                    checked += 1
        assert checked > 0


def test_operator_norm_trivial_cases():
    g = GridSpec(1, 4)
    zero = LinearOperatorHandle(g, lambda x: x * 0.0)
    assert operator_norm(zero) == 0.0
    ident = LinearOperatorHandle(g, lambda x: x)
    assert abs(operator_norm(ident) - 1.0) < 1e-12


def test_power_iteration_matches_repeated_squaring(rng):
    # operator_norm, once a power iteration, is now an exact SVD; the
    # repeated-squaring oracle and its bound are unchanged
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    M = dense_matrix(S, g)
    # repeated-squaring oracle: lambda_max(B) = lim ||B^(2^t)||_F ** (1/2^t)
    B = M.T @ M
    log_lambda = 0.0
    weight = 1.0
    for _ in range(40):
        fro = np.linalg.norm(B)
        B = B / fro
        log_lambda += np.log(fro) * weight
        B = B @ B
        weight /= 2.0
    sigma_oracle = np.exp(0.5 * log_lambda)
    est = operator_norm(S)
    assert abs(est - sigma_oracle) / sigma_oracle < 1e-6


def test_operator_norm_matches_oracle_svd_noncancellative(rng):
    g = GridSpec(1, 5)
    for orientation in ("analysis", "synthesis"):
        S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
        M = dense_shift_matrix_oracle(S)
        assert np.max(np.abs(shifts.dense_matrix(S) - M)) < 1e-12
        exact = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(operator_norm(S) - exact) <= 1e-12 * exact


def test_symbol_transformed_once(rng, monkeypatch):
    g = GridSpec(1, 5)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    symbol_transforms = []

    def counting(grid, x):
        if x is S.symbol.samples:
            symbol_transforms.append(1)
        return forward_stacked(grid, x)
    monkeypatch.setattr(shifts, "forward_stacked", counting)
    f = random_function(g, rng)
    outs = [S.apply(f) for _ in range(10)]
    assert len(symbol_transforms) <= 1
    assert np.max(np.abs(outs[-1].samples - dense_shift_matrix_oracle(S) @ f.samples)) < 1e-12
    # the cached coefficients cannot be changed behind the operator's back
    with pytest.raises(ValueError):
        S.symbol_coefficients()[0][0, 0] = 5.0


def noncancellative_apply_loop(S, x):
    """Per-level noncancellative shift: analysis reads each level's scaling
    pairings, synthesis folds each level's signature sums."""
    g = S.grid
    out = np.zeros_like(x)
    acoef = [a.reshape(a.shape + (1,) * (x.ndim - 1)) for a in S.symbol_coefficients()]
    if S.orientation == "analysis":
        scal = scaling_levels(g, x)
        for lvl in range(g.N):
            g.level_block(out, lvl)[...] += acoef[lvl] * scal[lvl][:, None]
    else:
        out += fold_noncancellative(g, {lvl: (acoef[lvl] * g.level_block(x, lvl)).sum(axis=1)
                                        for lvl in range(g.N)})
    return out


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
                               GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))], ids=repr)
@pytest.mark.parametrize("orientation", ["analysis", "synthesis"])
def test_noncancellative_extended_layout_matches_the_level_loop(g, orientation, rng):
    S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
    for passive in ((), (3,), (2, 2)):
        x = rng.standard_normal((g.n_samples,) + passive)
        assert np.array_equal(S.apply_stacked(x), noncancellative_apply_loop(S, x))


def test_handle_linearity_probe(rng):
    g = GridSpec(1, 4)
    S = LinearOperatorHandle(g, random_shift(g, 0, 1, rng).apply_samples)
    f = random_function(g, rng).samples
    h = random_function(g, rng).samples
    lhs = S.apply_samples(2.0 * f + h)
    rhs = S.apply_samples(f) * 2.0 + S.apply_samples(h)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(lhs), 1.0)
