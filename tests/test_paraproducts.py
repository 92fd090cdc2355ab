import tracemalloc

import numpy as np
import pytest

from dyadlab import (BkOperator, DyadicCube, DyadicFunction, GridSpec,
                     HaarIndex, apply_Bk, apply_P, apply_P_adjoint,
                     haar_function, inner_product, random_function)
from dyadlab.grids import GridMismatchError, InvalidIndexError, grid_index
from dyadlab.haar import extend, forward_stacked
from dyadlab.norms import dyadic_bmo_norm, uniformity_study
from dyadlab.paraproducts import bk_gather, bk_stacked
from conftest import assert_columns_alone, all_cubes, sig_rows, strictly_inside


def bk_oracle(op, b, f):
    """Literal term-by-term sum of the defining B_k series."""
    g = op.grid
    out = np.zeros(g.n_samples)
    for cube in all_cubes(g):
        if cube.level < op.k:
            continue
        beta = op.beta_level(cube.level)
        bval = beta if np.isscalar(beta) else beta[g.flat_pos(cube.pos, cube.level)]
        anc = g.ancestor(cube, op.k)
        hb = haar_function(g, HaarIndex(anc, op.sig_b))
        hin = haar_function(g, HaarIndex(cube, op.sig_in))
        hout = haar_function(g, HaarIndex(cube, op.sig_out))
        out += (bval * inner_product(b, hb) * inner_product(f, hin)
                * g.volume(cube.level - op.k) ** -0.5) * hout.samples
    return out


def p_oracle(b, a, f):
    """Brute-force double sum for P(b, a, f)."""
    g = b.grid
    out = np.zeros(g.n_samples)
    for cube in all_cubes(g):
        w = 0.0
        for e in range(g.n_sig):
            h = haar_function(g, HaarIndex(cube, g.int_sig(e)))
            w += inner_product(b, h) * inner_product(f, h)
        w /= g.volume(cube.level)
        if w == 0.0:
            continue
        for sub in all_cubes(g):
            if not strictly_inside(g, sub, cube):
                continue
            for e in range(g.n_sig):
                h = haar_function(g, HaarIndex(sub, g.int_sig(e)))
                out += w * inner_product(a, h) * h.samples
    return out


def test_bk_single_cube_example():
    # k=0, beta=1, b=f=h on [0,1): output is h itself
    g = GridSpec(1, 1)
    h = haar_function(g, HaarIndex(DyadicCube(0, (0,)), (0,)))
    out = apply_Bk(BkOperator(g, 0), h, h)
    assert np.allclose(out.samples, [1.0, -1.0])


def test_bk_constant_b_is_zero(rng):
    g = GridSpec(1, 5)
    const = DyadicFunction(g, np.full(g.n_samples, 4.0))
    for k in (0, 2):
        out = apply_Bk(BkOperator(g, k), const, random_function(g, rng))
        assert out.norm() < 1e-13


def test_bk_matches_dense_oracle(rng):
    g = GridSpec(1, 5)
    for k in range(5):
        b = random_function(g, rng)
        f = random_function(g, rng)
        beta = tuple(np.sign(rng.standard_normal(g.n_cubes(l)) + 0.1)
                     for l in range(g.N))
        op = BkOperator(g, k, beta=beta)
        got = apply_Bk(op, b, f).samples
        assert np.max(np.abs(got - bk_oracle(op, b, f))) < 1e-11


def test_bk_matches_oracle_2d_and_noncanc_signatures(rng):
    g = GridSpec(2, 2)
    b = random_function(g, rng)
    f = random_function(g, rng)
    cases = [
        BkOperator(g, 1, sig_b=(0, 1), sig_in=(1, 0), sig_out=(0, 0)),
        BkOperator(g, 0, sig_b=(0, 0), sig_in=(1, 1), sig_out=(0, 1)),
        BkOperator(g, 0, sig_b=(1, 0), sig_in=(0, 1), sig_out=(1, 1)),
    ]
    for op in cases:
        got = apply_Bk(op, b, f).samples
        assert np.max(np.abs(got - bk_oracle(op, b, f))) < 1e-11


def bk_stacked_loop(op, bc, x):
    """Per-level B_k kernel: one gather and one scatter-add per level."""
    g = op.grid
    idx = grid_index(g)
    pshape = (1,) * (x.ndim - 1)
    out = np.zeros_like(x)
    for lvl in range(op.k, g.N):
        banc = g.level_block(bc, lvl - op.k)[:, op.sb][idx.ancestor_flat(lvl, op.k)]
        scale = 2.0 ** ((lvl - op.k) * g.d / 2.0)
        coef = (op.beta_level(lvl) * banc * scale).reshape(banc.shape + pshape)
        out[sig_rows(g, lvl, op.so)] += coef * x[sig_rows(g, lvl, op.si)]
    return out


@pytest.mark.parametrize("g", [GridSpec(1, 1), GridSpec(1, 5), GridSpec(2, 3),
                               GridSpec(3, 2), GridSpec(2, 2, omega=((1, 0), (1, 1)))],
                         ids=repr)
def test_bk_gather_is_bit_identical_to_the_level_loop(g, rng):
    bc = forward_stacked(g, rng.standard_normal(g.n_samples))
    sigs = [g.int_sig(e) for e in range(1 << g.d)]
    for passive in ((), (3,)):
        x = extend(g, rng.standard_normal((g.n_samples,) + passive))
        for k in range(g.N):
            signed = tuple(np.where(rng.standard_normal(g.n_cubes(l)) < 0, -1.0, 0.5)
                           for l in range(g.N))
            for beta in (None, signed):
                for sb in sigs[:-1]:
                    for si in sigs:
                        for so in sigs:
                            try:
                                op = BkOperator(g, k, sb, si, so, beta)
                            except InvalidIndexError:
                                continue
                            got = bk_stacked(op, bc, x)
                            assert got.shape == x.shape
                            assert np.array_equal(got, bk_stacked_loop(op, bc, x)), op


def test_bk_tables_are_keyed_by_depth_alone(rng):
    from dyadlab import decompose_cancellative, evaluate_terms, random_shift
    g = GridSpec(2, 4)
    b = random_function(g, rng)
    tl = decompose_cancellative(b, random_shift(g, 2, 1, rng))
    assert len({(t.atom1.k, t.atom1.sb, t.atom1.si, t.atom1.so) for t in tl.terms}) \
        > len({t.atom1.k for t in tl.terms}) > 1
    evaluate_terms(tl, random_function(g, rng))
    tables = {key[1]: table for key, table in grid_index(g)._memo.items()
              if key[0] == "bk_table"}
    assert set(tables) <= set(range(g.N))
    assert set(tables) >= {t.atom1.k for t in tl.terms}
    for k, (rows, anc, scale) in tables.items():
        n_rows = sum(g.n_cubes(lvl) for lvl in range(k, g.N))
        assert rows.shape == anc.shape == scale.shape == (n_rows,)


def test_bk_signature_rules():
    g = GridSpec(1, 4)
    with pytest.raises(InvalidIndexError):
        BkOperator(g, 0, sig_b=(1,))
    with pytest.raises(InvalidIndexError):
        BkOperator(g, 0, sig_in=(1,), sig_out=(1,))
    with pytest.raises(InvalidIndexError):
        BkOperator(g, 1, sig_in=(1,))
    with pytest.raises(ValueError):
        beta = tuple(np.full(g.n_cubes(l), 2.0) for l in range(g.N))
        apply_Bk(BkOperator(g, 0, beta=beta),
                 random_function(g, np.random.default_rng(0)),
                 random_function(g, np.random.default_rng(1)))


def test_operands_off_the_operator_grid_raise(rng):
    g = GridSpec(1, 4)
    b = random_function(g, rng)
    for other in (GridSpec(2, 2), GridSpec(1, 4, omega=((1,), (0,), (1,), (0,)))):
        a, f = random_function(other, rng), random_function(other, rng)
        for apply in (apply_P, apply_P_adjoint):
            for operands in ((b, a, f), (b, b, f), (b, a, b)):
                with pytest.raises(GridMismatchError):
                    apply(*operands)
        for operands in ((b, f), (f, b)):
            with pytest.raises(GridMismatchError):
                apply_Bk(BkOperator(g, 1), *operands)


def test_bk_beta_dict_is_stored_on_the_cube_axis(rng):
    g = GridSpec(2, 2)
    cube = DyadicCube(1, (1, 0))
    op = BkOperator(g, 1, beta={cube: -0.5})
    levels = [np.ones(g.n_cubes(l)) for l in range(g.N)]
    levels[1][g.flat_pos(cube.pos, 1)] = -0.5
    # cube (1, (1, 0)) is flat 2 of level 1, entry 1 + 2 of the cube axis
    assert op.beta.shape == (g.n_cubes_total,) and op.beta[3] == -0.5
    assert np.array_equal(op.beta, np.concatenate(levels))
    assert all(np.array_equal(op.beta_level(l), levels[l]) for l in range(g.N))
    b, f = random_function(g, rng), random_function(g, rng)
    same = BkOperator(g, 1, beta=tuple(levels))
    assert same == op == BkOperator(g, 1, beta=np.concatenate(levels))
    assert np.array_equal(apply_Bk(op, b, f).samples, apply_Bk(same, b, f).samples)
    with pytest.raises(ValueError, match="per level"):
        BkOperator(g, 1, beta=levels[:1])
    with pytest.raises(ValueError, match="cube axis"):
        BkOperator(g, 1, beta=np.ones(g.n_cubes_total + 1))


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3),
                               GridSpec(2, 2, omega=((1, 0), (0, 1)))], ids=repr)
def test_bk_stacked_with_trial_betas_gives_a_column_its_bits_alone(g, rng):
    # one symbol and one beta array per trial column, every depth and the
    # noncancellative signatures at k = 0
    non = (1,) * g.d
    atoms = [(k, None, None) for k in range(g.N)] + [(0, non, None), (0, None, non)]

    def draw(T):
        beta = np.sign(rng.standard_normal((g.n_cubes_total, T)) + 0.5)
        bc = forward_stacked(g, rng.standard_normal((g.n_samples, T)))
        x = extend(g, forward_stacked(g, rng.standard_normal((g.n_samples, T))))
        return beta, bc, x
    for k, sig_in, sig_out in atoms:
        assert_columns_alone(lambda beta, bc, x: bk_stacked(
            BkOperator(g, k, sig_in=sig_in, sig_out=sig_out, beta=beta), bc, x), draw)
    # one symbol or one beta array for every column is the broadcast case
    beta, bc, x = draw(3)
    for one_beta, one_bc in ((beta[:, 1], bc), (beta, bc[:, 1])):
        got = bk_stacked(BkOperator(g, 1, beta=one_beta), one_bc, x)
        for t in range(3):
            want = bk_stacked(BkOperator(g, 1, beta=beta[:, 1] if one_beta.ndim == 1
                                         else beta[:, t]),
                              bc[:, 1] if one_bc.ndim == 1 else bc[:, t], np.array(x[:, t]))
            assert np.array_equal(got[:, t], want), t
    with pytest.raises(ValueError, match="cube axis"):
        BkOperator(g, 1, beta=np.ones((g.n_cubes_total + 1, 3)))
    with pytest.raises(ValueError, match="magnitude"):
        BkOperator(g, 1, beta=np.full((g.n_cubes_total, 3), 2.0))


def test_bk_betas_are_read_only():
    # decomposition terms share atoms, so no caller may rewrite their betas
    g = GridSpec(1, 3)
    for given in ([np.ones(g.n_cubes(l)) for l in range(g.N)], np.ones(g.n_cubes_total)):
        op = BkOperator(g, 1, beta=given)
        with pytest.raises(ValueError):
            op.beta[1] = 0.5
        with pytest.raises(ValueError):
            bk_gather(op)[3][0] = 0.5
        # the atom holds its own copy
        (given[1] if isinstance(given, list) else given)[0] = -1.0
        assert op.beta[1] == 1.0


def test_bk_martingale_bound_exact(rng):
    # all-cancellative: ||B_k(b,f)|| <= bmo(b) ||f||, uniformly in k
    g = GridSpec(1, 9)
    for k in range(9):
        for _ in range(5):
            b = random_function(g, rng)
            f = random_function(g, rng)
            beta = tuple(np.sign(rng.standard_normal(g.n_cubes(l)) + 0.1)
                         for l in range(g.N))
            out = apply_Bk(BkOperator(g, k, beta=beta), b, f)
            assert out.norm() <= (1 + 1e-12) * dyadic_bmo_norm(b) * f.norm()


def test_bk_adjoint_swaps_signatures(rng):
    g = GridSpec(2, 2)
    op = BkOperator(g, 0, sig_b=(0, 1), sig_in=(1, 1), sig_out=(0, 0))
    b = random_function(g, rng)
    f = random_function(g, rng)
    h = random_function(g, rng)
    lhs = inner_product(apply_Bk(op, b, f), h)
    rhs = inner_product(f, apply_Bk(op.adjoint(), b, h))
    assert abs(lhs - rhs) < 1e-11


def test_p_trivial_cases(rng):
    # N=1: no strict subcubes -> P = 0; constant b -> 0
    g1 = GridSpec(1, 1)
    z = apply_P(random_function(g1, rng), random_function(g1, rng),
                random_function(g1, rng))
    assert z.norm() == 0.0
    g = GridSpec(1, 4)
    const = DyadicFunction(g, np.ones(g.n_samples))
    assert apply_P(const, random_function(g, rng),
                   random_function(g, rng)).norm() < 1e-13


def test_p_matches_double_sum_oracle(rng):
    for grid in (GridSpec(1, 4), GridSpec(2, 2), GridSpec(2, 3)):
        b = random_function(grid, rng)
        a = random_function(grid, rng)
        f = random_function(grid, rng)
        got = apply_P(b, a, f).samples
        assert np.max(np.abs(got - p_oracle(b, a, f))) < 1e-11


def test_p_adjoint_duality(rng):
    for g in (GridSpec(1, 5), GridSpec(2, 3)):
        b = random_function(g, rng)
        a = random_function(g, rng)
        for _ in range(5):
            f = random_function(g, rng)
            h = random_function(g, rng)
            lhs = inner_product(apply_P(b, a, f), h)
            rhs = inner_product(f, apply_P_adjoint(b, a, h))
            assert abs(lhs - rhs) < 1e-11


def test_p_beyond_dense_matrix_size(rng):
    # n = 16384: a dense n x n strict-subcube matrix would take 2 GiB
    g = GridSpec(1, 14)
    b, a, f, h = (random_function(g, rng) for _ in range(4))
    tracemalloc.start()
    try:
        pf = apply_P(b, a, f)
        ph = apply_P_adjoint(b, a, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert pf.norm() > 0.0 and ph.norm() > 0.0
    assert abs(inner_product(pf, h) - inner_product(f, ph)) < 1e-10
    (report,) = uniformity_study("P", {"N": 13}, trials=2, rng_seed=5)
    assert report.kind == "P" and np.isfinite(report.max_ratio) and report.max_ratio > 0


def test_p_linear_in_each_slot(rng):
    g = GridSpec(1, 4)
    b, a, f, u = (random_function(g, rng) for _ in range(4))
    lhs = apply_P(b, a, DyadicFunction(g, 2.0 * f.samples + u.samples))
    rhs = apply_P(b, a, f) * 2.0 + apply_P(b, a, u)
    assert (lhs - rhs).norm() < 1e-11 * max(1.0, lhs.norm())
    lhs = apply_P(DyadicFunction(g, b.samples + u.samples), a, f)
    rhs = apply_P(b, a, f) + apply_P(u, a, f)
    assert (lhs - rhs).norm() < 1e-11 * max(1.0, lhs.norm())


def test_bk_operator_equality_and_hash(rng):
    from dyadlab import decompose_cancellative, random_shift
    g = GridSpec(1, 4)
    beta = tuple(np.where(np.arange(g.n_cubes(lvl)) % 2, -1.0, 1.0) for lvl in range(g.N))
    a, b = BkOperator(g, 1, beta=beta), BkOperator(g, 1, beta=beta)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    flipped = (beta[0], -beta[1]) + beta[2:]
    assert a != BkOperator(g, 1, beta=flipped)
    assert a != BkOperator(g, 1) and BkOperator(g, 1) == BkOperator(g, 1)
    assert a != BkOperator(g, 2, beta=beta)
    assert a != BkOperator(GridSpec(1, 4, omega=((1,), (0,), (0,), (0,))), 1, beta=beta)
    g2 = GridSpec(2, 3)
    assert BkOperator(g2, 0, (0, 1), (1, 0), (1, 0)) != BkOperator(g2, 0, (0, 1), (0, 1), (0, 1))
    # decomposition terms hold k >= 1 atoms with per-level sign betas
    f = random_function(g, rng)
    S = random_shift(g, 2, 2, rng)
    t1, t2 = decompose_cancellative(f, S).terms, decompose_cancellative(f, S).terms
    assert any(t.atom1.k >= 1 for t in t1)
    assert t1 == t2 and len(set(t1) | set(t2)) == len(t1)
    assert t1[0] != t1[-1]


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3),
                               GridSpec(2, 2, omega=((1, 0), (0, 1)))], ids=repr)
@pytest.mark.parametrize("passive", [(), (2,)])
def test_p_symbol_stacks_match_the_one_symbol_kernels(g, passive, rng):
    # column t of a symbol stack pairs with trial column t of the input,
    # bit for bit as the one-symbol kernel on that column
    from dyadlab.paraproducts import p_stacked, pstar_stacked
    from conftest import p_stacked_oracle, pstar_stacked_oracle
    T = 3
    bc, avec = (forward_stacked(g, rng.standard_normal((g.n_samples, T))) for _ in "ba")
    avec[0] = 0.0
    x = forward_stacked(g, rng.standard_normal((g.n_samples,) + passive + (T,)))
    for kernel, oracle in ((p_stacked, p_stacked_oracle),
                           (pstar_stacked, pstar_stacked_oracle)):
        got = kernel(g, bc, avec, x)
        assert got.shape == x.shape
        for t in range(T):
            assert np.array_equal(got[..., t], oracle(g, bc[:, t], avec[:, t], x[..., t]))
        # a one-dimensional symbol is the broadcast case of the same kernel
        assert np.array_equal(kernel(g, bc[:, 1], avec[:, 1], x),
                              oracle(g, bc[:, 1], avec[:, 1], x))
