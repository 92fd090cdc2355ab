import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     haar_forward, haar_function, haar_inverse, inner_product,
                     random_function)
from dyadlab.biparam import ProductFunction, ProductGrid
from dyadlab.grids import DepthError, GridMismatchError, InvalidIndexError
from dyadlab.haar import (HaarCoefficients, contract, extend, forward_stacked,
                          inverse_stacked, scaling_levels)
from conftest import (all_cancellative_indices, forward_oracle, inverse_oracle,
                      scaling_levels_oracle, sig_rows)


def test_haar_function_1d_examples():
    g = GridSpec(1, 1)
    root = DyadicCube(0, (0,))
    assert np.allclose(haar_function(g, HaarIndex(root, (0,))).samples, [1, -1])
    assert np.allclose(haar_function(g, HaarIndex(root, (1,))).samples, [1, 1])


def test_haar_function_2d_tensor_example():
    # eps = (0,1): oscillates in x1, flat in x2 -> rows (+,+) and (-,-)
    g = GridSpec(2, 1)
    h = haar_function(g, HaarIndex(DyadicCube(0, (0, 0)), (0, 1)))
    assert np.allclose(h.samples.reshape(2, 2), [[1, 1], [-1, -1]])
    assert abs(h.norm() - 1) < 1e-12


def test_haar_function_unit_norm_and_mean():
    g = GridSpec(2, 3)
    for idx in all_cancellative_indices(g):
        h = haar_function(g, idx)
        assert abs(h.norm() - 1) < 1e-12
        assert abs(h.mean()) < 1e-12
    h1 = haar_function(g, HaarIndex(DyadicCube(1, (1, 0)), (1, 1)))
    assert abs(h1.norm() - 1) < 1e-12
    assert h1.mean() > 0


def test_haar_function_invalid_index():
    g = GridSpec(1, 2)
    with pytest.raises(InvalidIndexError):
        haar_function(g, HaarIndex(DyadicCube(2, (0,)), (0,)))  # cancellative at N
    with pytest.raises(InvalidIndexError):
        haar_function(g, HaarIndex(DyadicCube(1, (4,)), (0,)))
    for sig in ((2,), (0, 1)):
        with pytest.raises(InvalidIndexError, match="bad signature"):
            haar_function(g, HaarIndex(DyadicCube(1, (0,)), sig))


def test_forward_two_cell_example():
    g = GridSpec(1, 1)
    c = haar_forward(DyadicFunction(g, [1.0, 3.0]))
    assert abs(c.mean - 2.0) < 1e-14
    assert abs(c.level(0)[0, 0] + 1.0) < 1e-14


@pytest.mark.parametrize("level", [-1, 3, 4])
def test_coefficient_level_outside_the_grid_raises(level, rng):
    # levels 0..N-1 hold coefficients; N and beyond, or a negative level, are refused
    c = haar_forward(random_function(GridSpec(1, 3), rng))
    with pytest.raises(DepthError, match=f"level {level} outside the levels 0..2"):
        c.level(level)
    assert c.level(2).shape == (4, 1)


def test_forward_constant_kills_cancellative():
    g = GridSpec(2, 3)
    c = haar_forward(DyadicFunction(g, np.full(g.n_samples, 5.0)))
    assert abs(c.mean - 5.0) < 1e-12
    assert max(np.max(np.abs(c.level(l))) for l in range(g.N)) < 1e-12


def test_forward_reproduces_basis():
    for g in (GridSpec(2, 2), GridSpec(2, 2, omega=((1, 0), (1, 1)))):
        for idx in all_cancellative_indices(g):
            c = haar_forward(haar_function(g, idx))
            assert abs(c.coefficient(idx) - 1.0) < 1e-12
            total = c.l2_norm_sq()
            assert abs(total - 1.0) < 1e-12


def test_orthonormality_full_grid():
    for g in (GridSpec(2, 2), GridSpec(2, 2, omega=((1, 0), (1, 1)))):
        idxs = list(all_cancellative_indices(g))
        funcs = [haar_function(g, i) for i in idxs]
        G = np.array([[inner_product(a, b) for b in funcs] for a in funcs])
        assert np.max(np.abs(G - np.eye(len(idxs)))) < 1e-12


def test_roundtrip_and_parseval(rng):
    for grid in (GridSpec(1, 6), GridSpec(2, 3), GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
                 GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))):
        f = random_function(grid, rng)
        c = haar_forward(f)
        assert (haar_inverse(c) - f).norm() / f.norm() < 1e-12
        assert abs(c.l2_norm_sq() - f.norm() ** 2) / f.norm() ** 2 < 1e-12


def test_shifted_transform_is_translated_standard_transform(rng):
    for g in (GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
              GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))):
        f = rng.standard_normal(g.n_samples)
        rolled = np.roll(f.reshape((g.n_side,) * g.d), [-s for s in g.shift],
                         axis=tuple(range(g.d))).reshape(-1)
        assert np.array_equal(forward_stacked(g, f),
                              forward_stacked(GridSpec(g.d, g.N), rolled))


def test_non_finite_samples_rejected():
    pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 1))
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros(8)
        samples[3] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            DyadicFunction(GridSpec(1, 3), samples)
        with pytest.raises(ValueError, match="samples must be finite"):
            ProductFunction(pg, samples)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            HaarCoefficients(GridSpec(1, 3), samples)


def test_wrong_sample_count_and_mixed_operands_rejected(rng):
    # both function types, and the coefficient vector, count their values
    # alike, and neither function type takes the other as an operand
    g, pg = GridSpec(1, 2), ProductGrid(GridSpec(1, 2), GridSpec(1, 2))
    for n in (3, 5):
        with pytest.raises(ValueError, match=f"expected 4 samples, got \\({n},\\)"):
            DyadicFunction(g, np.zeros(n))
        with pytest.raises(ValueError, match=f"expected 4 coefficients, got \\({n},\\)"):
            HaarCoefficients(g, np.zeros(n))
    for n in (15, 17):
        with pytest.raises(ValueError, match=f"expected 16 samples, got \\({n},\\)"):
            ProductFunction(pg, np.zeros(n))
    f = random_function(g, rng)
    F = ProductFunction(pg, rng.standard_normal(pg.shape))
    for x, y in ((f, F), (F, f)):
        for op in (lambda: x + y, lambda: x - y, lambda: inner_product(x, y)):
            with pytest.raises(GridMismatchError):
                op()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=16, max_size=16),
       st.booleans())
def test_roundtrip_property(samples, shifted):
    grid = GridSpec(1, 4, omega=((1,), (0,), (1,), (0,)) if shifted else None)
    f = DyadicFunction(grid, samples)
    back = haar_inverse(haar_forward(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-10 * (1 + np.max(np.abs(samples)))


def test_inverse_of_unit_coefficient_is_haar():
    g = GridSpec(2, 2)
    idx = HaarIndex(DyadicCube(1, (0, 1)), (1, 0))
    stacked = np.zeros(g.n_samples)
    stacked[g.stacked_index(idx)] = 1.0
    f = haar_inverse(HaarCoefficients(g, stacked))
    assert (f - haar_function(g, idx)).norm() < 1e-12
    zero = haar_inverse(HaarCoefficients(g, np.zeros(g.n_samples)))
    assert zero.norm() == 0.0


def test_ancestor_constancy_and_product_identity(rng):
    # h_(I^(k)) is constant +-|I^(k)|**(-1/2) on I; products collapse to h_I
    g = GridSpec(2, 3)
    for _ in range(20):
        lvl = int(rng.integers(1, g.N))
        k = int(rng.integers(1, lvl + 1))
        flat = int(rng.integers(0, g.n_cubes(lvl)))
        cube = DyadicCube(lvl, g.pos_from_flat(flat, lvl))
        anc = g.ancestor(cube, k)
        sig = g.int_sig(int(rng.integers(0, g.n_sig)))
        hanc = haar_function(g, HaarIndex(anc, sig))
        hI = haar_function(g, HaarIndex(cube, g.int_sig(int(rng.integers(0, g.n_sig)))))
        prod = DyadicFunction(g, hanc.samples * hI.samples)
        scale = g.volume(lvl - k) ** -0.5
        plus = (prod - scale * hI).norm()
        minus = (prod + scale * hI).norm()
        assert min(plus, minus) < 1e-12


def test_same_cube_product_is_signature_xnor(rng):
    g = GridSpec(2, 2)
    cube = DyadicCube(1, (1, 0))
    for e1 in range(4):
        for e2 in range(4):
            h1 = haar_function(g, HaarIndex(cube, g.int_sig(e1)))
            h2 = haar_function(g, HaarIndex(cube, g.int_sig(e2)))
            out_sig = g.int_sig(g.noncanc_int ^ (e1 ^ e2))
            expect = haar_function(g, HaarIndex(cube, out_sig)) * (g.volume(1) ** -0.5)
            assert (DyadicFunction(g, h1.samples * h2.samples) - expect).norm() < 1e-12


def test_scaling_levels_are_cell_averages(rng):
    g = GridSpec(2, 3)
    f = random_function(g, rng)
    stacked = forward_stacked(g, f.samples)
    sc = scaling_levels(g, stacked)
    from dyadlab.haar import pool_level
    for lvl in range(g.N):
        avg = pool_level(g, lvl, f.samples)
        assert np.max(np.abs(sc[lvl] - avg * g.volume(lvl) ** 0.5)) < 1e-12


def test_inner_product_quadrature():
    g = GridSpec(1, 2)
    f = DyadicFunction(g, [1, 2, 3, 4])
    assert abs(inner_product(f, f) - (1 + 4 + 9 + 16) / 4) < 1e-14


LAYOUT_GRIDS = [GridSpec(1, 4), GridSpec(1, 3, omega=((1,), (0,), (1,))),
                GridSpec(2, 3), GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1))),
                GridSpec(3, 2), GridSpec(3, 2, omega=((0, 1, 1), (1, 0, 1)))]


@pytest.mark.parametrize("g", LAYOUT_GRIDS, ids=repr)
@pytest.mark.parametrize("passive", [(), (3,), (2, 2)])
def test_contract_is_the_adjoint_of_extend(g, passive, rng):
    x = rng.standard_normal((g.n_samples,) + passive)
    ext = extend(g, x)
    assert ext.shape == (g.n_samples + (g.n_samples - 1) // g.n_sig,) + passive
    y = rng.standard_normal(ext.shape)
    lhs = np.einsum("i...,i...->...", contract(g, y), x)
    rhs = np.einsum("i...,i...->...", y, ext)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    # an untouched tail contracts to the stacked rows themselves
    y[g.n_samples:] = 0.0
    assert np.array_equal(contract(g, y), y[:g.n_samples])


@pytest.mark.parametrize("g", LAYOUT_GRIDS, ids=repr)
@pytest.mark.parametrize("passive", [(), (3,)])
def test_noncancellative_rows_hold_the_scaling_levels(g, passive, rng):
    x = rng.standard_normal((g.n_samples,) + passive)
    ext = extend(g, x)
    sc = scaling_levels(g, x)
    for lvl in range(g.N):
        assert np.array_equal(ext[sig_rows(g, lvl, g.noncanc_int)], sc[lvl])
        for e in range(g.n_sig):
            assert np.array_equal(ext[sig_rows(g, lvl, e)], g.level_block(x, lvl)[:, e])
    assert np.array_equal(ext[:g.n_samples], x)


@pytest.mark.parametrize("g", LAYOUT_GRIDS + [GridSpec(1, 1), GridSpec(1, 6), GridSpec(2, 1),
                                               GridSpec(2, 4), GridSpec(3, 1), GridSpec(3, 3),
                                               GridSpec(1, 10), GridSpec(2, 5),
                                               GridSpec(3, 3, omega=((1, 0, 1), (0, 1, 1),
                                                                     (1, 1, 0)))],
                         ids=repr)
@pytest.mark.parametrize("passive", [(), (3,), (2, 2), (0,), (2,)])
def test_pyramid_is_bit_identical_to_the_butterfly_oracle(g, passive, rng):
    # every output is C-contiguous whatever the input's layout: numpy sums a
    # transposed view in another order, so a layout leak would move bits
    x = rng.standard_normal((g.n_samples,) + passive)
    c = forward_stacked(g, x)
    assert c.shape == x.shape and c.flags.c_contiguous
    assert np.array_equal(c, forward_oracle(g, x))
    assert np.array_equal(forward_stacked(g, np.asfortranarray(x)), c)
    y = inverse_stacked(g, c)
    assert y.shape == x.shape and y.flags.c_contiguous
    assert np.array_equal(y, inverse_oracle(g, c))
    assert np.array_equal(inverse_stacked(g, np.asfortranarray(c)), y)
    got, want = scaling_levels(g, c), scaling_levels_oracle(g, c)
    assert len(got) == len(want) == g.N
    for lvl, (u, v) in enumerate(zip(got, want)):
        assert u.shape == (g.n_cubes(lvl),) + passive and u.flags.c_contiguous
        assert np.array_equal(u, v)
    assert extend(g, np.asfortranarray(c)).flags.c_contiguous


@pytest.mark.parametrize("g", [GridSpec(1, 6), GridSpec(2, 3), GridSpec(3, 3),
                               GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))], ids=repr)
@pytest.mark.parametrize("passive", [(), (1,), (3,), (2, 2)])
def test_stacked_helpers_give_each_column_its_single_column_bits(g, passive, rng):
    # the decomposition stacks inputs and groups on passive axes, so every
    # column of a stack must take exactly the steps of a lone column
    n, m = g.n_samples, g.n_samples + g.n_cubes_total
    x = rng.standard_normal((n,) + passive)
    ext = rng.standard_normal((m,) + passive)
    stacked = {
        "forward": (forward_stacked(g, x), x, lambda col: forward_stacked(g, col)),
        "inverse": (inverse_stacked(g, x), x, lambda col: inverse_stacked(g, col)),
        "levels": (np.concatenate(scaling_levels(g, x)), x,
                   lambda col: np.concatenate(scaling_levels(g, col))),
        "extend": (extend(g, x), x, lambda col: extend(g, col)),
        "contract": (contract(g, ext), ext, lambda col: contract(g, col)),
    }
    for name, (out, inp, single) in stacked.items():
        assert out.shape[1:] == passive, name
        for col in np.ndindex(*passive):
            lone = single(np.ascontiguousarray(inp[(slice(None),) + col]))
            assert np.array_equal(out[(slice(None),) + col], lone), (name, col)
