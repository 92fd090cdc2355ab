import itertools
import math
from functools import partial

import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     ProductFunction, ProductGrid, dyadic_bmo_norm, fs_check,
                     geometric_constant, geometric_constant_closed_form, haar_function, jn_check,
                     maximal_function, open_set_bmo_norm, random_function,
                     random_product_function, rect_bmo_norm, reports_to_csv,
                     reports_to_jsonl, square_function, tensor_function,
                     uniformity_study)
from dyadlab.grids import GridMismatchError, grid_index
from dyadlab.haar import haar_forward
from dyadlab.norms import (NormReport, geometric_cap_for, geometric_constant_tail_bound,
                           jn_study)
from conftest import (all_cubes, assert_columns_alone, column_norms_oracle, jn_study_oracle,
                      localized_square_oracle, random_signs_oracle, strictly_inside,
                      uniformity_study_oracle)


def test_bmo_trivial_cases(rng):
    g = GridSpec(1, 4)
    assert dyadic_bmo_norm(DyadicFunction(g, np.full(g.n_samples, 7.0))) == 0.0
    h = haar_function(g, HaarIndex(DyadicCube(0, (0,)), (0,)))
    assert abs(dyadic_bmo_norm(h) - 1.0) < 1e-12
    b = random_function(g, rng)
    c = DyadicFunction(g, np.full(g.n_samples, 2.0))
    assert abs(dyadic_bmo_norm(b) - dyadic_bmo_norm(b + c)) < 1e-12
    assert abs(dyadic_bmo_norm(b) - dyadic_bmo_norm(-1.0 * b)) < 1e-12
    assert abs(dyadic_bmo_norm(3.5 * b) - 3.5 * dyadic_bmo_norm(b)) < 1e-11


def test_bmo_matches_brute_force(rng):
    g = GridSpec(2, 2)
    b = random_function(g, rng)
    stacked = haar_forward(b)
    best = 0.0
    for cube in all_cubes(g):
        mass = 0.0
        for sub in all_cubes(g):
            if sub.level < cube.level:
                continue
            if g.ancestor(sub, sub.level - cube.level) != cube:
                continue
            for e in range(g.n_sig):
                mass += stacked.coefficient(HaarIndex(sub, g.int_sig(e))) ** 2
        best = max(best, mass / g.volume(cube.level))
    assert abs(dyadic_bmo_norm(b) - np.sqrt(best)) < 1e-12


def test_rect_bmo(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    # root-level elementary tensor Haar has norm 1
    h1 = haar_function(pg.grids[0], HaarIndex(DyadicCube(0, (0,)), (0,)))
    h2 = haar_function(pg.grids[1], HaarIndex(DyadicCube(0, (0,)), (0,)))
    assert abs(rect_bmo_norm(tensor_function(h1, h2)) - 1.0) < 1e-12
    # deeper single coefficient: norm |R|**(-1/2)
    h1d = haar_function(pg.grids[0], HaarIndex(DyadicCube(1, (0,)), (0,)))
    assert abs(rect_bmo_norm(tensor_function(h1d, h2)) - np.sqrt(2.0)) < 1e-12
    # constant in either variable -> 0
    const2 = DyadicFunction(pg.grids[1], np.ones(pg.grids[1].n_samples))
    assert rect_bmo_norm(tensor_function(random_function(pg.grids[0], rng), const2)) < 1e-12
    # tensor bound
    a1 = random_function(pg.grids[0], rng)
    a2 = random_function(pg.grids[1], rng)
    assert rect_bmo_norm(tensor_function(a1, a2)) <= \
        dyadic_bmo_norm(a1) * dyadic_bmo_norm(a2) + 1e-10


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(2, 2), GridSpec(1, 3)),
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(1, 2))], ids=repr)
def test_rect_bmo_matches_brute_force(pg, rng):
    # sup over rectangles R of |R|**(-1) sum_{R' inside R} mu(R'), from
    # per-HaarIndex coefficients
    from dyadlab.haar import forward_space
    g1, g2 = pg.grids
    rects = [(c1, c2) for c1 in all_cubes(g1) for c2 in all_cubes(g2)]

    def within(g, inner, outer):
        return inner == outer or strictly_inside(g, inner, outer)

    for _ in range(3):
        b = random_product_function(pg, rng)
        C = forward_space(b.pgrid, b.samples)
        mass = {(c1, c2): sum(C[g1.stacked_index(HaarIndex(c1, g1.int_sig(e1))),
                                g2.stacked_index(HaarIndex(c2, g2.int_sig(e2)))] ** 2
                              for e1 in range(g1.n_sig) for e2 in range(g2.n_sig))
                for c1, c2 in rects}
        best = max(sum(m for (s1, s2), m in mass.items()
                       if within(g1, s1, c1) and within(g2, s2, c2))
                   / (g1.volume(c1.level) * g2.volume(c2.level)) for c1, c2 in rects)
        assert abs(rect_bmo_norm(b) - np.sqrt(best)) <= 1e-13 * np.sqrt(best)


@pytest.mark.parametrize("space", [GridSpec(1, 6), GridSpec(2, 3), GridSpec(3, 2),
                                   GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
                                   ProductGrid(GridSpec(1, 3), GridSpec(2, 2)),
                                   ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                               GridSpec(1, 4))], ids=repr)
def test_bmo_of_a_symbol_stack_gives_a_column_its_bits_alone(space, rng):
    # a block of verify_identity takes its C symbols' coefficients from one
    # transform and their residual scales from one norm call: column c has
    # the bits of b_c's own transform and norm
    from functools import partial
    from dyadlab.haar import forward_space
    from dyadlab.norms import _bmo_stacked
    fwd, norm = partial(forward_space, space), partial(_bmo_stacked, space)
    shape = tuple(g.n_samples for g in space.grids)

    def draw(T):
        return (rng.standard_normal(shape + (T,)),)
    for kernel in (fwd, norm, lambda samples: norm(fwd(samples))):
        assert_columns_alone(kernel, draw)


def test_rect_bmo_lower_bounds_open_set_norm(rng):
    pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 2))
    for _ in range(3):
        b = random_product_function(pg, rng)
        r = rect_bmo_norm(b)
        o = open_set_bmo_norm(b)
        assert r <= o + 1e-10


def open_set_bmo_norm_loop(b):
    """Open-set BMO by one Python pass per union of cells, summing the
    masses of the rectangles it contains in rectangle order."""
    from dyadlab.haar import forward_space
    from dyadlab.grids import grid_index
    g1, g2 = b.pgrid.grids
    n_cells = g1.n_samples * g2.n_samples
    C = forward_space(b.pgrid, b.samples)
    rects = []
    for l1 in range(g1.N):
        for l2 in range(g2.N):
            for m1 in range(g1.n_cubes(l1)):
                for m2 in range(g2.n_cubes(l2)):
                    mask = np.zeros((g1.n_samples, g2.n_samples), dtype=bool)
                    mask[np.ix_(grid_index(g1).cells(l1)[m1],
                                grid_index(g2).cells(l2)[m2])] = True
                    t = g2.level_block(g1.level_block(C, l1)[m1].T, l2)[m2]
                    rects.append((mask.reshape(-1), float((t ** 2).sum())))
    best = 0.0
    for bits in range(1, 1 << n_cells):
        omega = np.array([(bits >> c) & 1 for c in range(n_cells)], dtype=bool)
        vol = omega.sum() * (g1.cell_volume * g2.cell_volume)
        mass = sum(m for mask, m in rects if mask[~omega].sum() == 0)
        if mass > 0:
            best = max(best, mass / vol)
    return float(np.sqrt(best))


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 1), GridSpec(1, 1)),
                                ProductGrid(GridSpec(1, 1), GridSpec(1, 2)),
                                ProductGrid(GridSpec(1, 2), GridSpec(1, 1)),
                                ProductGrid(GridSpec(2, 1), GridSpec(1, 1)),
                                ProductGrid(GridSpec(1, 1, omega=((1,),)), GridSpec(2, 1))],
                         ids=repr)
def test_open_set_norm_matches_the_per_set_loop(pg, rng):
    for _ in range(3):
        b = random_product_function(pg, rng)
        assert open_set_bmo_norm(b) == open_set_bmo_norm_loop(b)


def test_square_function_parseval(rng):
    g = GridSpec(1, 6)
    f = random_function(g, rng)
    S = square_function(f, "S")
    c = haar_forward(f)
    cancellative_mass = c.l2_norm_sq() - c.mean ** 2
    assert abs(S.norm() ** 2 - cancellative_mass) < 1e-12
    assert np.all(S.samples >= 0)


def test_square_function_single_haar():
    g = GridSpec(1, 4)
    cube = DyadicCube(2, (1,))
    h = haar_function(g, HaarIndex(cube, (0,)))
    S = square_function(h, "S")
    expect = np.zeros(g.n_samples)
    expect[4:8] = 2.0  # chi_I / |I|**(1/2), |I| = 1/4
    assert np.max(np.abs(S.samples - expect)) < 1e-12


def test_square_function_sk_uniform_in_k(rng):
    # the aggregate at depth k sees only coefficients at levels >= k, so the
    # measured constant is the ratio against that visible mass: it equals 1
    # for every k (uniform in k), and the raw ratio never exceeds 1
    g = GridSpec(1, 8)
    measured = {}
    for k in range(7):
        best = 0.0
        for _ in range(20):
            f = random_function(g, rng)
            sk = square_function(f, "S_k", k=k).norm()
            assert sk <= (1 + 1e-12) * f.norm()
            c = haar_forward(f)
            visible = np.sqrt(sum(np.sum(c.level(l) ** 2) for l in range(k, g.N)))
            best = max(best, sk / visible)
        measured[k] = best
    assert all(abs(v - 1.0) < 1e-10 for v in measured.values())
    spread = max(measured.values()) - min(measured.values())
    assert spread < 0.05 * max(measured.values())
    for k in (-1, 8):
        with pytest.raises(ValueError, match=rf"^k={k} outside the levels 0\.\.7 below the root$"):
            square_function(random_function(g, rng), "S_k", k=k)


def test_maximal_function_half_indicator_example():
    g = GridSpec(1, 2)
    f = DyadicFunction(g, [1.0, 1.0, 0.0, 0.0])
    out = maximal_function(f)
    assert np.allclose(out.samples, [1.0, 1.0, 0.5, 0.5])
    c = DyadicFunction(g, np.full(4, 2.5))
    assert np.allclose(maximal_function(c).samples, 2.5)


def test_maximal_function_l2_ratio(rng):
    g = GridSpec(1, 7)
    worst = 0.0
    for _ in range(20):
        f = random_function(g, rng)
        worst = max(worst, maximal_function(f).norm() / f.norm())
    assert worst < 4.0  # dyadic maximal L2 constant is 2; logged headroom


def test_strong_maximal_dominates_the_samples(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    f = random_product_function(pg, rng)
    M = maximal_function(f, variant="strong_rect")
    assert np.all(M.samples >= np.abs(f.samples) - 1e-12)


def maximal_oracle(space, samples):
    """Each cell's max, over every cube or rectangle R containing it, the
    cells included, of |the flat mean of ``samples`` over R's cells|."""
    best = np.zeros(samples.shape)
    per_var = [[cells for lvl in range(g.N + 1) for cells in grid_index(g).cells(lvl)]
               for g in space.grids]
    for region in itertools.product(*per_var):
        block = np.ix_(*region)
        best[block] = np.maximum(best[block], abs(samples[block].mean()))
    return best


@pytest.mark.parametrize("space", [GridSpec(1, 5), GridSpec(2, 3),
                                   GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
                                   ProductGrid(GridSpec(2, 2), GridSpec(1, 3))], ids=repr)
def test_maximal_functions_match_the_brute_force_oracle(space, rng):
    # a flat mean rounds differently from the per-variable means, hence rtol
    cls = DyadicFunction if isinstance(space, GridSpec) else ProductFunction
    variant = "dyadic" if cls is DyadicFunction else "strong_rect"
    family = [cls(space, rng.standard_normal(tuple(g.n_samples for g in space.grids)))
              for _ in range(3)]
    oracles = [maximal_oracle(space, f.samples) for f in family]
    for f, oracle in zip(family, oracles):
        np.testing.assert_allclose(maximal_function(f, variant).samples, oracle,
                                   rtol=1e-12, atol=0)
    if cls is DyadicFunction:
        np.testing.assert_allclose(maximal_function(family, "vector_FS").samples,
                                   np.sqrt(sum(m ** 2 for m in oracles)), rtol=1e-12, atol=0)


@pytest.mark.parametrize("op, variant, need", [
    (square_function, "S", DyadicFunction), (square_function, "S_k", DyadicFunction),
    (maximal_function, "dyadic", DyadicFunction), (square_function, "SS", ProductFunction),
    (maximal_function, "strong_rect", ProductFunction)], ids=lambda x: getattr(x, "__name__", x))
def test_a_variant_refuses_the_other_function_type(op, variant, need, rng):
    f = random_function(GridSpec(1, 3), rng)
    F = random_product_function(ProductGrid(GridSpec(1, 2), GridSpec(1, 2)), rng)
    right, wrong = (f, F) if need is DyadicFunction else (F, f)
    assert type(op(right, variant)) is need
    with pytest.raises(ValueError, match=f"variant {variant} needs a {need.__name__}, "
                                         f"got {type(wrong).__name__}"):
        op(wrong, variant)


def test_square_functions_are_the_localized_squares_at_the_root(rng):
    g = GridSpec(2, 3)
    f = random_function(g, rng)
    S = square_function(f, "S").samples
    assert np.array_equal(S, square_function(f, "S_k", k=0).samples)
    assert np.allclose(S, localized_square_oracle(f, (DyadicCube(0, (0, 0)),)),
                       rtol=1e-12, atol=0)
    pg = ProductGrid(GridSpec(2, 2), GridSpec(1, 3))
    F = random_product_function(pg, rng)
    root = (DyadicCube(0, (0, 0)), DyadicCube(0, (0,)))
    assert np.allclose(square_function(F, "SS").samples, localized_square_oracle(F, root),
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("space", [ProductGrid(GridSpec(2, 1), GridSpec(1, 2)),
                                   GridSpec(1, 3), GridSpec(2, 2),
                                   GridSpec(1, 3, omega=((1,), (0,), (1,)))], ids=repr)
def test_rect_masses_match_per_index_sums(space, rng):
    # the one mass table: mu(R) of every rectangle (two variables) or cube
    # (one), against sums of per-HaarIndex coefficients
    import itertools
    from dyadlab.haar import forward_space
    from dyadlab.norms import _masses
    grids = space.grids
    C = forward_space(space, rng.standard_normal(tuple(g.n_samples for g in grids)))
    masses = _masses(space, C)
    assert masses.shape == tuple(g.n_cubes_total for g in grids)
    for cubes in itertools.product(*map(all_cubes, grids)):
        brute = sum(C[tuple(g.stacked_index(HaarIndex(c, g.int_sig(e)))
                            for g, c, e in zip(grids, cubes, sigs))] ** 2
                    for sigs in itertools.product(*(range(g.n_sig) for g in grids)))
        got = masses[tuple(g.cube_range(c.level).start + g.flat_pos(c.pos, c.level)
                           for g, c in zip(grids, cubes))]
        assert abs(got - brute) < 1e-12


def test_double_square_function_parseval(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    f = random_product_function(pg, rng)
    SS = square_function(f, "SS")
    from dyadlab.haar import forward_space
    C = forward_space(f.pgrid, f.samples)
    mass = (C ** 2).sum() - (C[0, :] ** 2).sum() - (C[:, 0] ** 2).sum() + C[0, 0] ** 2
    assert abs(SS.norm() ** 2 - mass) < 1e-12


def test_fs_check(rng):
    g = GridSpec(1, 6)
    family = [random_function(g, rng) for _ in range(4)]
    r = fs_check(family, 1.5)
    assert 0 < r < 10.0
    assert fs_check([DyadicFunction(g, np.zeros(g.n_samples))], 1.5) == 0.0


def test_a_vector_fs_family_shares_one_grid_of_dyadic_functions(rng):
    # a member off the first member's grid was read on that grid, a
    # ProductFunction member had no grid to read, and an empty family raised
    # IndexError on its first member
    g = GridSpec(1, 3)
    shifted = DyadicFunction(GridSpec(1, 3, omega=((0,), (1,), (0,))), np.arange(8.0))
    assert np.array_equal(maximal_function([shifted], "vector_FS").samples,
                          [3.5, 3.5, 3.5, 3.5, 4.5, 5.0, 6.5, 7.0])
    F = random_product_function(ProductGrid(g, g), rng)
    for op in (partial(maximal_function, variant="vector_FS"), partial(fs_check, p=1.5)):
        with pytest.raises(GridMismatchError):
            op([DyadicFunction(g, np.zeros(8)), shifted])
        with pytest.raises(ValueError, match="vector_FS family needs at least one function"):
            op([])
        for family in ([F], [random_function(g, rng), F]):
            with pytest.raises(ValueError, match="variant vector_FS needs a DyadicFunction, "
                                                 "got ProductFunction"):
                op(family)


def test_jn_check_p2_at_most_one(rng):
    g = GridSpec(1, 6)
    for _ in range(10):
        a = random_function(g, rng)
        lvl = int(rng.integers(0, g.N))
        cube = DyadicCube(lvl, g.pos_from_flat(int(rng.integers(0, g.n_cubes(lvl))), lvl))
        assert jn_check(a, cube, 2.0) <= 1.0 + 1e-12
    zero = DyadicFunction(g, np.zeros(g.n_samples))
    assert jn_check(zero, DyadicCube(0, (0,)), 2.0) == 0.0
    with pytest.raises(ValueError):
        jn_check(a, cube, 1.0)


def test_jn_check_validates_its_region(rng):
    from dyadlab.grids import InvalidIndexError
    g = GridSpec(1, 4)
    a = random_function(g, rng)
    with pytest.raises(InvalidIndexError, match=r"\(4,\) outside level 2"):
        jn_check(a, DyadicCube(2, (4,)), 2.0)
    # a finest cell holds no cube of levels 0..N-1: nothing to sum
    assert jn_check(a, DyadicCube(4, (5,)), 2.0) == 0.0
    pg = ProductGrid(GridSpec(1, 3), GridSpec(2, 2))
    A = random_product_function(pg, rng)
    with pytest.raises(InvalidIndexError, match=r"\(2, 0\) outside level 1"):
        jn_check(A, (DyadicCube(1, (0,)), DyadicCube(1, (2, 0))), 2.0)
    assert jn_check(A, (DyadicCube(3, (7,)), DyadicCube(1, (1, 1))), 2.0) == 0.0


@pytest.mark.parametrize("space, region", [
    (GridSpec(1, 5), (DyadicCube(2, (1,)),)),
    (GridSpec(2, 3), (DyadicCube(1, (1, 0)),)),
    (GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))), (DyadicCube(0, (0,)),)),
    (ProductGrid(GridSpec(1, 3), GridSpec(2, 2)), (DyadicCube(1, (1,)), DyadicCube(0, (0, 0)))),
], ids=repr)
def test_jn_check_is_the_localized_square_oracle(space, region, rng):
    # the square function built one Haar function at a time, and the BMO
    # norm of the public norm functions
    a = (random_function if isinstance(space, GridSpec) else random_product_function)(space, rng)
    square = localized_square_oracle(a, region)
    bmo = (dyadic_bmo_norm if isinstance(space, GridSpec) else rect_bmo_norm)(a)
    volume = math.prod(g.volume(cube.level) for g, cube in zip(space.grids, region))
    for p in (1.25, 1.5, 2.0, 3.0, 7.5):
        want = (np.sum(square ** p) * a.cell_volume / volume) ** (1.0 / p) / bmo
        got = jn_check(a, region[0] if len(region) == 1 else region, p)
        assert abs(got - want) <= 1e-12 * want


def test_jn_check_rectangle(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    a = random_product_function(pg, rng)
    region = (DyadicCube(1, (0,)), DyadicCube(0, (0,)))
    assert jn_check(a, region, 2.0) <= 1.0 + 1e-12
    assert jn_check(a, region, 1.5) < 10.0


def test_geometric_constant_closed_form():
    # delta = 2: sum (2m+1)(1+m) 2**-m = 20
    assert abs(geometric_constant(2.0, 60) - 20.0) < 1e-10
    assert abs(geometric_constant_closed_form(2.0) - 20.0) < 1e-12
    for delta in (0.5, 1.0, 2.0):
        cap = geometric_cap_for(delta)
        assert abs(geometric_constant(delta, cap)
                   - geometric_constant_closed_form(delta)) < 1e-10
        assert geometric_constant_tail_bound(delta, cap) < 1e-11
    with pytest.raises(ValueError):
        geometric_constant(0.0, 10)


@pytest.mark.parametrize("cap", [-1, -2, -10])
def test_geometric_constant_refuses_a_negative_cap(cap):
    # a negative cap summed nothing (0.0), divided by zero at -1 and gave a
    # zero bound on an infinite tail below -1
    for fn in (geometric_constant, geometric_constant_tail_bound):
        with pytest.raises(ValueError, match=f"^cap must be at least 0, got {cap}$"):
            fn(1.0, cap)
    assert geometric_constant_tail_bound(1.0, 0) > 0.0


def test_uniformity_study_bk_exact_bound():
    reports = uniformity_study("Bk", GridSpec(1, 7), trials=5, rng_seed=11, kmax=4)
    assert len(reports) == 5
    for r in reports:
        assert r.max_ratio <= 1.0 + 1e-12
    # reproducible from seeds
    again = uniformity_study("Bk", GridSpec(1, 7), trials=5, rng_seed=11, kmax=4)
    assert [r.max_ratio for r in again] == [r.max_ratio for r in reports]


def test_uniformity_study_biparam_kinds():
    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        reports = uniformity_study(kind, ProductGrid(GridSpec(1, 3), GridSpec(1, 3)),
                                   trials=2, rng_seed=4, kmax=1, lmax=1)
        assert all(np.isfinite(r.max_ratio) for r in reports)
        if kind == "Bkl":
            assert all(r.max_ratio <= 1 + 1e-12 for r in reports)


@pytest.mark.parametrize("kind", ["Bk", "Sk", "P", "Bkl", "BPk", "PBl", "PP", "PP1"])
def test_uniformity_study_refuses_a_grid_of_the_other_arity(kind):
    # a space of the other arity is refused, not swapped for the default grid
    g = GridSpec(1, 2)
    one = kind in ("Bk", "Sk", "P")
    wrong = ProductGrid(g, g) if one else g
    with pytest.raises(ValueError, match=f"study kind {kind} runs on .*not "
                                         f"a {'ProductGrid' if one else 'GridSpec'}$"):
        uniformity_study(kind, wrong, 1, 0, kmax=0, lmax=0)


@pytest.mark.parametrize("kind, key", [("Bk", "kmax"), ("Sk", "kmax"), ("Bkl", "kmax"),
                                       ("Bkl", "lmax"), ("BPk", "kmax"), ("PBl", "lmax")])
def test_uniformity_study_refuses_a_negative_range(kind, key):
    # an empty k or l range returned no rows: a study over nothing
    g = GridSpec(1, 3)
    space = g if kind in ("Bk", "Sk") else ProductGrid(g, g)
    with pytest.raises(ValueError, match=f"{key} must be at least 0, got -2$"):
        uniformity_study(kind, space, 1, 0, **{key: -2})


def test_uniformity_study_biparam_ranges_stop_at_finest_level():
    # k = 3..5 and l = 3..5 do not exist on N = 3 grids; the study skips them
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    reports = uniformity_study("Bkl", pg, trials=1, rng_seed=4, kmax=5, lmax=5)
    assert [(r.k, r.l) for r in reports] == [(k, l) for k in range(3) for l in range(3)]
    # a top of None is the finest level
    assert uniformity_study("Bkl", pg, trials=1, rng_seed=4) == reports
    for kind, field in (("BPk", "k"), ("PBl", "l")):
        reports = uniformity_study(kind, pg, trials=1, rng_seed=4, kmax=5, lmax=5)
        assert [getattr(r, field) for r in reports] == [0, 1, 2]


def test_norm_report_serialization():
    reports = [NormReport(kind="Bk", k=2, trials=5, max_ratio=0.5, seed=1),
               NormReport(kind="PP", trials=3, max_ratio=1.25, seed=2)]
    jsonl = reports_to_jsonl(reports)
    assert jsonl.count("\n") == 2
    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("kind,k,l,i,j,trials,max_ratio,seed")
    assert lines[1].split(",")[0] == "Bk"


@pytest.mark.parametrize("seed", [0, 3, 41])
@pytest.mark.parametrize("grid, trials", [
    (GridSpec(1, 6), 1), (GridSpec(1, 6), 2), (GridSpec(1, 6), 5),
    (GridSpec(2, 3), 5), (GridSpec(3, 2), 5), (GridSpec(1, 1), 5),
    (GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))), 5),
    (GridSpec(1, 12), 5),  # 3 blocks of at most 2 trials
    (GridSpec(2, 5), 19),  # 3 blocks of at most 8 trials
], ids=repr)
def test_jn_study_is_the_per_trial_oracle(grid, trials, seed):
    ps = [1.1, 1.25, 1.5, 2.0, 3.0, 7.5]
    counters = {}
    got = jn_study(grid, ps, trials, seed, counters=counters)
    assert got == jn_study_oracle(grid, ps, trials, seed)
    assert list(got) == ps
    width = max(1, 2 ** 13 // grid.n_samples)
    assert counters == {"trials": trials, "blocks": -(-trials // width)}


def test_jn_study_refuses_bad_input():
    g = GridSpec(1, 4)
    assert list(jn_study(g, [2.0, 1.5, 2.0], 3, 1)) == [2.0, 1.5]
    with pytest.raises(ValueError, match="p must lie"):
        jn_study(g, [1.5, 1.0], 3, 1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        jn_study(g, [2.0], 0, 1)
    with pytest.raises(ValueError, match="ps must hold at least one exponent"):
        jn_study(g, [], 3, 1)


def test_jn_study_memory_does_not_grow_with_trials():
    import tracemalloc
    grid = GridSpec(1, 10)  # 1024 samples: 8 trials fill a block
    jn_study(grid, [1.5, 2.0], 2, 1)  # fill the grid caches

    def peak(trials):
        tracemalloc.start()
        try:
            jn_study(grid, [1.5, 2.0], trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40) <= 1.25 * peak(8)


def test_column_norms_is_the_per_column_oracle(rng):
    from dyadlab.norms import _column_norms
    for _ in range(60):
        shape = tuple(int(k) for k in rng.integers(1, 40, size=rng.integers(1, 4)))
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.3:
            x = np.asfortranarray(x)
        volume = 2.0 ** -int(rng.integers(0, 12))
        assert np.array_equal(_column_norms(x, volume), column_norms_oracle(x, volume))


def test_lp_norm_powers_only_the_nonzero_samples(rng):
    # each row of a stack gets the norm it has alone
    from dyadlab.norms import _lp_norms
    for p in (1.1, 1.5, 2.0, 3.0, 7.5):
        for _ in range(20):
            rows = rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 300))))
            rows[rng.random(rows.shape) < 0.6] = 0.0
            want = [float((np.sum(np.abs(x) ** p) * 0.125) ** (1.0 / p)) for x in rows]
            assert _lp_norms(rows, 0.125, p) == want
        assert _lp_norms(np.zeros((1, 8)), 0.125, p) == [0.0]


def test_uniformity_study_biparam_rows_match_apply_biparam():
    # transforming each trial once must not change any row
    from dyadlab import BkOperator, apply_biparam
    from dyadlab.biparam import PAtom
    from dyadlab.norms import _trial_rng
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    g1, g2 = pg.grids

    def unit(a):
        return a * (1.0 / dyadic_bmo_norm(a))

    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        reports = uniformity_study(kind, pg, trials=3, rng_seed=6, kmax=2, lmax=1)
        ks = range(3) if kind in ("Bkl", "BPk") else [None]
        ls = range(2) if kind in ("Bkl", "PBl") else [None]
        best = {}
        for t in range(3):
            rng = _trial_rng(6, t)
            b = random_product_function(pg, rng)
            f = random_product_function(pg, rng)
            beta1 = beta2 = syms = None
            if kind == "Bkl":
                beta1, beta2 = random_signs_oracle(g1, rng), random_signs_oracle(g2, rng)
            elif kind == "BPk":
                syms = [None, unit(random_function(g2, rng))]
            elif kind == "PBl":
                syms = [unit(random_function(g1, rng)), None]
            else:
                syms = [unit(random_function(g1, rng)), unit(random_function(g2, rng))]
            denom = rect_bmo_norm(b) * f.norm()
            for k in ks:
                for l in ls:
                    atoms = (PAtom(kind == "PP1") if k is None else BkOperator(g1, k, beta=beta1),
                             PAtom() if l is None else BkOperator(g2, l, beta=beta2))
                    best[(k, l)] = max(best.get((k, l), 0.0),
                                       apply_biparam(atoms, b, f, syms).norm() / denom)
        assert [(r.k, r.l, r.max_ratio) for r in reports] == \
            [(k, l, v) for (k, l), v in best.items()], kind


def test_uniformity_study_bk_rows_match_apply_bk():
    # drawing and transforming each trial once must not change any row
    from dyadlab import BkOperator, apply_Bk
    from dyadlab.norms import _trial_rng
    g = GridSpec(1, 6)
    reports = uniformity_study("Bk", g, trials=4, rng_seed=3)
    best = [0.0] * 6
    for t in range(4):
        rng = _trial_rng(3, t)
        b = random_function(g, rng)
        f = random_function(g, rng)
        beta = random_signs_oracle(g, rng)
        for k in range(6):
            op = BkOperator(g, k, beta=beta)
            best[k] = max(best[k], apply_Bk(op, b, f).norm() / (dyadic_bmo_norm(b) * f.norm()))
    assert [(r.k, r.max_ratio) for r in reports] == list(enumerate(best))


def test_uniformity_study_sk_and_p_rows_match_public_operators():
    # drawing each trial once, whatever the number of k values, must not
    # change any row
    from dyadlab import apply_P
    from dyadlab.norms import _trial_rng
    g = GridSpec(1, 5)
    reports = uniformity_study("Sk", g, trials=3, rng_seed=8, kmax=4)
    best = [0.0] * 5
    for t in range(3):
        for k in range(5):
            f = random_function(g, _trial_rng(8, t))
            best[k] = max(best[k], square_function(f, "S_k", k=k).norm() / f.norm())
    assert [(r.k, r.l, r.max_ratio) for r in reports] == \
        [(k, None, v) for k, v in enumerate(best)]
    reports = uniformity_study("P", g, trials=3, rng_seed=8)
    best = 0.0
    for t in range(3):
        rng = _trial_rng(8, t)
        b = random_function(g, rng)
        f = random_function(g, rng)
        a = random_function(g, rng)
        unit = a * (1.0 / dyadic_bmo_norm(a))
        best = max(best, apply_P(b, unit, f).norm() / (dyadic_bmo_norm(b) * f.norm()))
    assert [(r.k, r.l, r.max_ratio) for r in reports] == [(None, None, best)]


def test_uniformity_study_bk_transforms_each_trial_once(monkeypatch):
    from dyadlab import haar, norms
    calls = []
    for mod in (norms, haar):
        inner = mod.forward_stacked

        def counting(grid, x, _inner=inner):
            calls.append(1)
            return _inner(grid, x)
        monkeypatch.setattr(mod, "forward_stacked", counting)
    counters = {}
    reports = uniformity_study("Bk", GridSpec(1, 9), trials=20, rng_seed=7, kmax=8,
                               counters=counters)
    assert len(reports) == 9
    # 20 trials of 512 samples fill two blocks of 16 columns; the b and f
    # stacks of each block, whatever the number of trials and k values
    assert counters == {"trials": 20, "combos": 9, "blocks": 2}
    assert len(calls) == 4


def test_uniformity_study_sk_transforms_each_trial_once(monkeypatch):
    from dyadlab import norms
    calls = []
    inner = norms.forward_stacked

    def counting(grid, x):
        calls.append(1)
        return inner(grid, x)
    monkeypatch.setattr(norms, "forward_stacked", counting)
    reports = uniformity_study("Sk", GridSpec(1, 8), trials=5, rng_seed=7, kmax=6)
    assert len(reports) == 7
    # the f stack of the one block of 5 trials, whatever the number of k values
    assert len(calls) == 1


# Every kind on d = 1 grids with N1 != N2 and on d = 2 grids, with tops
# given and left to the finest level; the trials of each case fill three
# blocks or more.
_STUDY_CASES = [
    ("Sk", GridSpec(1, 9), {}, 40),
    ("Bk", GridSpec(1, 9), {"kmax": 8}, 40),
    ("P", GridSpec(1, 9), {}, 40),
    ("P", GridSpec(2, 4), {}, 70),
    ("Sk", GridSpec(2, 4), {"kmax": 3}, 70),
    ("Bk", GridSpec(2, 4), {"kmax": 3}, 70),
] + [(kind, ProductGrid(GridSpec(1, 4), GridSpec(1, 5)), {"kmax": 2, "lmax": 2}, 40)
     for kind in ("Bkl", "BPk", "PBl", "PP", "PP1")] + [
    (kind, ProductGrid(GridSpec(2, 2), GridSpec(2, 3)), {"kmax": 1}, 20)
    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1")]


@pytest.mark.parametrize("seed", [0, 3, 41])
@pytest.mark.parametrize("kind, space, tops, trials", _STUDY_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(_STUDY_CASES)])
def test_uniformity_study_matches_the_per_trial_oracle(kind, space, tops, trials, seed):
    counters = {}
    got = uniformity_study(kind, space, trials, seed, counters=counters, **tops)
    assert counters["blocks"] >= 3 and counters["trials"] == trials
    assert counters["combos"] == len(got)
    assert got == uniformity_study_oracle(kind, space, trials, seed, **tops)


# ``block`` is the number of trials in one full block: 2**13 // 4096 for P at
# N = 12, 2**13 // 1024 for PP1 at 32 x 32.
@pytest.mark.parametrize("kind, space, block", [
    ("P", GridSpec(1, 12), 2), ("PP1", ProductGrid(GridSpec(1, 5), GridSpec(1, 5)), 8)])
def test_uniformity_study_memory_does_not_grow_with_trials(kind, space, block):
    import tracemalloc
    uniformity_study(kind, space, trials=2, rng_seed=1)  # fill the grid caches

    def peak(trials):
        tracemalloc.start()
        try:
            uniformity_study(kind, space, trials=trials, rng_seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40) <= 1.25 * peak(block)
