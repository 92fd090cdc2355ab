import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     ProductGrid, dyadic_bmo_norm, fs_check, geometric_constant,
                     geometric_constant_closed_form, haar_function, jn_check,
                     maximal_function, open_set_bmo_norm, random_function,
                     random_product_function, rect_bmo_norm, reports_to_csv,
                     reports_to_jsonl, square_function, tensor_function,
                     uniformity_study)
from dyadlab.haar import haar_forward
from dyadlab.norms import (NormReport, geometric_cap_for, geometric_constant_tail_bound,
                           jn_study)
from conftest import (all_cubes, assert_columns_alone, column_norms_oracle, jn_study_oracle,
                      random_signs_oracle, strictly_inside, uniformity_study_oracle)


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
    h1 = haar_function(pg.grid1, HaarIndex(DyadicCube(0, (0,)), (0,)))
    h2 = haar_function(pg.grid2, HaarIndex(DyadicCube(0, (0,)), (0,)))
    assert abs(rect_bmo_norm(tensor_function(h1, h2)) - 1.0) < 1e-12
    # deeper single coefficient: norm |R|**(-1/2)
    h1d = haar_function(pg.grid1, HaarIndex(DyadicCube(1, (0,)), (0,)))
    assert abs(rect_bmo_norm(tensor_function(h1d, h2)) - np.sqrt(2.0)) < 1e-12
    # constant in either variable -> 0
    const2 = DyadicFunction(pg.grid2, np.ones(pg.grid2.n_samples))
    assert rect_bmo_norm(tensor_function(random_function(pg.grid1, rng), const2)) < 1e-12
    # tensor bound
    a1 = random_function(pg.grid1, rng)
    a2 = random_function(pg.grid2, rng)
    assert rect_bmo_norm(tensor_function(a1, a2)) <= \
        dyadic_bmo_norm(a1) * dyadic_bmo_norm(a2) + 1e-10


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(2, 2), GridSpec(1, 3)),
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(1, 2))], ids=repr)
def test_rect_bmo_matches_brute_force(pg, rng):
    # sup over rectangles R of |R|**(-1) sum_{R' inside R} mu(R'), from
    # per-HaarIndex coefficients
    from dyadlab.biparam import forward2
    g1, g2 = pg.grid1, pg.grid2
    rects = [(c1, c2) for c1 in all_cubes(g1) for c2 in all_cubes(g2)]

    def within(g, inner, outer):
        return inner == outer or strictly_inside(g, inner, outer)

    for _ in range(3):
        b = random_product_function(pg, rng)
        C = forward2(b)
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
    from dyadlab.biparam import forward2_stacked
    from dyadlab.haar import forward_stacked
    from dyadlab.norms import _bmo_stacked, _rect_bmo_stacked
    if isinstance(space, ProductGrid):
        fwd, norm = partial(forward2_stacked, space), partial(_rect_bmo_stacked, space)
        shape = space.shape
    else:
        fwd, norm = partial(forward_stacked, space), partial(_bmo_stacked, space)
        shape = (space.n_samples,)

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
    from dyadlab.biparam import forward2
    from dyadlab.grids import grid_index
    g1, g2 = b.pgrid.grid1, b.pgrid.grid2
    n_cells = g1.n_samples * g2.n_samples
    C = forward2(b)
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
    with pytest.raises(ValueError):
        square_function(random_function(g, rng), "S_k", k=8)


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


def test_strong_maximal_and_hybrid(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    f = random_product_function(pg, rng)
    M = maximal_function(f, variant="strong_rect")
    assert np.all(M.samples >= np.abs(f.samples) - 1e-12)
    H1 = square_function(f, "hybrid_max_square", var=1)
    H2 = square_function(f, "hybrid_max_square", var=2)
    assert np.all(H1.samples >= 0) and np.all(H2.samples >= 0)
    # L2 bound: per-slice maximal constant is at most 2 for the dyadic M
    assert H1.norm() <= 2.0 * f.norm() + 1e-12
    assert H2.norm() <= 2.0 * f.norm() + 1e-12


def test_square_functions_are_the_localized_squares_at_the_root(rng):
    from dyadlab.norms import jn_profile
    g = GridSpec(2, 3)
    f = random_function(g, rng)
    S = square_function(f, "S").samples
    assert np.array_equal(S, square_function(f, "S_k", k=0).samples)
    assert np.array_equal(S, jn_profile(f, DyadicCube(0, (0, 0)))[0])
    pg = ProductGrid(GridSpec(2, 2), GridSpec(1, 3))
    F = random_product_function(pg, rng)
    root = (DyadicCube(0, (0, 0)), DyadicCube(0, (0,)))
    assert np.array_equal(square_function(F, "SS").samples, jn_profile(F, root)[0])


def test_rect_masses_match_per_index_sums(rng):
    from dyadlab.biparam import forward2
    from dyadlab.norms import _rect_masses
    pg = ProductGrid(GridSpec(2, 1), GridSpec(1, 2))
    g1, g2 = pg.grid1, pg.grid2
    C = forward2(random_product_function(pg, rng))
    masses = _rect_masses(pg, C)
    assert masses.shape == (g1.n_cubes_total, g2.n_cubes_total) == (1, 3)
    for c1 in all_cubes(g1):
        for c2 in all_cubes(g2):
            brute = sum(C[g1.stacked_index(HaarIndex(c1, g1.int_sig(e1))),
                          g2.stacked_index(HaarIndex(c2, g2.int_sig(e2)))] ** 2
                        for e1 in range(g1.n_sig) for e2 in range(g2.n_sig))
            got = masses[g1.cube_range(c1.level).start + g1.flat_pos(c1.pos, c1.level),
                         g2.cube_range(c2.level).start + g2.flat_pos(c2.pos, c2.level)]
            assert abs(got - brute) < 1e-12


def test_double_square_function_parseval(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    f = random_product_function(pg, rng)
    SS = square_function(f, "SS")
    from dyadlab.biparam import forward2
    C = forward2(f)
    mass = (C ** 2).sum() - (C[0, :] ** 2).sum() - (C[:, 0] ** 2).sum() + C[0, 0] ** 2
    assert abs(SS.norm() ** 2 - mass) < 1e-12


def test_fs_check(rng):
    g = GridSpec(1, 6)
    family = [random_function(g, rng) for _ in range(4)]
    r = fs_check(family, 1.5)
    assert 0 < r < 10.0
    assert fs_check([DyadicFunction(g, np.zeros(g.n_samples))], 1.5) == 0.0


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


def test_uniformity_study_bk_exact_bound():
    reports = uniformity_study("Bk", {"N": 7, "kmax": 4}, trials=5, rng_seed=11)
    assert len(reports) == 5
    for r in reports:
        assert r.max_ratio <= 1.0 + 1e-12
    # reproducible from seeds
    again = uniformity_study("Bk", {"N": 7, "kmax": 4}, trials=5, rng_seed=11)
    assert [r.max_ratio for r in again] == [r.max_ratio for r in reports]


def test_uniformity_study_biparam_kinds():
    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        reports = uniformity_study(kind, {"N1": 3, "N2": 3, "kmax": 1, "lmax": 1},
                                   trials=2, rng_seed=4)
        assert all(np.isfinite(r.max_ratio) for r in reports)
        if kind == "Bkl":
            assert all(r.max_ratio <= 1 + 1e-12 for r in reports)


def test_uniformity_study_biparam_ranges_stop_at_finest_level():
    # k = 3..5 and l = 3..5 do not exist on N = 3 grids; the study skips them
    reports = uniformity_study("Bkl", {"N1": 3, "N2": 3, "kmax": 5, "lmax": 5},
                               trials=1, rng_seed=4)
    assert [(r.k, r.l) for r in reports] == [(k, l) for k in range(3) for l in range(3)]
    for kind, field in (("BPk", "k"), ("PBl", "l")):
        reports = uniformity_study(kind, {"N1": 3, "N2": 3, "kmax": 5, "lmax": 5},
                                   trials=1, rng_seed=4)
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
    from dyadlab.norms import _lp_norm
    for p in (1.1, 1.5, 2.0, 3.0, 7.5):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 300)))
            x[rng.random(x.size) < 0.6] = 0.0
            want = float((np.sum(np.abs(x) ** p) * 0.125) ** (1.0 / p))
            assert _lp_norm(x, 0.125, p) == want
        assert _lp_norm(np.zeros(8), 0.125, p) == 0.0


def test_jn_profile_gives_jn_check_for_every_p(rng):
    from dyadlab.norms import jn_profile, jn_ratio
    g = GridSpec(2, 3)
    a = random_function(g, rng)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    a2 = random_product_function(pg, rng)
    for fn, region in ((a, DyadicCube(1, (1, 0))),
                       (a2, (DyadicCube(1, (0,)), DyadicCube(0, (0,))))):
        profile = jn_profile(fn, region)
        for p in (1.25, 1.5, 2.0, 3.0):
            assert jn_ratio(profile, p) == jn_check(fn, region, p)
        with pytest.raises(ValueError):
            jn_ratio(profile, 1.0)


def test_uniformity_study_biparam_rows_match_apply_biparam():
    # transforming each trial once must not change any row
    from dyadlab import BiparamOperatorSpec, apply_biparam
    from dyadlab.norms import _trial_rng
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))

    def unit(a):
        return a * (1.0 / dyadic_bmo_norm(a))

    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        reports = uniformity_study(kind, {"N1": 3, "N2": 3, "kmax": 2, "lmax": 1},
                                   trials=3, rng_seed=6)
        ks = range(3) if kind in ("Bkl", "BPk") else [None]
        ls = range(2) if kind in ("Bkl", "PBl") else [None]
        best = {}
        for t in range(3):
            rng = _trial_rng(6, t)
            b = random_product_function(pg, rng)
            f = random_product_function(pg, rng)
            if kind == "Bkl":
                fields = {"beta1": random_signs_oracle(pg.grid1, rng),
                          "beta2": random_signs_oracle(pg.grid2, rng)}
            elif kind == "BPk":
                fields = {"a2": unit(random_function(pg.grid2, rng))}
            elif kind == "PBl":
                fields = {"a1": unit(random_function(pg.grid1, rng))}
            else:
                a1 = unit(random_function(pg.grid1, rng))
                fields = {"a1": a1, "a2": unit(random_function(pg.grid2, rng))}
            denom = rect_bmo_norm(b) * f.norm()
            for k in ks:
                for l in ls:
                    spec = BiparamOperatorSpec(kind, k=k or 0, l=l or 0, **fields)
                    best[(k, l)] = max(best.get((k, l), 0.0),
                                       apply_biparam(spec, b, f).norm() / denom)
        assert [(r.k, r.l, r.max_ratio) for r in reports] == \
            [(k, l, v) for (k, l), v in best.items()], kind


def test_uniformity_study_bk_rows_match_apply_bk():
    # drawing and transforming each trial once must not change any row
    from dyadlab import BkOperator, apply_Bk
    from dyadlab.norms import _trial_rng
    g = GridSpec(1, 6)
    reports = uniformity_study("Bk", {"N": 6, "kmax": 5}, trials=4, rng_seed=3)
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
    reports = uniformity_study("Sk", {"N": 5, "kmax": 4}, trials=3, rng_seed=8)
    best = [0.0] * 5
    for t in range(3):
        for k in range(5):
            f = random_function(g, _trial_rng(8, t))
            best[k] = max(best[k], square_function(f, "S_k", k=k).norm() / f.norm())
    assert [(r.k, r.l, r.max_ratio) for r in reports] == \
        [(k, None, v) for k, v in enumerate(best)]
    reports = uniformity_study("P", {"N": 5}, trials=3, rng_seed=8)
    best = 0.0
    for t in range(3):
        rng = _trial_rng(8, t)
        b = random_function(g, rng)
        a = random_function(g, rng)
        f = random_function(g, rng)
        denom = dyadic_bmo_norm(b) * dyadic_bmo_norm(a) * f.norm()
        best = max(best, apply_P(b, a, f).norm() / denom)
    assert [(r.k, r.l, r.max_ratio) for r in reports] == [(None, None, best)]


def test_uniformity_study_bk_transforms_each_trial_once(monkeypatch):
    from dyadlab import norms, paraproducts
    calls = []
    for mod in (norms, paraproducts):
        inner = mod.forward_stacked

        def counting(grid, x, _inner=inner):
            calls.append(1)
            return _inner(grid, x)
        monkeypatch.setattr(mod, "forward_stacked", counting)
    counters = {}
    reports = uniformity_study("Bk", {"N": 9, "kmax": 8}, trials=20, rng_seed=7,
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
    reports = uniformity_study("Sk", {"N": 8, "kmax": 6}, trials=5, rng_seed=7)
    assert len(reports) == 7
    # the f stack of the one block of 5 trials, whatever the number of k values
    assert len(calls) == 1


# Every kind on caller-free default grids with N1 != N2, and on d = 2 grids
# passed in; the trials of each case fill three blocks or more.
_STUDY_CASES = [
    ("Sk", {"N": 9, "kmax": 8}, 40, None, None),
    ("Bk", {"N": 9, "kmax": 8}, 40, None, None),
    ("P", {"N": 9}, 40, None, None),
    ("P", {}, 70, GridSpec(2, 4), None),
    ("Sk", {"kmax": 3}, 70, GridSpec(2, 4), None),
    ("Bk", {"kmax": 3}, 70, GridSpec(2, 4), None),
] + [(kind, {"N1": 4, "N2": 5, "kmax": 2, "lmax": 2}, 40, None, None)
     for kind in ("Bkl", "BPk", "PBl", "PP", "PP1")] + [
    (kind, {"kmax": 1, "lmax": 2}, 20, None, ProductGrid(GridSpec(2, 2), GridSpec(2, 3)))
    for kind in ("Bkl", "BPk", "PBl", "PP", "PP1")]


@pytest.mark.parametrize("seed", [0, 3, 41])
@pytest.mark.parametrize("kind, params, trials, grid, pgrid", _STUDY_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(_STUDY_CASES)])
def test_uniformity_study_matches_the_per_trial_oracle(kind, params, trials, grid,
                                                        pgrid, seed):
    counters = {}
    got = uniformity_study(kind, params, trials, seed, grid=grid, pgrid=pgrid,
                           counters=counters)
    assert counters["blocks"] >= 3 and counters["trials"] == trials
    assert counters["combos"] == len(got)
    assert got == uniformity_study_oracle(kind, params, trials, seed, grid=grid, pgrid=pgrid)


# ``block`` is the number of trials in one full block: 2**13 // 4096 for P at
# N = 12, 2**13 // 1024 for PP1 at 32 x 32.
@pytest.mark.parametrize("kind, params, block", [("P", {"N": 12}, 2),
                                                 ("PP1", {"N1": 5, "N2": 5}, 8)])
def test_uniformity_study_memory_does_not_grow_with_trials(kind, params, block):
    import tracemalloc
    uniformity_study(kind, params, trials=2, rng_seed=1)  # fill the grid caches

    def peak(trials):
        tracemalloc.start()
        try:
            uniformity_study(kind, params, trials=trials, rng_seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40) <= 1.25 * peak(block)
