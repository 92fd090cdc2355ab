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
from dyadlab.norms import NormReport, geometric_cap_for, geometric_constant_tail_bound
from conftest import all_cubes


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
    from dyadlab.norms import _random_signs, _trial_rng
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    reports = uniformity_study("Bkl", {"N1": 3, "N2": 3, "kmax": 2, "lmax": 1},
                               trials=3, rng_seed=6)
    best = {}
    for t in range(3):
        rng = _trial_rng(6, t)
        b = random_product_function(pg, rng)
        f = random_product_function(pg, rng)
        beta1, beta2 = _random_signs(pg.grid1, rng), _random_signs(pg.grid2, rng)
        denom = rect_bmo_norm(b) * f.norm()
        for k in range(3):
            for l in range(2):
                spec = BiparamOperatorSpec("Bkl", k=k, l=l, beta1=beta1, beta2=beta2)
                best[(k, l)] = max(best.get((k, l), 0.0),
                                   apply_biparam(spec, b, f).norm() / denom)
    assert [(r.k, r.l, r.max_ratio) for r in reports] == \
        [(k, l, v) for (k, l), v in best.items()]


def test_uniformity_study_bk_rows_match_apply_bk():
    # drawing and transforming each trial once must not change any row
    from dyadlab import BkOperator, apply_Bk
    from dyadlab.norms import _random_signs, _trial_rng
    g = GridSpec(1, 6)
    reports = uniformity_study("Bk", {"N": 6, "kmax": 5}, trials=4, rng_seed=3)
    best = [0.0] * 6
    for t in range(4):
        rng = _trial_rng(3, t)
        b = random_function(g, rng)
        f = random_function(g, rng)
        beta = _random_signs(g, rng)
        for k in range(6):
            op = BkOperator(g, k, beta=beta)
            best[k] = max(best[k], apply_Bk(op, b, f).norm() / (dyadic_bmo_norm(b) * f.norm()))
    assert [(r.k, r.max_ratio) for r in reports] == list(enumerate(best))


def test_uniformity_study_bk_transforms_each_trial_once(monkeypatch):
    from dyadlab import norms, paraproducts
    calls = []
    for mod in (norms, paraproducts):
        inner = mod.forward_stacked

        def counting(grid, x, _inner=inner):
            calls.append(1)
            return _inner(grid, x)
        monkeypatch.setattr(mod, "forward_stacked", counting)
    reports = uniformity_study("Bk", {"N": 9, "kmax": 8}, trials=5, rng_seed=7)
    assert len(reports) == 9
    # b and f of each of the 5 trials, whatever the number of k values
    assert len(calls) == 10
