"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Pinned empirical constants were calibrated once (seed 7, this repository) and
are asserted with 2x headroom; exact bounds use the stated tolerances.
"""

import time

import numpy as np

from dyadlab import (BkOperator, DyadicCube,
                     DyadicFunction, GridSpec, HaarIndex, ProductGrid,
                     apply_Bk, apply_P, apply_P_adjoint, apply_biparam,
                     dyadic_bmo_norm, evaluate_terms,
                     geometric_constant, geometric_constant_closed_form,
                     haar_forward, haar_function, haar_inverse, inner_product,
                     jn_check, mc_representation_demo,
                     multiplication_commutator, random_function,
                     random_product_function, random_shift,
                     tensor_function, verify_identity)
from dyadlab.decomposition import decompose
from dyadlab.norms import geometric_constant_tail_bound
from conftest import dense_shift_matrix_oracle

# calibrated once at seed 7: sup ||[M_b,S]f|| / ((1+max(i,j)) bmo(b) ||f||)
# over the criterion-1 sweep measured 0.6073; asserted with 2x headroom
PINNED_COMMUTATOR_RATIO = 0.61
# calibrated once at seed 11: localized square-function L^p ratios
PINNED_JN_RATIO = {1.25: 0.95, 1.5: 0.95, 2.0: 1.0, 3.0: 0.95}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _sweep_one_param(grid, imax, jmax, trials, seed):
    worst_res = 0.0
    worst_ratio = 0.0
    for i in range(imax + 1):
        for j in range(jmax + 1):
            for t in range(trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(i, j, t)))
                b = random_function(grid, rng)
                S = random_shift(grid, i, j, rng)
                f = random_function(grid, rng)
                tl = decompose(b, S)
                direct = multiplication_commutator(b, S, f)
                approx = evaluate_terms(tl, f)
                denom = dyadic_bmo_norm(b) * f.norm()
                worst_res = max(worst_res, (direct - approx).norm() / denom)
                worst_ratio = max(worst_ratio,
                                  direct.norm() / ((1 + max(i, j)) * denom))
    return worst_res, worst_ratio


SWEEP = {}


def _criterion1_sweep():
    if "res" not in SWEEP:
        t0 = time.time()
        res, ratio = _sweep_one_param(GridSpec(1, 6), 4, 4, 100, seed=7)
        SWEEP["res"] = res
        SWEEP["ratio"] = ratio
        SWEEP["runtime"] = time.time() - t0
    return SWEEP


def test_criterion_1_decomposition_identity_one_parameter():
    sw = _criterion1_sweep()
    res2, _ = _sweep_one_param(GridSpec(2, 3), 2, 2, 100, seed=7)
    ok = sw["res"] < 1e-9 and res2 < 1e-9 and sw["runtime"] < 120.0
    _report(1, ok, f"d=1 N=6 residual {sw['res']:.2e} in {sw['runtime']:.1f}s; "
                   f"d=2 N=3 residual {res2:.2e}")
    assert sw["res"] < 1e-9
    assert res2 < 1e-9
    assert sw["runtime"] < 120.0


def test_criterion_2_decomposition_identity_noncancellative():
    grid = GridSpec(1, 5)
    worst = 0.0
    for n_ori, ori in enumerate(("analysis", "synthesis")):
        for t in range(100):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=7, spawn_key=(n_ori, t)))
            b = random_function(grid, rng)
            S = random_shift(grid, 0, 0, rng, kind="noncancellative",
                             orientation=ori)
            f = random_function(grid, rng)
            tl = decompose(b, S)
            direct = multiplication_commutator(b, S, f)
            denom = dyadic_bmo_norm(b) * f.norm()
            worst = max(worst, (direct - evaluate_terms(tl, f)).norm() / denom)
    # per-cube same-cube commutators vanish for distinct signatures (d=2, N=3)
    g2 = GridSpec(2, 3)
    S = random_shift(g2, 0, 0, 7, kind="noncancellative")
    worst_cube = 0.0
    for lvl in range(g2.N):
        for flat in range(g2.n_cubes(lvl)):
            cube = DyadicCube(lvl, g2.pos_from_flat(flat, lvl))
            for e1 in range(g2.n_sig):
                for e2 in range(g2.n_sig):
                    if e1 == e2:
                        continue
                    hI = haar_function(g2, HaarIndex(cube, g2.int_sig(e1)))
                    hJ = haar_function(g2, HaarIndex(cube, g2.int_sig(e2)))
                    worst_cube = max(worst_cube,
                                     multiplication_commutator(hI, S, hJ).norm())
    ok = worst < 1e-9 and worst_cube < 1e-12
    _report(2, ok, f"residual {worst:.2e}, same-cube {worst_cube:.2e}")
    assert worst < 1e-9
    assert worst_cube < 1e-12


def test_criterion_3_decomposition_identity_biparameter():
    pg = ProductGrid(GridSpec(1, 4), GridSpec(1, 4))
    worst = 0.0
    count_const = 0
    cases = 0
    for mix1 in ("cancellative", "noncancellative"):
        for mix2 in ("cancellative", "noncancellative"):
            ij1 = [(i, j) for i in range(3) for j in range(3)] \
                if mix1 == "cancellative" else [(0, 0)]
            ij2 = [(i, j) for i in range(3) for j in range(3)] \
                if mix2 == "cancellative" else [(0, 0)]
            for n1, (i1, j1) in enumerate(ij1):
                for n2, (i2, j2) in enumerate(ij2):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        entropy=7, spawn_key=(cases,)))
                    ori1 = "analysis" if (n1 + n2) % 2 == 0 else "synthesis"
                    ori2 = "analysis" if n2 % 2 == 0 else "synthesis"
                    b = random_product_function(pg, rng)
                    S1 = random_shift(pg.grids[0], i1, j1, rng, kind=mix1,
                                      orientation=ori1)
                    S2 = random_shift(pg.grids[1], i2, j2, rng, kind=mix2,
                                      orientation=ori2)
                    tl = decompose(b, S1, S2)
                    assert tl.term_count <= tl.meta["count_bound"]
                    count_const = max(count_const, tl.meta["count_constant"])
                    rep = verify_identity(b, (S1, S2), trials=50, rng_seed=7,
                                          tol=1e-9)
                    worst = max(worst, rep["max_residual"])
                    cases += 1
    ok = worst < 1e-9
    _report(3, ok, f"{cases} cases, residual {worst:.2e}, "
                   f"count constant C = {count_const}")
    assert worst < 1e-9


def test_criterion_4_shift_contraction():
    grid_points = [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3)]
    worst = 0.0
    built = 0
    n_target = 1000
    t = 0
    while built < n_target:
        d, N = grid_points[t % len(grid_points)]
        g = GridSpec(d, N)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7,
                                                           spawn_key=(4, t)))
        i = int(rng.integers(0, N))
        j = int(rng.integers(0, N))
        S = random_shift(g, i, j, rng)
        for _ in range(10):
            f = random_function(g, rng)
            worst = max(worst, S.apply(f).norm() / f.norm())
        built += 1
        t += 1
    ok = worst <= 1 + 1e-12
    _report(4, ok, f"{built} shifts, max ratio {worst:.15f}")
    assert worst <= 1 + 1e-12


def test_criterion_5_uniform_bk_bound():
    grid = GridSpec(1, 9)
    worst = 0.0
    for k in range(9):
        for t in range(100):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=7,
                                                               spawn_key=(5, k, t)))
            b = random_function(grid, rng)
            f = random_function(grid, rng)
            beta = np.concatenate([np.sign(rng.standard_normal(grid.n_cubes(l)) + 0.1)
                                   for l in range(grid.N)])
            out = apply_Bk(BkOperator(grid, k, beta=beta), b, f)
            worst = max(worst, out.norm() / (dyadic_bmo_norm(b) * f.norm()))
    ok = worst <= 1 + 1e-12
    _report(5, ok, f"k = 0..8, max ratio {worst:.15f}")
    assert worst <= 1 + 1e-12


def test_criterion_6_oracle_equivalence():
    from test_paraproducts import bk_oracle, p_oracle
    from test_biparam import (_bkl_oracle, _bpk_oracle, _pp1_oracle,
                              _pp_oracle, P, PG, PSTAR, G1, G2)
    worst = 0.0
    g = GridSpec(1, 3)
    for t in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7,
                                                           spawn_key=(6, t)))
        b = random_function(g, rng)
        a = random_function(g, rng)
        f = random_function(g, rng)
        # shifts
        S = random_shift(g, t % 3, (t + 1) % 3, rng)
        M = dense_shift_matrix_oracle(S)
        worst = max(worst, np.max(np.abs(S.apply(f).samples - M @ f.samples)))
        Sn = random_shift(g, 0, 0, rng, kind="noncancellative",
                          orientation="analysis" if t % 2 else "synthesis")
        Mn = dense_shift_matrix_oracle(Sn)
        worst = max(worst, np.max(np.abs(Sn.apply(f).samples - Mn @ f.samples)))
        # B_k
        op = BkOperator(g, t % 3)
        worst = max(worst, np.max(np.abs(apply_Bk(op, b, f).samples
                                         - bk_oracle(op, b, f))))
        # P and P*
        worst = max(worst, np.max(np.abs(apply_P(b, a, f).samples
                                         - p_oracle(b, a, f))))
        pstar_direct = apply_P_adjoint(b, a, f)
        gref = random_function(g, rng)
        dual_gap = abs(inner_product(apply_P(b, a, gref), f)
                       - inner_product(gref, pstar_direct))
        worst = max(worst, dual_gap)
        # bi-parameter kinds at N1 = N2 = 3
        bb = random_product_function(PG, rng)
        ff = random_product_function(PG, rng)
        aa = random_product_function(PG, rng)
        a1 = random_function(G1, rng)
        a2 = random_function(G2, rng)
        atoms = (BkOperator(G1, t % 3), BkOperator(G2, (t + 1) % 3))
        worst = max(worst, np.max(np.abs(apply_biparam(atoms, bb, ff).samples
                                         - _bkl_oracle(atoms, bb, ff))))
        worst = max(worst, np.max(np.abs(apply_biparam((P, P), bb, ff, aa).samples
                                         - _pp_oracle(aa, bb, ff))))
        worst = max(worst, np.max(np.abs(apply_biparam((PSTAR, P), bb, ff, aa).samples
                                         - _pp1_oracle(aa, bb, ff))))
        B1 = BkOperator(G1, t % 3)
        worst = max(worst, np.max(np.abs(apply_biparam((B1, P), bb, ff, [None, a2]).samples
                                         - _bpk_oracle(B1, a2, bb, ff))))
        want = apply_biparam((B1, P), bb.transpose(), ff.transpose(), [None, a1]).samples.T
        got = apply_biparam((P, BkOperator(G2, t % 3)), bb, ff, [a1, None]).samples
        worst = max(worst, np.max(np.abs(got - want)))
    ok = worst < 1e-10
    _report(6, ok, f"max oracle residual {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_geometric_constant():
    val = geometric_constant(2.0, 60)
    closed = geometric_constant_closed_form(2.0)
    tail = geometric_constant_tail_bound(2.0, 60)
    ok = abs(val - 20.0) < 1e-10 and abs(closed - 20.0) < 1e-12
    _report(7, ok, f"value {val:.12f}, truncation bound {tail:.2e}")
    assert abs(val - 20.0) < 1e-10
    assert tail < 1e-10


def test_criterion_8_empirical_upper_bound():
    sw = _criterion1_sweep()
    ok = sw["ratio"] <= 2.0 * PINNED_COMMUTATOR_RATIO
    _report(8, ok, f"measured {sw['ratio']:.4f} vs pinned "
                   f"{PINNED_COMMUTATOR_RATIO} (2x headroom)")
    assert sw["ratio"] <= 2.0 * PINNED_COMMUTATOR_RATIO


def test_criterion_9_monte_carlo_representation():
    rep = mc_representation_demo(GridSpec(1, 6), samples=10000, rng_seed=42)
    ok = (rep["toeplitz"]["pass"] and rep["antisymmetry"]["pass"]
          and rep["toeplitz"]["frac_beyond_z"] < 0.01
          and rep["antisymmetry"]["frac_beyond_z"] < 0.01
          and rep["single_omega_not_toeplitz"])
    _report(9, ok, f"toeplitz max_z {rep['toeplitz']['max_z']:.2f} "
                   f"(familywise {rep['toeplitz']['bonferroni_z']:.2f}), "
                   f"antisym max_z {rep['antisymmetry']['max_z']:.2f}, "
                   f"single/avg dev {rep['single_omega_max_dev']:.3f}/"
                   f"{rep['averaged_max_dev']:.4f}")
    assert rep["toeplitz"]["pass"]
    assert rep["antisymmetry"]["pass"]
    assert rep["single_omega_not_toeplitz"]


def test_criterion_10_core_algebra():
    from test_biparam import P, PSTAR
    worst = 0.0
    rng = np.random.default_rng(7)
    g = GridSpec(2, 3)
    # orthonormality over a sample of index pairs
    idxs = []
    for lvl in range(g.N):
        for flat in range(0, g.n_cubes(lvl), 2):
            for e in range(g.n_sig):
                idxs.append(HaarIndex(DyadicCube(lvl, g.pos_from_flat(flat, lvl)),
                                      g.int_sig(e)))
    funcs = [haar_function(g, i) for i in idxs]
    G = np.array([[inner_product(x, y) for y in funcs] for x in funcs])
    worst = max(worst, float(np.max(np.abs(G - np.eye(len(funcs))))))
    # Parseval + roundtrip
    f = random_function(g, rng)
    c = haar_forward(f)
    worst = max(worst, abs(c.l2_norm_sq() - f.norm() ** 2) / f.norm() ** 2)
    worst = max(worst, (haar_inverse(c) - f).norm() / f.norm())
    # adjoint duality for shifts
    S = random_shift(g, 1, 1, rng)
    u, v = random_function(g, rng), random_function(g, rng)
    worst = max(worst, abs(inner_product(S.apply(u), v)
                           - inner_product(u, S.adjoint().apply(v))))
    # partial-adjoint relation for PP/PP1
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    aa = random_product_function(pg, rng)
    bb = random_product_function(pg, rng)
    f1, g1f = random_function(pg.grids[0], rng), random_function(pg.grids[0], rng)
    f2, g2f = random_function(pg.grids[1], rng), random_function(pg.grids[1], rng)
    lhs = inner_product(apply_biparam((P, P), bb, tensor_function(f1, f2), aa),
                        tensor_function(g1f, g2f))
    rhs = inner_product(apply_biparam((PSTAR, P), bb, tensor_function(g1f, f2), aa),
                        tensor_function(f1, g2f))
    worst = max(worst, abs(lhs - rhs))
    # mean invariance of commutators
    b = random_function(g, rng)
    const = DyadicFunction(g, np.full(g.n_samples, 4.2))
    h = random_function(g, rng)
    worst = max(worst, (multiplication_commutator(b, S, h)
                        - multiplication_commutator(b + const, S, h)).norm())
    # jn ratios: p = 2 at most 1 exactly, pinned thresholds with 2x headroom
    jn_worst = {}
    g1d = GridSpec(1, 6)
    for t in range(100):
        trng = np.random.default_rng(np.random.SeedSequence(entropy=11,
                                                            spawn_key=(t,)))
        a = random_function(g1d, trng)
        lvl = int(trng.integers(0, g1d.N))
        cube = DyadicCube(lvl, g1d.pos_from_flat(
            int(trng.integers(0, g1d.n_cubes(lvl))), lvl))
        for p in (1.25, 1.5, 2.0, 3.0):
            jn_worst[p] = max(jn_worst.get(p, 0.0), jn_check(a, cube, p))
    ok = worst < 1e-11 and jn_worst[2.0] <= 1.0 + 1e-15 and \
        all(jn_worst[p] <= 2.0 * PINNED_JN_RATIO[p] for p in jn_worst)
    _report(10, ok, f"max algebra residual {worst:.2e}, jn(p=2) "
                    f"{jn_worst[2.0]:.4f}")
    assert worst < 1e-11
    assert jn_worst[2.0] <= 1.0 + 1e-15
    for p, v in jn_worst.items():
        assert v <= 2.0 * PINNED_JN_RATIO[p]
