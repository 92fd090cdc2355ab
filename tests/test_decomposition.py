import hashlib
import json

import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     ProductGrid, decompose_biparam,
                     decompose_cancellative, decompose_noncancellative,
                     evaluate_terms, haar_function, iterated_commutator,
                     multiplication_commutator, random_function,
                     random_product_function, random_shift, tensor_function,
                     verify_identity)
from dyadlab import ProductFunction, ShiftOperator, dyadic_bmo_norm, rect_bmo_norm
from dyadlab.biparam import (forward2_stacked, inverse2_stacked,
                             iterated_commutator_stacked)
from dyadlab.decomposition import decompose, _trial_samples, evaluate_stacked
from dyadlab.grids import WrongKindError
from dyadlab.haar import forward_stacked, inverse_stacked
from dyadlab.norms import _trial_rng
from dyadlab.shifts import multiplication_commutator_stacked, noncancellative_shift


def test_wrong_kind_errors(rng):
    g = GridSpec(1, 3)
    b = random_function(g, rng)
    canc = random_shift(g, 1, 0, rng)
    noncanc = random_shift(g, 0, 0, rng, kind="noncancellative")
    with pytest.raises(WrongKindError):
        decompose_noncancellative(b, canc)
    with pytest.raises(WrongKindError):
        decompose_cancellative(b, noncanc)


def test_cancellative_identity_small(rng):
    # i=j=0, d=1, N=3: term count <= C and residual at roundoff scale
    g = GridSpec(1, 3)
    b = random_function(g, rng)
    S = random_shift(g, 0, 0, rng)
    rep = verify_identity(b, S, trials=10, rng_seed=5, tol=1e-10)
    assert rep["pass"] and rep["max_residual"] < 1e-10
    assert rep["term_count"] <= 4


def test_cancellative_term_count_formula(rng):
    # d=1: exact count 4 + i + j, bounded by C (1 + max(i,j)) with C = 4
    g = GridSpec(1, 6)
    b = random_function(g, rng)
    S = random_shift(g, 2, 3, rng)
    tl = decompose_cancellative(b, S)
    assert tl.term_count == 4 + 2 + 3
    assert tl.meta["count_constant"] == 4
    assert tl.term_count <= tl.meta["count_bound"] == 4 * (1 + 3)
    provs = {t.provenance for t in tl.terms}
    assert "b_mul:tail" in provs and "mul_S:depth_2" in provs


def test_count_law_full_range(rng):
    # exact construction counts and the C (1 + max(i,j)) law for i,j <= 4
    g = GridSpec(1, 6)
    b = random_function(g, rng)
    for i in range(5):
        for j in range(5):
            if max(i, j) > g.N - 1:
                continue
            tl = decompose_cancellative(b, random_shift(g, i, j, rng))
            assert tl.term_count == 4 + i + j
            assert tl.term_count <= tl.meta["count_constant"] * (1 + max(i, j))
    g2 = GridSpec(2, 3)
    b2 = random_function(g2, rng)
    for i in range(3):
        for j in range(3):
            tl = decompose_cancellative(b2, random_shift(g2, i, j, rng))
            nsig = g2.n_sig
            assert tl.term_count == 2 * (nsig + nsig ** 2) + (i + j) * nsig ** 2
            assert tl.term_count <= tl.meta["count_constant"] * (1 + max(i, j))


def test_biparam_count_law_full_range(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b = random_product_function(pg, rng)
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    S1 = random_shift(pg.grid1, i1, j1, rng)
                    S2 = random_shift(pg.grid2, i2, j2, rng)
                    tl = decompose_biparam(b, S1, S2)
                    assert tl.term_count == (4 + i1 + j1) * (4 + i2 + j2)
                    assert tl.term_count <= tl.meta["count_constant"] \
                        * (1 + max(i1, j1)) * (1 + max(i2, j2))


def test_decompose_dispatcher(rng):
    from dyadlab import decompose
    g = GridSpec(1, 3)
    b = random_function(g, rng)
    assert decompose(b, random_shift(g, 1, 0, rng)).case == "cancellative"
    Sn = random_shift(g, 0, 0, rng, kind="noncancellative",
                      orientation="synthesis")
    assert decompose(b, Sn).case == "noncancellative-synthesis"


def test_constant_b_gives_zero_terms(rng):
    g = GridSpec(1, 4)
    const = DyadicFunction(g, np.full(g.n_samples, 2.0))
    S = random_shift(g, 1, 1, rng)
    tl = decompose_cancellative(const, S)
    f = random_function(g, rng)
    assert evaluate_terms(tl, f).norm() < 1e-13
    assert multiplication_commutator(const, S, f).norm() < 1e-13


def test_identity_d2(rng):
    g = GridSpec(2, 3)
    b = random_function(g, rng)
    for (i, j) in [(0, 0), (1, 2), (2, 2)]:
        S = random_shift(g, i, j, rng)
        rep = verify_identity(b, S, trials=5, rng_seed=2, tol=1e-9)
        assert rep["pass"], rep


def test_noncancellative_identity_both_orientations(rng):
    g = GridSpec(1, 5)
    for ori in ("analysis", "synthesis"):
        b = random_function(g, rng)
        S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)
        rep = verify_identity(b, S, trials=10, rng_seed=3, tol=1e-10)
        assert rep["pass"], rep
        tl = decompose_noncancellative(b, S)
        kinds = {t.kind for t in tl.terms}
        if ori == "analysis":
            assert "P_term" in kinds and "Pstar_term" not in kinds
        else:
            assert "Pstar_term" in kinds and "P_term" not in kinds


def test_noncancellative_zero_symbol(rng):
    g = GridSpec(1, 4)
    S = noncancellative_shift(g, DyadicFunction(g, np.zeros(g.n_samples)))
    b = random_function(g, rng)
    f = random_function(g, rng)
    assert multiplication_commutator(b, S, f).norm() == 0.0
    tl = decompose_noncancellative(b, S)
    assert evaluate_terms(tl, f).norm() < 1e-13


def test_same_cube_commutator_vanishes_d2(rng):
    # [h_I^eps, S00] h_I^eps' = 0 for eps != eps', all cubes at d=2, N=3
    g = GridSpec(2, 3)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    for lvl in range(g.N):
        for flat in range(g.n_cubes(lvl)):
            cube = DyadicCube(lvl, g.pos_from_flat(flat, lvl))
            for e1 in range(g.n_sig):
                for e2 in range(g.n_sig):
                    if e1 == e2:
                        continue
                    hI = haar_function(g, HaarIndex(cube, g.int_sig(e1)))
                    hJ = haar_function(g, HaarIndex(cube, g.int_sig(e2)))
                    assert multiplication_commutator(hI, S, hJ).norm() < 1e-12


def test_mean_invariance_of_decomposition(rng):
    g = GridSpec(1, 5)
    b = random_function(g, rng)
    S = random_shift(g, 2, 1, rng)
    shifted = b + DyadicFunction(g, np.full(g.n_samples, -1.7))
    tl1 = decompose_cancellative(b, S)
    tl2 = decompose_cancellative(shifted, S)
    for _ in range(3):
        f = random_function(g, rng)
        assert (evaluate_terms(tl1, f) - evaluate_terms(tl2, f)).norm() < 1e-12


def test_dropping_a_term_breaks_identity(rng):
    g = GridSpec(1, 5)
    b = random_function(g, rng)
    S = random_shift(g, 1, 1, rng)
    tl = decompose_cancellative(b, S)
    f = random_function(g, rng)
    direct = multiplication_commutator(b, S, f)
    full = evaluate_terms(tl, f)
    assert (direct - full).norm() / f.norm() < 1e-12
    broken = tl.drop(0)
    assert (direct - evaluate_terms(broken, f)).norm() / f.norm() > 1e-6


def test_empty_terms_zero_commutator():
    g = GridSpec(1, 3)
    zero_b = DyadicFunction(g, np.zeros(g.n_samples))
    S = random_shift(g, 0, 0, 0)
    tl = decompose_cancellative(zero_b, S)
    f = random_function(g, np.random.default_rng(1))
    assert evaluate_terms(tl, f).norm() == 0.0
    assert multiplication_commutator(zero_b, S, f).norm() == 0.0


def test_omega_grid_identity(rng):
    for g in (GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
              GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))):
        b = random_function(g, rng)
        S = random_shift(g, 1, 1, rng)
        rep = verify_identity(b, S, trials=5, rng_seed=17, tol=1e-10)
        assert rep["pass"], rep


def test_biparam_identity_all_mixes(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    cases = [("cancellative", "cancellative", (1, 1), (1, 1)),
             ("cancellative", "noncancellative", (2, 0), (0, 0)),
             ("noncancellative", "cancellative", (0, 0), (1, 2)),
             ("noncancellative", "noncancellative", (0, 0), (0, 0))]
    for k1, k2, (i1, j1), (i2, j2) in cases:
        b = random_product_function(pg, rng)
        S1 = random_shift(pg.grid1, i1, j1, rng, kind=k1)
        S2 = random_shift(pg.grid2, i2, j2, rng, kind=k2)
        rep = verify_identity(b, (S1, S2), trials=3, rng_seed=23, tol=1e-9)
        assert rep["pass"], rep
        tl = decompose_biparam(b, S1, S2)
        assert tl.term_count <= tl.meta["count_bound"]


def test_biparam_pp_kind_per_orientation(rng):
    # same orientation in both variables -> exactly one plain PP term
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b = random_product_function(pg, rng)
    S1 = random_shift(pg.grid1, 0, 0, rng, kind="noncancellative",
                      orientation="analysis")
    S2 = random_shift(pg.grid2, 0, 0, rng, kind="noncancellative",
                      orientation="analysis")
    tl = decompose_biparam(b, S1, S2)
    assert [t.kind for t in tl.terms].count("PP_term") == 1
    assert not any(t.kind in ("PP1_term", "PP2_term", "PPstar_term")
                   for t in tl.terms)
    # opposite orientations produce the partial adjoints instead
    S1s = random_shift(pg.grid1, 0, 0, rng, kind="noncancellative",
                       orientation="synthesis")
    tl2 = decompose_biparam(b, S1s, S2)
    kinds = [t.kind for t in tl2.terms]
    assert kinds.count("PP1_term") == 1 and kinds.count("PP_term") == 0


def test_biparam_tensor_factorization(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b1, f1 = random_function(pg.grid1, rng), random_function(pg.grid1, rng)
    b2, f2 = random_function(pg.grid2, rng), random_function(pg.grid2, rng)
    S1 = random_shift(pg.grid1, 1, 0, rng)
    S2 = random_shift(pg.grid2, 0, 1, rng)
    lhs = iterated_commutator(tensor_function(b1, b2), S1, S2,
                              tensor_function(f1, f2))
    rhs = tensor_function(multiplication_commutator(b1, S1, f1),
                          multiplication_commutator(b2, S2, f2))
    assert (lhs - rhs).norm() < 1e-11


def test_biparam_mixed_dimensions_and_shifted_grids(rng):
    # d=2 x d=1 product grids exercise the full signature algebra per variable
    pg = ProductGrid(GridSpec(2, 2), GridSpec(1, 3))
    for k1 in ("cancellative", "noncancellative"):
        for k2 in ("cancellative", "noncancellative"):
            b = random_product_function(pg, rng)
            S1 = random_shift(pg.grid1, *((1, 1) if k1 == "cancellative" else (0, 0)),
                              rng, kind=k1)
            S2 = random_shift(pg.grid2, *((2, 1) if k2 == "cancellative" else (0, 0)),
                              rng, kind=k2,
                              orientation="synthesis" if k2 == "noncancellative"
                              else "analysis")
            rep = verify_identity(b, (S1, S2), trials=2, rng_seed=1, tol=1e-10)
            assert rep["pass"], rep
    pgo = ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                      GridSpec(1, 3, omega=((0,), (1,), (1,))))
    b = random_product_function(pgo, rng)
    rep = verify_identity(b, (random_shift(pgo.grid1, 1, 1, rng),
                              random_shift(pgo.grid2, 0, 2, rng)),
                          trials=2, rng_seed=2, tol=1e-10)
    assert rep["pass"], rep


def test_extreme_shift_depths(rng):
    # a single admissible K level at the root still decomposes exactly
    g = GridSpec(1, 8)
    b = random_function(g, rng)
    for (i, j) in [(7, 7), (0, 7), (7, 0)]:
        rep = verify_identity(b, random_shift(g, i, j, rng), trials=2,
                              rng_seed=3, tol=1e-10)
        assert rep["pass"], rep


def test_termlist_serialization_replay(rng):
    g = GridSpec(1, 4)
    b = random_function(g, rng)
    S = random_shift(g, 1, 2, rng)
    tl = decompose_cancellative(b, S)
    obj = json.loads(tl.to_json())
    assert obj["case"] == "cancellative"
    assert len(obj["terms"]) == tl.term_count
    assert obj["terms"][0]["kind"] in ("Bk_of_Sf", "S_of_Bk")
    # shift and symbol fully embedded for replay
    assert obj["shifts"][0]["i"] == 1 and obj["shifts"][0]["j"] == 2


def _terms_digest(tl):
    terms = json.loads(tl.to_json())["terms"]
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()


def test_termlist_json_terms_are_pinned():
    # digests of the "terms" lists as first released; the atoms' integer
    # signatures, kinds, weights and order must not drift
    g2 = GridSpec(2, 3)
    tl = decompose_cancellative(random_function(g2, np.random.default_rng(0)),
                                random_shift(g2, 1, 1, 1))
    assert tl.term_count == 42 and _terms_digest(tl) == \
        "5c579a7691f27006f2cf063c2f186517ad485e8c27b347d1aa5e918b9af80680"
    g1 = GridSpec(1, 4)
    tl = decompose_noncancellative(random_function(g1, np.random.default_rng(0)),
                                   random_shift(g1, 0, 0, 1, kind="noncancellative"))
    assert tl.term_count == 4 and _terms_digest(tl) == \
        "f2462025b8deb8b1cf439f412c5fa047f88f8cfb9c9fda92b6568568e87f59d1"
    g = GridSpec(1, 3)
    b = random_product_function(ProductGrid(g, g), np.random.default_rng(0))
    tl = decompose_biparam(b, random_shift(g, 1, 1, 1),
                           random_shift(g, 0, 0, 2, kind="noncancellative",
                                        orientation="synthesis"))
    assert tl.term_count == 24 and _terms_digest(tl) == \
        "22bc5d84a3843a4369c58c7d88c9280d3b406abf325b7e0841ea922c2bad8b5d"


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 4)], ids=repr)
@pytest.mark.parametrize("ij", [(0, 0), (2, 1), (1, 3)])
def test_both_halves_share_their_atoms(g, ij, rng, monkeypatch):
    # b_mul and mul_S use the same B_k atoms: each is built once
    from dyadlab import decomposition
    calls = []
    bk = decomposition._bk

    def counting(*args, **kwargs):
        calls.append(args[1])
        return bk(*args, **kwargs)

    monkeypatch.setattr(decomposition, "_bk", counting)
    i, j = ij
    tl = decompose_cancellative(random_function(g, rng), random_shift(g, i, j, rng))
    n = g.n_sig
    assert len(calls) == n + n * n + max(i, j) * n * n
    assert tl.term_count == 2 * (n + n * n) + (i + j) * n * n
    halves = {half: [t.atom1 for t in tl.terms if t.provenance.startswith(half)]
              for half in ("b_mul", "mul_S")}
    shared = min(halves.values(), key=len)
    assert all(a is b for a, b in zip(halves["b_mul"], halves["mul_S"]))
    assert len({id(a) for a in shared}) == len(shared)


def test_verify_identity_report_shape(rng):
    g = GridSpec(1, 4)
    b = random_function(g, rng)
    S = random_shift(g, 1, 0, rng)
    rep = verify_identity(b, S, trials=4, rng_seed=99)
    for key in ("case", "d", "N", "i", "j", "term_count", "max_residual",
                "pass", "seed"):
        assert key in rep
    assert json.dumps(rep)  # JSON-ready


# -- trial axis ----------------------------------------------------------------


def _one_param_cases(rng):
    """(b, S): cancellative and both noncancellative orientations, d = 1 and
    d = 2, and a shifted grid."""
    g1, g2 = GridSpec(1, 5), GridSpec(2, 3)
    go = GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))
    cases = [(g1, random_shift(g1, 2, 1, rng)), (g2, random_shift(g2, 1, 2, rng)),
             (go, random_shift(go, 1, 2, rng))]
    for g in (g1, g2):
        for ori in ("analysis", "synthesis"):
            cases.append((g, random_shift(g, 0, 0, rng, kind="noncancellative",
                                          orientation=ori)))
    return [(random_function(g, rng), S) for g, S in cases]


def _biparam_cases(rng):
    """(b, (S1, S2)) over the same mixes, both orientations of each P factor
    (PP, PP1, PP2, PP*), a d = 2 variable and shifted grids."""
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    pg2 = ProductGrid(GridSpec(2, 2), GridSpec(1, 3))
    pgo = ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                      GridSpec(1, 3, omega=((0,), (1,), (1,))))

    def non(g, ori):
        return random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)

    cases = [(pg, random_shift(pg.grid1, 1, 1, rng), random_shift(pg.grid2, 0, 2, rng)),
             (pg, non(pg.grid1, "analysis"), random_shift(pg.grid2, 1, 0, rng)),
             (pg, random_shift(pg.grid1, 2, 1, rng), non(pg.grid2, "synthesis"))]
    for o1 in ("analysis", "synthesis"):
        for o2 in ("analysis", "synthesis"):
            cases.append((pg, non(pg.grid1, o1), non(pg.grid2, o2)))
    cases += [(pg2, random_shift(pg2.grid1, 1, 1, rng), non(pg2.grid2, "synthesis")),
              (pg2, non(pg2.grid1, "analysis"), random_shift(pg2.grid2, 2, 1, rng)),
              (pgo, random_shift(pgo.grid1, 1, 1, rng), random_shift(pgo.grid2, 0, 2, rng))]
    return [(random_product_function(p, rng), (S1, S2)) for p, S1, S2 in cases]


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


def test_stacked_evaluation_matches_per_column_calls(rng):
    T = 3
    for b, S in _one_param_cases(rng):
        g = b.grid
        tl = decompose(b, S)
        F = rng.standard_normal((g.n_samples, T))
        got = inverse_stacked(g, evaluate_stacked(tl, forward_stacked(g, F)))
        assert got.shape == F.shape
        for t in range(T):
            want = evaluate_terms(tl, DyadicFunction(g, F[:, t])).samples
            assert _close(got[:, t], want), (tl.case, g, t)
    for b, (S1, S2) in _biparam_cases(rng):
        pg = b.pgrid
        tl = decompose_biparam(b, S1, S2)
        F = rng.standard_normal(pg.shape + (T,))
        got = inverse2_stacked(pg, evaluate_stacked(tl, forward2_stacked(pg, F)))
        assert got.shape == F.shape
        for t in range(T):
            want = evaluate_terms(tl, ProductFunction(pg, F[..., t])).samples
            assert _close(got[..., t], want), (tl.case, pg, t)


def test_stacked_commutators_match_per_column_calls(rng):
    T = 3
    for b, S in _one_param_cases(rng):
        F = rng.standard_normal((b.grid.n_samples, T))
        got = multiplication_commutator_stacked(b, S, F)
        for t in range(T):
            want = multiplication_commutator(b, S, DyadicFunction(b.grid, F[:, t]))
            assert _close(got[:, t], want.samples)
    for b, (S1, S2) in _biparam_cases(rng):
        pg = b.pgrid
        F = rng.standard_normal(pg.shape + (T,))
        got = iterated_commutator_stacked(b, S1, S2, F)
        for t in range(T):
            want = iterated_commutator(b, S1, S2, ProductFunction(pg, F[..., t]))
            assert _close(got[..., t], want.samples)


def _loop_residuals(tl, scale, trials, seed):
    """Per-trial residuals of ``tl`` against the direct commutator, one call each."""
    out = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        if tl.arity == 1:
            f = random_function(tl.b.grid, rng)
            direct = multiplication_commutator(tl.b, tl.shifts[0], f)
        else:
            f = random_product_function(tl.b.pgrid, rng)
            direct = iterated_commutator(tl.b, *tl.shifts, f)
        out.append((direct - evaluate_terms(tl, f)).norm() / (scale * f.norm()))
    return out


def test_verify_identity_residual_matches_per_trial_loop(rng):
    for b, S in _one_param_cases(rng)[:4]:
        rep = verify_identity(b, S, trials=6, rng_seed=11)
        want = max(_loop_residuals(decompose(b, S), dyadic_bmo_norm(b), 6, 11))
        assert abs(rep["max_residual"] - want) <= 1e-15
    for b, shifts in _biparam_cases(rng)[:4]:
        rep = verify_identity(b, shifts, trials=4, rng_seed=11)
        want = max(_loop_residuals(decompose_biparam(b, *shifts), rect_bmo_norm(b), 4, 11))
        assert abs(rep["max_residual"] - want) <= 1e-15


def test_verify_identity_measures_every_trial(rng, monkeypatch):
    # with one term dropped the residuals are O(1) and differ per trial, so
    # the report's maximum must be the largest of the per-trial ones
    from dyadlab import decomposition
    g = GridSpec(1, 5)
    b, S = random_function(g, rng), random_shift(g, 1, 2, rng)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b2 = random_product_function(pg, rng)
    S1, S2 = random_shift(pg.grid1, 1, 1, rng), random_shift(pg.grid2, 0, 1, rng)
    broken = decompose(b, S).drop(0)
    broken2 = decompose_biparam(b2, S1, S2).drop(0)
    monkeypatch.setattr(decomposition, "decompose", lambda *a: broken)
    monkeypatch.setattr(decomposition, "decompose_biparam", lambda *a: broken2)
    for tl, shifts, scale in ((broken, S, dyadic_bmo_norm(b)),
                              (broken2, (S1, S2), rect_bmo_norm(b2))):
        res = _loop_residuals(tl, scale, 5, 3)
        assert min(res) > 1e-3 and int(np.argmax(res)) != 0
        rep = verify_identity(tl.b, shifts, trials=5, rng_seed=3)
        assert abs(rep["max_residual"] - max(res)) <= 1e-12 * max(res)
        assert not rep["pass"]


def test_trial_stack_columns_are_the_per_trial_draws():
    g = GridSpec(1, 4)
    F = _trial_samples((g.n_samples,), 9, 4)
    for t in range(4):
        assert np.array_equal(F[:, t], random_function(g, _trial_rng(9, t)).samples)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(2, 2))
    F2 = _trial_samples(pg.shape, 9, 3)
    for t in range(3):
        assert np.array_equal(F2[..., t],
                              random_product_function(pg, _trial_rng(9, t)).samples)
    rep = verify_identity(random_function(g, np.random.default_rng(0)),
                          random_shift(g, 1, 1, 0), trials=0, rng_seed=9)
    assert rep["max_residual"] == 0.0 and rep["pass"]


def test_one_param_evaluation_applies_the_shift_at_most_twice(rng, monkeypatch):
    # one call for the inner terms, one for the summed outer terms
    g = GridSpec(1, 6)
    tl = decompose_cancellative(random_function(g, rng), random_shift(g, 4, 4, rng))
    assert sum(t.outer1 for t in tl.terms) == 6
    calls = []
    apply_stacked = ShiftOperator.apply_stacked

    def counting(self, x):
        calls.append(x.shape)
        return apply_stacked(self, x)

    monkeypatch.setattr(ShiftOperator, "apply_stacked", counting)
    evaluate_terms(tl, random_function(g, rng))
    assert len(calls) <= 2


def _count_folds(monkeypatch) -> list:
    """Record every call of haar.fold_noncancellative, through any binding."""
    import sys
    from dyadlab import haar
    fold = haar.fold_noncancellative
    calls = []

    def counting(*args):
        calls.append(args[0])
        return fold(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dyadlab" and \
                getattr(mod, "fold_noncancellative", None) is fold:
            monkeypatch.setattr(mod, "fold_noncancellative", counting)
    return calls


def test_noncancellative_rows_fold_once_per_outer_group(rng, monkeypatch):
    # every term writes its noncancellative rows into its group's extended
    # sum, which is contracted once (a fold per variable), not once per term
    calls = _count_folds(monkeypatch)
    g = GridSpec(2, 3)
    tl = decompose_cancellative(random_function(g, rng), random_shift(g, 1, 1, rng))
    evaluate_stacked(tl, rng.standard_normal((g.n_samples, 2)))
    assert len(calls) <= 2
    calls.clear()
    pg = ProductGrid(GridSpec(1, 4), GridSpec(1, 4))
    tl = decompose_biparam(random_product_function(pg, rng),
                           random_shift(pg.grid1, 1, 1, rng),
                           random_shift(pg.grid2, 1, 1, rng))
    groups = {(t.outer1, t.outer2) for t in tl.terms}
    assert len(groups) == 4
    evaluate_stacked(tl, rng.standard_normal(pg.shape + (2,)))
    assert len(calls) <= 2 * len(groups)
