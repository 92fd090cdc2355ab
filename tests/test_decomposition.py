import hashlib
import itertools
import json
import operator
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     ProductGrid, evaluate_terms, haar_function, iterated_commutator,
                     multiplication_commutator, random_function,
                     random_product_function, random_shift, tensor_function,
                     verify_identity)
from dyadlab import ProductFunction, ShiftOperator, dyadic_bmo_norm, rect_bmo_norm
from dyadlab.biparam import PAtom
from dyadlab.decomposition import TermList, decompose, _trial_samples, evaluate_stacked
from dyadlab.grids import GridMismatchError, WrongKindError, grid_index
from dyadlab.haar import forward_space, forward_stacked, inverse_space, inverse_stacked
from dyadlab.norms import _trial_rng
from dyadlab.shifts import commutator_stacked, noncancellative_shift

from conftest import (assert_columns_alone, evaluate_stacked_oracle,
                      iterated_commutator_oracle, verify_identity_oracle)


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
    tl = decompose(b, S)
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
            tl = decompose(b, random_shift(g, i, j, rng))
            assert tl.term_count == 4 + i + j
            assert tl.term_count <= tl.meta["count_constant"] * (1 + max(i, j))
    g2 = GridSpec(2, 3)
    b2 = random_function(g2, rng)
    for i in range(3):
        for j in range(3):
            tl = decompose(b2, random_shift(g2, i, j, rng))
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
                    S1 = random_shift(pg.grids[0], i1, j1, rng)
                    S2 = random_shift(pg.grids[1], i2, j2, rng)
                    tl = decompose(b, S1, S2)
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


def test_one_decompose_for_one_and_two_variables(rng):
    for b, shifts in _one_param_cases(rng) + _biparam_cases(rng):
        shifts = shifts if isinstance(shifts, tuple) else (shifts,)
        tl = decompose(b, *shifts)
        t = len(b.space.grids)
        assert tl.arity == len(tl.shifts) == len(shifts) == t
        assert all(len(term.atoms) == len(term.inner) == len(term.outer) == len(term.key) == t
                   for term in tl.terms)
        if t == 2:
            pair = decompose(b, *shifts)
            assert all(x is y for x, y in zip(tl.terms, pair.terms))
            assert (tl.terms, tl.case, tl.meta) == (pair.terms, pair.case, pair.meta)


def test_decompose_takes_one_shift_per_variable_on_its_grid(rng):
    g = GridSpec(1, 3)
    pg = ProductGrid(GridSpec(2, 2), g)
    b, b2 = random_function(g, rng), random_product_function(pg, rng)
    S1, S2 = random_shift(pg.grids[0], 1, 0, rng), random_shift(g, 0, 1, rng)
    for bad, match in (((b, S2, S2), "b has 1 variable"), ((b2, S1), "b has 2 variable"),
                       ((b2, S2, S2), "shift 1 must act on the grid of variable 1"),
                       ((b2, S1, S1), "shift 2 must act on the grid of variable 2"),
                       ((b, S1), "shift 1 must act on the grid of variable 1")):
        with pytest.raises(WrongKindError, match=match):
            decompose(*bad)


def test_evaluate_terms_refuses_a_function_off_its_grid(rng):
    # an f of another grid was evaluated as if it lived on tl's grid, and the
    # result returned as a function on tl's grid
    g = GridSpec(1, 4)
    pg = ProductGrid(g, g)
    tl = decompose(random_function(g, rng), random_shift(g, 1, 1, rng))
    tl2 = decompose(random_product_function(pg, rng), random_shift(g, 1, 0, rng),
                    random_shift(g, 0, 1, rng))
    for terms, f in ((tl, random_function(GridSpec(2, 2), rng)),
                     (tl, random_function(GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))), rng)),
                     (tl, random_product_function(pg, rng)),
                     (tl2, random_product_function(ProductGrid(g, GridSpec(2, 2)), rng))):
        with pytest.raises(GridMismatchError, match="different grids"):
            evaluate_terms(terms, f)


def test_constant_b_gives_zero_terms(rng):
    g = GridSpec(1, 4)
    const = DyadicFunction(g, np.full(g.n_samples, 2.0))
    S = random_shift(g, 1, 1, rng)
    tl = decompose(const, S)
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
        tl = decompose(b, S)
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
    tl = decompose(b, S)
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
    tl1 = decompose(b, S)
    tl2 = decompose(shifted, S)
    for _ in range(3):
        f = random_function(g, rng)
        assert (evaluate_terms(tl1, f) - evaluate_terms(tl2, f)).norm() < 1e-12


def test_dropping_a_term_breaks_identity(rng):
    g = GridSpec(1, 5)
    b = random_function(g, rng)
    S = random_shift(g, 1, 1, rng)
    tl = decompose(b, S)
    f = random_function(g, rng)
    direct = multiplication_commutator(b, S, f)
    full = evaluate_terms(tl, f)
    assert (direct - full).norm() / f.norm() < 1e-12
    broken = tl.drop(0)
    assert (direct - evaluate_terms(broken, f)).norm() / f.norm() > 1e-6


def test_drop_follows_list_indexing(rng):
    # a negative or out-of-range index used to drop nothing
    g = GridSpec(1, 4)
    tl = decompose(random_function(g, rng), random_shift(g, 1, 1, rng))
    assert tl.term_count == 6
    for index, kept in ((0, tl.terms[1:]), (-1, tl.terms[:-1]), (-6, tl.terms[1:]),
                        (2, tl.terms[:2] + tl.terms[3:])):
        assert tl.drop(index).terms == kept
    for index in (6, 99, -7):
        with pytest.raises(IndexError):
            tl.drop(index)
    assert tl.term_count == 6


def test_dropped_list_json_states_no_stale_count(rng):
    # the list's JSON used to keep the count of terms before the drop
    g = GridSpec(1, 4)
    tl = decompose(random_function(g, rng), random_shift(g, 1, 1, rng)).drop(-1)
    obj = json.loads(tl.to_json())
    assert len(obj["terms"]) == tl.term_count == 5
    assert obj["meta"].get("term_count", tl.term_count) == tl.term_count


def test_empty_terms_zero_commutator():
    g = GridSpec(1, 3)
    zero_b = DyadicFunction(g, np.zeros(g.n_samples))
    S = random_shift(g, 0, 0, 0)
    tl = decompose(zero_b, S)
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
        S1 = random_shift(pg.grids[0], i1, j1, rng, kind=k1)
        S2 = random_shift(pg.grids[1], i2, j2, rng, kind=k2)
        rep = verify_identity(b, (S1, S2), trials=3, rng_seed=23, tol=1e-9)
        assert rep["pass"], rep
        tl = decompose(b, S1, S2)
        assert tl.term_count <= tl.meta["count_bound"]


def test_biparam_pp_kind_per_orientation(rng):
    # same orientation in both variables -> exactly one plain PP term
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b = random_product_function(pg, rng)
    S1 = random_shift(pg.grids[0], 0, 0, rng, kind="noncancellative",
                      orientation="analysis")
    S2 = random_shift(pg.grids[1], 0, 0, rng, kind="noncancellative",
                      orientation="analysis")
    tl = decompose(b, S1, S2)
    assert [t.kind for t in tl.terms].count("PP_term") == 1
    assert not any(t.kind in ("PP1_term", "PP2_term", "PPstar_term")
                   for t in tl.terms)
    # opposite orientations produce the partial adjoints instead
    S1s = random_shift(pg.grids[0], 0, 0, rng, kind="noncancellative",
                       orientation="synthesis")
    tl2 = decompose(b, S1s, S2)
    kinds = [t.kind for t in tl2.terms]
    assert kinds.count("PP1_term") == 1 and kinds.count("PP_term") == 0


def test_biparam_tensor_factorization(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b1, f1 = random_function(pg.grids[0], rng), random_function(pg.grids[0], rng)
    b2, f2 = random_function(pg.grids[1], rng), random_function(pg.grids[1], rng)
    S1 = random_shift(pg.grids[0], 1, 0, rng)
    S2 = random_shift(pg.grids[1], 0, 1, rng)
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
            S1 = random_shift(pg.grids[0], *((1, 1) if k1 == "cancellative" else (0, 0)),
                              rng, kind=k1)
            S2 = random_shift(pg.grids[1], *((2, 1) if k2 == "cancellative" else (0, 0)),
                              rng, kind=k2,
                              orientation="synthesis" if k2 == "noncancellative"
                              else "analysis")
            rep = verify_identity(b, (S1, S2), trials=2, rng_seed=1, tol=1e-10)
            assert rep["pass"], rep
    pgo = ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                      GridSpec(1, 3, omega=((0,), (1,), (1,))))
    b = random_product_function(pgo, rng)
    rep = verify_identity(b, (random_shift(pgo.grids[0], 1, 1, rng),
                              random_shift(pgo.grids[1], 0, 2, rng)),
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
    tl = decompose(b, S)
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
    tl = decompose(random_function(g2, np.random.default_rng(0)),
                                random_shift(g2, 1, 1, 1))
    assert tl.term_count == 42 and _terms_digest(tl) == \
        "5c579a7691f27006f2cf063c2f186517ad485e8c27b347d1aa5e918b9af80680"
    g1 = GridSpec(1, 4)
    tl = decompose(random_function(g1, np.random.default_rng(0)),
                                   random_shift(g1, 0, 0, 1, kind="noncancellative"))
    assert tl.term_count == 4 and _terms_digest(tl) == \
        "f2462025b8deb8b1cf439f412c5fa047f88f8cfb9c9fda92b6568568e87f59d1"
    g = GridSpec(1, 3)
    b = random_product_function(ProductGrid(g, g), np.random.default_rng(0))
    tl = decompose(b, random_shift(g, 1, 1, 1),
                           random_shift(g, 0, 0, 2, kind="noncancellative",
                                        orientation="synthesis"))
    assert tl.term_count == 24 and _terms_digest(tl) == \
        "22bc5d84a3843a4369c58c7d88c9280d3b406abf325b7e0841ea922c2bad8b5d"


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 4)], ids=repr)
@pytest.mark.parametrize("ij", [(0, 0), (2, 1), (1, 3)])
def test_both_halves_share_their_atoms(g, ij, rng, monkeypatch):
    # b_mul and mul_S use the same B_k atoms: each is built once per grid, so
    # a second decomposition on the grid builds none and shares its atoms
    from dyadlab import paraproducts
    calls = []
    bk = paraproducts._bk

    def counting(*args, **kwargs):
        calls.append(args[1])
        return bk(*args, **kwargs)

    monkeypatch.setattr(paraproducts, "_bk", counting)
    grid_index.cache_clear()
    i, j = ij
    S = random_shift(g, i, j, rng)
    tl = decompose(random_function(g, rng), S)
    n = g.n_sig
    assert len(calls) == n + n * n + max(i, j) * n * n
    assert tl.term_count == 2 * (n + n * n) + (i + j) * n * n
    calls.clear()
    again = decompose(random_function(g, rng), random_shift(g, i, j, rng))
    assert calls == []
    assert all(a.atoms[0] is b.atoms[0] for a, b in zip(tl.terms, again.terms))
    assert again.terms == tl.terms and again.terms is not tl.terms
    halves = {half: [t.atoms[0] for t in tl.terms if t.provenance.startswith(half)]
              for half in ("b_mul", "mul_S")}
    shared = min(halves.values(), key=len)
    assert all(a is b for a, b in zip(halves["b_mul"], halves["mul_S"]))
    assert len({id(a) for a in shared}) == len(shared)


@pytest.mark.parametrize("ori", ["analysis", "synthesis"])
def test_noncancellative_atoms_are_built_once(ori, rng):
    # mul_S:same_cube at eps2 = eps is the b_mul:same_cube atom (analysis) or
    # the b_mul:tail atom (synthesis): equal atoms are one object
    from dyadlab import BkOperator
    for d, n_terms, n_distinct in ((1, 3, 2), (2, 15, 12)):
        g = GridSpec(d, 3)
        S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)
        tl = decompose(random_function(g, rng), S)
        atoms = [t.atoms[0] for t in tl.terms if isinstance(t.atoms[0], BkOperator)]
        assert len(atoms) == n_terms
        assert len({id(a) for a in atoms}) == n_distinct == len(set(atoms))


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

    cases = [(pg, random_shift(pg.grids[0], 1, 1, rng), random_shift(pg.grids[1], 0, 2, rng)),
             (pg, non(pg.grids[0], "analysis"), random_shift(pg.grids[1], 1, 0, rng)),
             (pg, random_shift(pg.grids[0], 2, 1, rng), non(pg.grids[1], "synthesis"))]
    for o1 in ("analysis", "synthesis"):
        for o2 in ("analysis", "synthesis"):
            cases.append((pg, non(pg.grids[0], o1), non(pg.grids[1], o2)))
    cases += [(pg2, random_shift(pg2.grids[0], 1, 1, rng), non(pg2.grids[1], "synthesis")),
              (pg2, non(pg2.grids[0], "analysis"), random_shift(pg2.grids[1], 2, 1, rng)),
              (pgo, random_shift(pgo.grids[0], 1, 1, rng), random_shift(pgo.grids[1], 0, 2, rng))]
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
        tl = decompose(b, S1, S2)
        F = rng.standard_normal(pg.shape + (T,))
        got = inverse_space(pg, evaluate_stacked(tl, forward_space(pg, F)))
        assert got.shape == F.shape
        for t in range(T):
            want = evaluate_terms(tl, ProductFunction(pg, F[..., t])).samples
            assert _close(got[..., t], want), (tl.case, pg, t)


def test_stacked_commutators_match_per_column_calls(rng):
    T = 3
    for b, S in _one_param_cases(rng):
        F = rng.standard_normal((b.grid.n_samples, T))
        got = commutator_stacked(b, (S,), F)
        for t in range(T):
            want = multiplication_commutator(b, S, DyadicFunction(b.grid, F[:, t]))
            assert _close(got[:, t], want.samples)
    for b, (S1, S2) in _biparam_cases(rng):
        pg = b.pgrid
        F = rng.standard_normal(pg.shape + (T,))
        got = commutator_stacked(b, (S1, S2), F)
        for t in range(T):
            want = iterated_commutator(b, S1, S2, ProductFunction(pg, F[..., t]))
            assert _close(got[..., t], want.samples)


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 4), GridSpec(1, 3)),
                                ProductGrid(GridSpec(2, 2), GridSpec(1, 3)),
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(2, 2))], ids=repr)
def test_iterated_commutator_is_the_four_composition_oracle(pg, rng):
    # x and b x share the transforms of a bracket; the bits stay those of
    # one transform in and out per shift application
    def shift(g, kind):
        if isinstance(kind, tuple):
            return random_shift(g, *kind, rng)
        return random_shift(g, 0, 0, rng, kind="noncancellative", orientation=kind)
    b = random_product_function(pg, rng)
    for k1, k2 in [((1, 1), (1, 0)), ((0, 1), "analysis"), ("synthesis", (1, 1)),
                   ("analysis", "synthesis")]:
        S1, S2 = shift(pg.grids[0], k1), shift(pg.grids[1], k2)
        for passive in [(), (1,), (3,), (2, 2)]:
            F = rng.standard_normal(pg.shape + passive)
            assert np.array_equal(commutator_stacked(b, (S1, S2), F),
                                  iterated_commutator_oracle(b, S1, S2, F))


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 3), GridSpec(1, 3)),
                                ProductGrid(GridSpec(1, 3), GridSpec(2, 2)),
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(1, 4))], ids=repr)
def test_iterated_commutator_on_a_case_axis_is_the_per_case_oracle(pg, rng):
    # column c of a block is case c's own commutator with symbol c and shift
    # pair c, bit for bit, on its own input or on one input that every case
    # shares (a case axis of length 1); every mix of kinds, blocks of 1, 2
    # and 5 cases
    pairs = [tuple(_shift_of_kind(g, k, rng) for g, k in zip(pg.grids, kinds))
             for kinds in TWO_PARAM_KINDS]
    for C in (1, 2, 5):
        for start in range(0, len(pairs), C):
            S1s, S2s = zip(*[pairs[(start + c) % len(pairs)] for c in range(C)])
            b = rng.standard_normal(pg.shape + (C,))
            for trials in (1, 2, 5):
                F = rng.standard_normal(pg.shape + (C, trials))
                for x in (F, F[:, :, :1]):
                    got = commutator_stacked(b, (S1s, S2s), x)
                    assert got.shape == F.shape
                    for c in range(C):
                        want = iterated_commutator_oracle(ProductFunction(pg, b[..., c]),
                                                          S1s[c], S2s[c], x[:, :, c % x.shape[2]])
                        assert np.array_equal(got[:, :, c], want), (C, start, trials, c)
            # a trial column has the bits it has alone
            assert_columns_alone(partial(commutator_stacked, b, (S1s, S2s)),
                                 lambda T: (rng.standard_normal(pg.shape + (C, T)),))


def test_iterated_commutator_on_a_case_axis_refuses_bad_blocks(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 4))
    S1s = [random_shift(pg.grids[0], 1, 0, rng), random_shift(pg.grids[0], 0, 1, rng)]
    S2s = [random_shift(pg.grids[1], 1, 1, rng), random_shift(pg.grids[1], 2, 0, rng)]
    b = rng.standard_normal(pg.shape + (2,))
    F = rng.standard_normal(pg.shape + (2, 3))
    for args in [(b, (S1s, S2s[:1]), F), (b, (S1s[:1], S2s[:1]), F),
                 (b[..., :1], (S1s, S2s), F),
                 (b, (S1s, S2s), rng.standard_normal(pg.shape + (3, 3))), (b, ([], []), F)]:
        with pytest.raises(ValueError):
            commutator_stacked(*args)
    with pytest.raises(ValueError, match="one shift per variable"):
        commutator_stacked(random_product_function(pg, rng), (S1s, S2s), F)
    for s1, s2 in [(S1s, [S2s[0], random_shift(pg.grids[0], 1, 1, rng)]),
                   ([S1s[0], random_shift(pg.grids[1], 1, 1, rng)], S2s),
                   ([random_shift(pg.grids[1], 1, 1, rng)] * 2, [random_shift(pg.grids[0], 1, 1, rng)] * 2)]:
        with pytest.raises(GridMismatchError):
            commutator_stacked(b, (s1, s2), F)
    with pytest.raises(GridMismatchError):
        commutator_stacked(random_product_function(pg, rng), (S2s[0], S1s[0]), F[:, :, 0])


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
        want = max(_loop_residuals(decompose(b, *shifts), rect_bmo_norm(b), 4, 11))
        assert abs(rep["max_residual"] - want) <= 1e-15


def test_verify_identity_measures_every_trial(rng, monkeypatch):
    # with one term dropped the residuals are O(1) and differ per trial, so
    # the report's maximum must be the largest of the per-trial ones
    from dyadlab import decomposition
    g = GridSpec(1, 5)
    b, S = random_function(g, rng), random_shift(g, 1, 2, rng)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b2 = random_product_function(pg, rng)
    S1, S2 = random_shift(pg.grids[0], 1, 1, rng), random_shift(pg.grids[1], 0, 1, rng)
    broken = decompose(b, S).drop(0)
    broken2 = decompose(b2, S1, S2).drop(0)
    monkeypatch.setattr(decomposition, "decompose",
                        lambda b, *shifts: broken if len(shifts) == 1 else broken2)
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


def _cases_on(g, rng):
    """(b, S) on grid ``g``: every cancellative (i, j) with i, j <= 2 that
    fits, then both noncancellative orientations."""
    shifts = [random_shift(g, i, j, rng) for i in range(3) for j in range(3)
              if max(i, j) <= g.N - 1]
    shifts += [random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)
               for ori in ("analysis", "synthesis")]
    return [(random_function(g, rng), S) for S in shifts]


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 3)], ids=repr)
def test_every_term_list_is_an_ordered_subsequence_of_its_family_list(g, rng):
    # the block sweep runs the union of a family's terms in key order: every
    # term has a key, the keys of a list ascend, and the list at any
    # (i, j) <= (I, J) is an ordered subsequence of the list at (I, J), term
    # for term, so each case keeps its own order of sums
    from dyadlab.decomposition import _family_weights

    def assert_keys_ascend(tl):
        keys = [term.key for term in tl.terms]
        assert None not in keys and keys == sorted(set(keys)), tl.shifts

    b = random_function(g, rng)
    ij = [(i, j) for i in range(g.N) for j in range(g.N)]
    lists = {(i, j): decompose(b, random_shift(g, i, j, rng)) for i, j in ij}
    lists.update({ori: decompose(b, random_shift(g, 0, 0, rng, kind="noncancellative",
                                                 orientation=ori))
                  for ori in ("analysis", "synthesis")})
    for tl in lists.values():
        assert_keys_ascend(tl)
    for top in ij:
        where = {term: p for p, term in enumerate(lists[top].terms)}
        assert len(where) == lists[top].term_count  # no term twice
        for i, j in ij:
            if i <= top[0] and j <= top[1]:
                pos = [where[term] for term in lists[(i, j)].terms]
                assert pos == sorted(set(pos)), ((i, j), top)
    # a block's weights: each case's own on its terms, 0 on the others
    block = [lists[k] for k in ij if k != (g.N - 1, g.N - 1)]
    master, weights = _family_weights(block)
    assert master == tuple(lists[(g.N - 1, g.N - 1)].terms)
    for c, tl in enumerate(block):
        assert [(term, w) for term, w in zip(master, weights[:, c]) if w] == \
            [(term, term.weight) for term in tl.terms]
    # the two-parameter lists are the products of these
    pg = ProductGrid(GridSpec(1, 3), g if g.d < 3 else GridSpec(3, 2))
    b2 = random_product_function(pg, rng)
    S1s = [random_shift(pg.grids[0], i, j, rng) for i in range(3) for j in range(3)]
    S2s = [random_shift(pg.grids[1], 0, 1, rng), random_shift(pg.grids[1], 1, 0, rng)]
    pair_lists = [decompose(b2, S1, S2) for S1 in S1s for S2 in S2s]
    non = [random_shift(grid, 0, 0, rng, kind="noncancellative", orientation=ori)
           for grid, ori in ((pg.grids[0], "analysis"), (pg.grids[1], "synthesis"))]
    for tl in pair_lists + [decompose(b2, non[0], S2s[0]),
                            decompose(b2, S1s[-1], non[1]),
                            decompose(b2, *non)]:
        assert_keys_ascend(tl)
    master, weights = _family_weights(pair_lists)
    assert master == tuple(decompose(b2, S1s[-1], random_shift(
        pg.grids[1], 1, 1, rng)).terms)
    for c, tl in enumerate(pair_lists):
        assert [term for term, w in zip(master, weights[:, c]) if w] == tl.terms
    with pytest.raises(ValueError, match="ordered subsequence"):
        _family_weights([TermList(b, (random_shift(g, 1, 0, rng),),
                                  lists[(1, 0)].terms[::-1], "cancellative")])


def test_the_lists_of_a_family_share_their_term_objects(rng, monkeypatch):
    # a term is built once per grid (grid pair) and family: every case's
    # list holds its family's master objects, at the places where the block
    # sweep gives the case its weights, and a later list at a smaller (i, j)
    # builds no term
    from dyadlab import decomposition
    from dyadlab.decomposition import Term, _family_weights
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return Term(*args, **kwargs)

    monkeypatch.setattr(decomposition, "Term", counting)
    grid_index.cache_clear()
    g = GridSpec(2, 3)
    pg = ProductGrid(GridSpec(1, 4), GridSpec(1, 3))
    b, b2 = random_function(g, rng), random_product_function(pg, rng)
    top = {1: decompose(b, random_shift(g, 2, 2, rng)),
           2: decompose(b2, random_shift(pg.grids[0], 3, 2, rng),
                                random_shift(pg.grids[1], 1, 2, rng))}
    ones = [decompose(random_function(g, rng), random_shift(g, 0, 0, rng, kind="noncancellative",
                                                            orientation=ori))
            for ori in ("analysis", "synthesis")]
    assert len(built) == sum(tl.term_count for tl in [*top.values(), *ones])
    built.clear()
    blocks = {1: [decompose(b, random_shift(g, i, j, rng)) for i, j in ((0, 0), (2, 1), (1, 2))],
              2: [decompose(b2, random_shift(pg.grids[0], i1, j1, rng),
                                    random_shift(pg.grids[1], i2, j2, rng))
                  for i1, j1, i2, j2 in ((0, 0, 0, 0), (3, 1, 0, 2), (1, 2, 1, 0))]}
    assert built == []
    for t, block in blocks.items():
        master, weights = _family_weights(block + [top[t]])
        assert all(map(operator.is_, master, top[t].terms))
        for c, tl in enumerate(block + [top[t]]):
            places = np.flatnonzero(weights[:, c])
            assert len(places) == tl.term_count
            assert all(master[p] is term for p, term in zip(places, tl.terms)), (t, c)
            assert np.array_equal(weights[places, c], [term.weight for term in tl.terms])
        # a list with one term dropped is placed by the keys it keeps
        want = weights[:, 1].copy()
        want[np.flatnonzero(want)[3]] = 0.0
        _, weights = _family_weights([block[1].drop(3), top[t]])
        assert np.array_equal(weights[:, 0], want)
    again = [decompose(random_function(g, rng), tl.shifts[0]) for tl in ones]
    assert built == []
    assert all(all(map(operator.is_, a.terms, o.terms)) for a, o in zip(again, ones))


def test_decomposing_every_shift_parameter_leaves_the_deepest_shifts_memo(rng):
    # a list is assembled from its grid's atom groups and its family's term
    # pool: decomposing every admissible (i, j) of every family leaves the
    # grids' memos with the keys that the deepest shift of each family leaves
    g = GridSpec(1, 4)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(2, 2))
    kinds = [{}, {"kind": "noncancellative", "orientation": "analysis"},
             {"kind": "noncancellative", "orientation": "synthesis"}]

    def params(grid, kind, deepest):
        if kind:
            return [(0, 0)]
        ij = [(i, j) for i in range(grid.N) for j in range(grid.N)]
        return ij[-1:] if deepest else ij

    def memo_keys(deepest):
        grid_index.cache_clear()
        for space, grids in ((g, (g,)), (pg, pg.grids)):
            b = random_function(g, rng) if space is g else random_product_function(pg, rng)
            for family in itertools.product(kinds, repeat=len(grids)):
                for ijs in itertools.product(*(params(grid, kind, deepest)
                                               for grid, kind in zip(grids, family))):
                    decompose(b, *(random_shift(grid, *ij, rng, **kind)
                                   for grid, ij, kind in zip(grids, ijs, family)))
        return {grid: set(grid_index(grid)._memo) for grid in (g, *pg.grids)}

    assert memo_keys(deepest=False) == memo_keys(deepest=True)
    # and one shift's two lists hold the same term objects
    S, b = random_shift(g, 2, 1, rng), random_function(g, rng)
    first, second = decompose(b, S).terms, decompose(b, S).terms
    assert first is not second and len(first) == len(second)
    assert all(map(operator.is_, first, second))


def test_a_single_list_and_a_block_of_one_are_placed_alike(rng, monkeypatch):
    # one placement path: a single TermList and a block of one case each
    # place their terms with exactly one _family_weights call
    from dyadlab import decomposition
    calls = []
    place = decomposition._family_weights

    def counting(tls):
        calls.append(len(tls))
        return place(tls)

    monkeypatch.setattr(decomposition, "_family_weights", counting)
    g = GridSpec(1, 4)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    for tl in (decompose(random_function(g, rng), random_shift(g, 2, 1, rng)),
               decompose(random_function(g, rng), random_shift(g, 0, 0, rng,
                                                               kind="noncancellative")),
               decompose(random_product_function(pg, rng),
                                 random_shift(pg.grids[0], 1, 2, rng),
                                 random_shift(pg.grids[1], 1, 0, rng))):
        f = random_function(g, rng) if tl.arity == 1 else random_product_function(pg, rng)
        calls.clear()
        single = evaluate_terms(tl, f)
        assert calls == [1], tl.case
        x = (forward_stacked(g, f.samples) if tl.arity == 1
             else forward_space(pg, f.samples))
        calls.clear()
        block = evaluate_stacked([tl], x[..., None, None])
        assert calls == [1], tl.case
        y = inverse_stacked(g, block[:, 0, 0]) if tl.arity == 1 \
            else inverse_space(pg, block[:, :, 0, 0])
        assert np.array_equal(single.samples, y), tl.case


def test_a_single_list_out_of_key_order_raises(rng):
    # a single list is placed as a block is, so reversing its terms raises
    # through evaluate_terms as it does in a block, and so does a term
    # without a key
    g = GridSpec(1, 4)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    for tl, f in ((decompose(random_function(g, rng), random_shift(g, 1, 1, rng)),
                   random_function(g, rng)),
                  (decompose(random_product_function(pg, rng),
                                     random_shift(pg.grids[0], 1, 0, rng),
                                     random_shift(pg.grids[1], 0, 1, rng)),
                   random_product_function(pg, rng))):
        reversed_tl = TermList(tl.b, tl.shifts, tl.terms[::-1], tl.case)
        for run in (lambda: evaluate_terms(reversed_tl, f),
                    lambda: evaluate_stacked([reversed_tl, tl], np.zeros(
                        tl.b.samples.shape + (2, 1)))):
            with pytest.raises(ValueError, match="ordered subsequence"):
                run()
        keyless = TermList(tl.b, tl.shifts,
                           [replace(tl.terms[0], key=None)] + tl.terms[1:], tl.case)
        with pytest.raises(ValueError, match="without a key"):
            evaluate_terms(keyless, f)


def _block_orders(cases) -> list:
    """Index orders of blocks of ``cases``: reversed; interleaved, a case
    without cancellative shifts first and the others amid the cancellative
    ones, with a repeated (i, j); and without the cancellative case of the
    largest (i, j), so that no case of the block has its family's whole
    term list."""
    n = len(cases)
    shifts = [(S,) if isinstance(S, ShiftOperator) else S for _, S in cases]
    canc = [c for c in range(n) if all(S.cancellative for S in shifts[c])]
    rest = [c for c in range(n) if c not in canc]
    interleaved = rest[:1] + canc[:2] + [canc[1]] + rest[1:] + canc[2:]
    top = max(canc, key=lambda c: sum(S.i + S.j for S in shifts[c]))
    return [list(range(n))[::-1], interleaved, [c for c in range(n) if c != top]]


def _block_evaluation_is_the_per_case_oracle(cases, trials, rng):
    """The sweep of one block on (n, C, T) stacks, each column np.array_equal
    to its own list's per-key oracle."""
    tls = [decompose(b, S) if isinstance(S, ShiftOperator) else decompose(b, *S)
           for b, S in cases]
    shape = tls[0].b.samples.shape
    x = rng.standard_normal(shape + (len(tls), trials))
    got = evaluate_stacked(tls, x)
    for c, tl in enumerate(tls):
        assert np.array_equal(got[..., c, :], evaluate_stacked_oracle(tl, x[..., c, :])), c


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
                               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))], ids=repr)
@pytest.mark.parametrize("trials", [1, 2, 5])
def test_cases_of_one_call_are_the_per_case_oracle(g, trials, rng):
    # C cases share f, its transform, one term sweep and one transform out,
    # yet each report equals the one-case check that draws its own f, bit
    # for bit, in any order and block of the cases; a second symbol of each
    # orientation gives those families two columns
    cases = _cases_on(g, rng)
    cases += [(random_function(g, rng), _shift_of_kind(g, ori, rng))
              for ori in ("analysis", "synthesis")]
    symbols, shifts = zip(*cases)
    want = [verify_identity_oracle(b, S, trials, 17) for b, S in cases]
    assert verify_identity(symbols, shifts, trials=trials, rng_seed=17) == want
    assert [verify_identity(b, S, trials, 17) for b, S in cases] == want
    # any split into blocks gives the same reports
    assert (verify_identity(symbols[:3], shifts[:3], trials, 17)
            + verify_identity(symbols[3:], shifts[3:], trials, 17)) == want
    for order in _block_orders(cases):
        assert verify_identity([symbols[c] for c in order], [shifts[c] for c in order],
                               trials, 17) == [want[c] for c in order], order
        _block_evaluation_is_the_per_case_oracle([cases[c] for c in order], trials, rng)


@pytest.mark.parametrize("trials", [1, 2, 5])
def test_two_parameter_cases_of_one_call_are_the_per_case_oracle(trials, rng):
    for pg in (ProductGrid(GridSpec(1, 3), GridSpec(1, 3)),
               ProductGrid(GridSpec(2, 2), GridSpec(1, 3)),
               ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                           GridSpec(1, 3, omega=((0,), (1,), (1,))))):
        # two more cancellative pairs, so the cancellative family has three
        # cases of different (i, j), then every mix that fits the grids, and
        # a second case of two of the mixed families
        mixes = [((0, 1), (1, 0)), ((1, 0), (0, 0))] + TWO_PARAM_KINDS
        mixes += [((1, 0), "analysis"), ("analysis", "synthesis")]
        cases = []
        for kinds in mixes:
            if any(isinstance(k, tuple) and max(k) > g.N - 1
                   for g, k in zip(pg.grids, kinds)):
                continue
            S1, S2 = (_shift_of_kind(g, k, rng) for g, k in zip(pg.grids, kinds))
            cases.append((random_product_function(pg, rng), (S1, S2)))
        assert len(cases) == len(mixes) - (pg.grids[0].N < 3)
        symbols, shifts = zip(*cases)
        want = [verify_identity_oracle(b, S, trials, 23) for b, S in cases]
        assert verify_identity(symbols, shifts, trials=trials, rng_seed=23) == want
        assert [verify_identity(b, S, trials, 23) for b, S in cases] == want
        for order in _block_orders(cases):
            assert verify_identity([symbols[c] for c in order], [shifts[c] for c in order],
                                   trials, 23) == [want[c] for c in order], order
            _block_evaluation_is_the_per_case_oracle([cases[c] for c in order], trials, rng)


def test_cases_of_one_call_share_one_grid_and_arity(rng):
    g, g2 = GridSpec(1, 4), GridSpec(1, 5)
    b, S = random_function(g, rng), random_shift(g, 1, 1, rng)
    b2, S2 = random_function(g2, rng), random_shift(g2, 1, 1, rng)
    pg = ProductGrid(g, g)
    B = random_product_function(pg, rng)
    with pytest.raises(ValueError, match="2 symbols for 1 shift cases"):
        verify_identity([b, b], [S], trials=2, rng_seed=1)
    with pytest.raises(ValueError, match="0 symbols"):
        verify_identity([], [], trials=2, rng_seed=1)
    with pytest.raises(GridMismatchError, match="share one grid"):
        verify_identity([b, b2], [S, S2], trials=2, rng_seed=1)
    with pytest.raises(ValueError, match="one arity"):
        verify_identity([b, B], [S, (S, S)], trials=2, rng_seed=1)


def test_verify_identity_draws_and_norms_f_once_per_command(monkeypatch, rng):
    # blocks of one command reuse the trial stack of the previous block
    from dyadlab import decomposition
    from dyadlab.decomposition import _trial_inputs
    draws = []
    trial_samples = decomposition._trial_samples

    def counting(*args):
        draws.append(args)
        return trial_samples(*args)

    monkeypatch.setattr(decomposition, "_trial_samples", counting)
    _trial_inputs.cache_clear()
    g = GridSpec(1, 4)
    cases = _cases_on(g, rng)
    for b, S in cases:
        verify_identity([b], [S], trials=3, rng_seed=8)
    assert draws == [((g.n_samples,), 8, 3)]
    F, norms = _trial_inputs((g.n_samples,), 8, 3, g.cell_volume)
    assert not F.flags.writeable and not norms.flags.writeable
    verify_identity([cases[0][0]], [cases[0][1]], trials=4, rng_seed=8)
    assert len(draws) == 2


def test_verify_decomp_memory_does_not_grow_with_cases(tmp_path):
    import tracemalloc
    from dyadlab.cli import main
    # 1024 samples x 3 trials: blocks of 2 cases; the first run fills the
    # grid caches with the atoms of every depth
    argv = ["verify-decomp", "--N", "10", "--trials", "3", "--out", str(tmp_path)]
    main(argv + ["--imax", "4", "--jmax", "4"])

    def peak(depth):
        tracemalloc.start()
        try:
            assert main(argv + ["--imax", str(depth), "--jmax", str(depth)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(4) <= 1.25 * peak(1)  # 27 cases in 14 blocks, 6 cases in 3


@pytest.mark.parametrize("trials", [0, -1])
def test_studies_refuse_fewer_than_one_trial(trials):
    # no trial would leave a vacuous pass with max_residual (max_ratio) 0.0
    from dyadlab.montecarlo import commutator_bound_study
    from dyadlab.norms import uniformity_study
    g = GridSpec(1, 4)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        verify_identity(random_function(g, np.random.default_rng(0)),
                        random_shift(g, 1, 1, 0), trials=trials, rng_seed=9)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        commutator_bound_study(0.5, 1, 1, trials, 3, grid=g)
    for kind, space in (("Bk", g), ("PP", ProductGrid(g, g))):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            uniformity_study(kind, space, trials, 3)


def _count_shift_calls(monkeypatch) -> list:
    """Record the shift of every ShiftOperator.apply_stacked call."""
    calls = []
    apply_stacked = ShiftOperator.apply_stacked

    def counting(self, x):
        calls.append(self)
        return apply_stacked(self, x)

    monkeypatch.setattr(ShiftOperator, "apply_stacked", counting)
    return calls


def test_one_param_evaluation_applies_the_shift_at_most_twice(rng, monkeypatch):
    # one call for the inner terms, one for the summed outer terms
    g = GridSpec(1, 6)
    tl = decompose(random_function(g, rng), random_shift(g, 4, 4, rng))
    assert sum(t.outer[0] for t in tl.terms) == 6
    calls = _count_shift_calls(monkeypatch)
    evaluate_terms(tl, random_function(g, rng))
    assert len(calls) == 2
    # verify_identity applies each case's shift once to [f | b_c f], whose
    # S_c f is the inner input of the terms, and once to its outer group
    shifts = [random_shift(g, 4, 4, rng), random_shift(g, 1, 2, rng), random_shift(g, 0, 0, rng)]
    shifts += [random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)
               for ori in ("analysis", "synthesis")]
    for block in ([shifts[0]], shifts):
        calls.clear()
        verify_identity([random_function(g, rng) for _ in block], block, trials=3, rng_seed=2)
        assert len(calls) == 2 * len(block)
        assert all(sum(c is S for c in calls) == 2 for S in block)


def _count_calls(monkeypatch, name) -> list:
    """Record the arguments of every call of haar.<name>, through any binding."""
    import sys
    from dyadlab import haar
    fn = getattr(haar, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "dyadlab" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_verify_identity_transforms_b_once(rng, monkeypatch):
    # one transform of the block's symbols gives the term lists their
    # coefficients of b and the cases their residual scales; then one fold
    # of the noncancellative rows per variable, and f: at t = 1 f and every
    # b_c f side by side in one transform that feeds both the terms and the
    # direct commutators, at t = 2 f once for the terms, and three for the
    # direct commutators of the whole block (f along variable 2, both
    # brackets of every case along variable 1, the second brackets along
    # variable 2), and f alone along variable 1 when two or more cases share
    # it; whatever the number of trials and cases
    calls = _count_calls(monkeypatch, "forward_stacked")
    g = GridSpec(1, 4)
    bs = [random_function(g, rng) for _ in range(3)]
    shifts = [random_shift(g, 1, 1, rng), random_shift(g, 2, 0, rng),
              random_shift(g, 0, 0, rng, kind="noncancellative")]
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    b2 = [random_product_function(pg, rng) for _ in range(2)]
    pairs = [(random_shift(pg.grids[0], 1, 1, rng), random_shift(pg.grids[1], 1, 1, rng)),
             (random_shift(pg.grids[0], 0, 1, rng), random_shift(pg.grids[1], 1, 0, rng))]

    def one_symbol_transform(symbols):
        stack = np.stack([b.samples for b in symbols], axis=-1)
        return sum(x.shape == stack.shape and np.array_equal(x, stack) for _, x in calls) == 1

    for trials in (1, 3):
        for C in (1, 3):
            calls.clear()
            reps = verify_identity(bs[:C], shifts[:C], trials, 5)
            assert all(rep["pass"] and rep["max_residual"] > 0 for rep in reps)
            assert len(calls) == 3 and one_symbol_transform(bs[:C])
        for C in (1, 2):
            calls.clear()
            assert all(rep["pass"] for rep in verify_identity(b2[:C], pairs[:C], trials, 5))
            # forward_space is one call per variable
            assert len(calls) == 9 + (C > 1) and one_symbol_transform(b2[:C])


def test_one_extend_and_one_contract_per_variable(rng, monkeypatch):
    # all 2^t inner inputs are extended together, and all 2^t outer groups
    # contracted together: one scaling pass and one fold per variable
    levels = _count_calls(monkeypatch, "scaling_levels")
    folds = _count_calls(monkeypatch, "fold_noncancellative")
    g = GridSpec(2, 3)
    tl = decompose(random_function(g, rng), random_shift(g, 1, 1, rng))
    evaluate_stacked(tl, rng.standard_normal((g.n_samples, 2)))
    assert len(levels) == len(folds) == 1
    levels.clear()
    folds.clear()
    pg = ProductGrid(GridSpec(1, 4), GridSpec(1, 3))
    tl = decompose(random_product_function(pg, rng),
                           random_shift(pg.grids[0], 1, 1, rng), random_shift(pg.grids[1], 2, 1, rng))
    assert len({t.outer for t in tl.terms}) == 4
    evaluate_stacked(tl, rng.standard_normal(pg.shape + (2,)))
    assert [args[0] for args in levels] == list(pg.grids)
    assert [args[0] for args in folds] == [pg.grids[1], pg.grids[0]]


def test_decomposition_never_reaches_the_level_pair_loop(rng):
    # every P-type pair of a decomposition, of either orientation in each
    # variable, is two tree scans with one symbol per variable
    for pg in (ProductGrid(GridSpec(1, 3), GridSpec(1, 3)),
               ProductGrid(GridSpec(2, 2), GridSpec(1, 3))):
        b = random_product_function(pg, rng)
        for ori1 in ("analysis", "synthesis"):
            for ori2 in ("analysis", "synthesis"):
                shifts = tuple(random_shift(g, 0, 0, rng, kind="noncancellative",
                                            orientation=ori)
                               for g, ori in ((pg.grids[0], ori1), (pg.grids[1], ori2)))
                rep = verify_identity(b, shifts, trials=3, rng_seed=4)
                assert rep["pass"] and rep["max_residual"] < 1e-13, (pg, ori1, ori2)


def test_biparam_evaluation_applies_each_shift_once_per_composition(rng, monkeypatch):
    # S2 once on the input and S1 once on [x | S2 x], then S1 once on its two
    # outer groups side by side and S2 once on its two: each runs twice
    calls = _count_shift_calls(monkeypatch)
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
    for kind2 in ("cancellative", "noncancellative"):
        S1 = random_shift(pg.grids[0], 1, 1, rng)
        S2 = random_shift(pg.grids[1], 0, 0, rng, kind=kind2)
        tl = decompose(random_product_function(pg, rng), S1, S2)
        calls.clear()
        evaluate_stacked(tl, rng.standard_normal(pg.shape + (2,)))
        assert sum(c is S1 for c in calls) == 2, kind2
        assert sum(c is S2 for c in calls) == 2, kind2
        assert len(calls) == 4


def _shift_of_kind(g, kind, rng):
    """A random shift of ``kind``: (i, j) for a cancellative one, or an
    orientation for a noncancellative one."""
    if isinstance(kind, tuple):
        return random_shift(g, *kind, rng)
    return random_shift(g, 0, 0, rng, kind="noncancellative", orientation=kind)


THREE_VAR_KINDS = [(0, 0), (1, 0), (0, 1), (1, 1), "analysis", "synthesis"]


def test_three_variables_verify_their_identity_in_one_block(rng):
    # every mix of the six shift kinds of a d=1 N=2 grid in each of three
    # variables, all 216 cases in one block: the term sweep reproduces the
    # direct commutator, and a case's report is its one-case call, bit for bit
    pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 2), GridSpec(1, 2))
    mixes = list(itertools.product(THREE_VAR_KINDS, repeat=3))
    symbols = [random_product_function(pg, rng) for _ in mixes]
    cases = [tuple(_shift_of_kind(g, k, rng) for g, k in zip(pg.grids, kinds))
             for kinds in mixes]
    reports = verify_identity(symbols, cases, 2, 5)
    assert len(reports) == 216 and all(r["pass"] for r in reports)
    assert max(r["max_residual"] for r in reports) < 1e-13
    for c in (0, 41, 130, 215):
        assert verify_identity(symbols[c], cases[c], 2, 5) == reports[c], mixes[c]
    # a P atom in every variable names its adjoint variables; its list
    # evaluates a function as the direct commutator does
    c = mixes.index(("analysis", "synthesis", "analysis"))
    tl = decompose(symbols[c], *cases[c])
    f = random_product_function(pg, rng)
    direct = commutator_stacked(symbols[c], cases[c], f.samples)
    assert np.max(np.abs(evaluate_terms(tl, f).samples - direct)) <= 1e-13 * np.max(np.abs(direct))
    assert {t.kind for t in tl.terms if all(isinstance(a, PAtom) for a in t.atoms)} \
        == {"PPP2_term"}


@pytest.mark.parametrize("pg", [
    ProductGrid(GridSpec(1, 2, omega=((1,), (0,))), GridSpec(1, 3), GridSpec(1, 2)),
    ProductGrid(GridSpec(1, 2), GridSpec(2, 2), GridSpec(1, 2))], ids=repr)
def test_three_variable_evaluation_is_the_per_key_oracle(pg, rng):
    # one extend and one contract per variable for all eight keys give the
    # bits of one per key, with B, P and P* atoms in every position
    for kinds in [((1, 0), (0, 1), (1, 1)), ("analysis", (1, 0), "synthesis"),
                  ("synthesis", "analysis", (0, 1))]:
        tl = decompose(random_product_function(pg, rng),
                       *(_shift_of_kind(g, k, rng) for g, k in zip(pg.grids, kinds)))
        x = rng.standard_normal(pg.shape + (2,))
        assert np.array_equal(evaluate_stacked(tl, x), evaluate_stacked_oracle(tl, x)), kinds


ONE_PARAM_KINDS = [(0, 0), (1, 0), (0, 2), (2, 1), "analysis", "synthesis"]
TWO_PARAM_KINDS = [((1, 1), (0, 1)), ((2, 0), "analysis"), ("synthesis", (1, 0)),
                   ("analysis", "analysis"), ("analysis", "synthesis"),
                   ("synthesis", "analysis"), ("synthesis", "synthesis")]


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 3),
                               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))], ids=repr)
@pytest.mark.parametrize("kind", ONE_PARAM_KINDS, ids=str)
def test_one_parameter_evaluation_is_the_per_key_oracle(g, kind, rng):
    # one extend and one contract for all keys give the bits of one per key
    if isinstance(kind, tuple) and max(kind) > g.N - 1:
        pytest.skip("shift deeper than the grid")
    tl = decompose(random_function(g, rng), _shift_of_kind(g, kind, rng))
    for passive in [(1,), (3,), (2, 2)]:
        x = rng.standard_normal((g.n_samples,) + passive)
        assert np.array_equal(evaluate_stacked(tl, x), evaluate_stacked_oracle(tl, x))


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 3), GridSpec(1, 4)),
                                ProductGrid(GridSpec(2, 3), GridSpec(1, 3))], ids=repr)
@pytest.mark.parametrize("kinds", TWO_PARAM_KINDS, ids=str)
def test_two_parameter_evaluation_is_the_per_key_oracle(pg, kinds, rng):
    S1, S2 = (_shift_of_kind(g, k, rng) for g, k in zip(pg.grids, kinds))
    tl = decompose(random_product_function(pg, rng), S1, S2)
    for passive in [(1,), (3,)]:
        x = rng.standard_normal(pg.shape + passive)
        assert np.array_equal(evaluate_stacked(tl, x), evaluate_stacked_oracle(tl, x))


def test_noncancellative_symbol_is_transformed_once(rng, monkeypatch):
    # the shift holds its stacked symbol: evaluation transforms no symbol
    from dyadlab.paraproducts import symbol_stacked
    g = GridSpec(1, 4)
    for ori in ("analysis", "synthesis"):
        S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=ori)
        sym = S.stacked_symbol()
        assert not sym.flags.writeable and np.array_equal(sym, symbol_stacked(S.symbol))
        tl = decompose(random_function(g, rng), S)
        calls = _count_calls(monkeypatch, "forward_stacked")
        evaluate_stacked(tl, rng.standard_normal((g.n_samples, 2)))
        assert calls and not any(samples is S.symbol.samples for _, samples in calls)
        monkeypatch.undo()
