import numpy as np
import pytest

from dyadlab import (BkOperator, DyadicCube, DyadicFunction,
                     GridSpec, HaarIndex, ProductFunction, ProductGrid, apply_biparam,
                     apply_in_variable, haar_function, inner_product,
                     iterated_commutator, random_function,
                     random_product_function, random_shift, tensor_function)
from dyadlab.biparam import PAtom, pair_apply
from dyadlab.haar import (contract_space, extend_space, forward_space, forward_stacked,
                          inverse_space)
from dyadlab.grids import DepthError, GridMismatchError, InvalidIndexError
from dyadlab.norms import rect_bmo_norm
from conftest import (all_cancellative_indices, all_cubes, assert_columns_alone,
                      bb_pair_oracle,
                      bp_pair_oracle, dense_matrix, sig_rows, strictly_inside)


PG = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
G1, G2 = PG.grids
PG_D2 = ProductGrid(GridSpec(2, 3), GridSpec(1, 3))
PG_SHIFTED = ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                         GridSpec(1, 3, omega=((0,), (1,), (1,))))
P, PSTAR = PAtom(), PAtom(True)  # the atoms of PP (P, P), PP1 (P*, P), PP2 (P, P*), PP* (P*, P*)


def ip(f, g):
    return float(np.sum(f * g) * G1.cell_volume * G2.cell_volume)


def hx(g, cube, sig=(0,)):
    return haar_function(g, HaarIndex(cube, sig)).samples


def test_partial_transforms_commute(rng):
    f = random_product_function(PG, rng)
    a = forward_stacked(G2, forward_stacked(G1, f.samples).T).T
    b = forward_stacked(G1, forward_stacked(G2, f.samples.T).T)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - forward_space(f.pgrid, f.samples))) < 1e-12
    back = ProductFunction(PG, inverse_space(PG, forward_space(PG, f.samples)))
    assert (back - f).norm() < 1e-12


def test_apply_in_variable_matches_kronecker(rng):
    S1 = random_shift(G1, 1, 0, rng)
    S2 = random_shift(G2, 0, 1, rng)
    M1 = dense_matrix(S1, G1)
    M2 = dense_matrix(S2, G2)
    f = random_product_function(PG, rng)
    got1 = apply_in_variable(S1, 1, f).samples
    assert np.max(np.abs(got1 - M1 @ f.samples)) < 1e-11
    got2 = apply_in_variable(S2, 2, f).samples
    assert np.max(np.abs(got2 - f.samples @ M2.T)) < 1e-11


def test_apply_in_variable_trivial(rng):
    S1 = random_shift(G1, 1, 0, rng)
    zero = ProductFunction(PG, np.zeros(PG.shape))
    assert apply_in_variable(S1, 1, zero).norm() == 0.0
    f1 = random_function(G1, rng)
    f2 = random_function(G2, rng)
    got = apply_in_variable(S1, 1, tensor_function(f1, f2))
    want = tensor_function(S1.apply(f1), f2)
    assert (got - want).norm() < 1e-12
    with pytest.raises(ValueError):
        apply_in_variable(random_shift(GridSpec(1, 2), 0, 0, rng), 1,
                          random_product_function(PG, rng))
    # var = 0 read variable 2 through index -1, and var = 3 raised IndexError
    for var in (0, 3, -1):
        with pytest.raises(ValueError, match=f"variable {var} outside 1..2$"):
            apply_in_variable(S1, var, zero)


def test_iterated_commutator_trivial_cases(rng):
    S1 = random_shift(G1, 1, 1, rng)
    S2 = random_shift(G2, 1, 1, rng)
    const = ProductFunction(PG, np.full(PG.shape, 3.0))
    f = random_product_function(PG, rng)
    assert iterated_commutator(const, S1, S2, f).norm() < 1e-12
    # b constant in one variable commutes away
    ones2 = DyadicFunction(G2, np.ones(G2.n_samples))
    b = tensor_function(random_function(G1, rng), ones2)
    assert iterated_commutator(b, S1, S2, f).norm() < 1e-12


def _bkl_oracle(atoms, b, f):
    B1, B2 = atoms
    out = np.zeros(PG.shape)
    for I1 in all_cubes(G1):
        if I1.level < B1.k:
            continue
        for I2 in all_cubes(G2):
            if I2.level < B2.k:
                continue
            anc1 = G1.ancestor(I1, B1.k)
            anc2 = G2.ancestor(I2, B2.k)
            hb = np.outer(hx(G1, anc1), hx(G2, anc2))
            hin = np.outer(hx(G1, I1, B1.sig_in), hx(G2, I2, B2.sig_in))
            hout = np.outer(hx(G1, I1, B1.sig_out), hx(G2, I2, B2.sig_out))
            w = ip(b.samples, hb) * ip(f.samples, hin)
            out += w * hout * 2.0 ** ((I1.level - B1.k) / 2.0) \
                * 2.0 ** ((I2.level - B2.k) / 2.0)
    return out


def test_bkl_matches_quadruple_sum_oracle(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    for (k, l) in [(0, 0), (1, 0), (0, 2), (2, 1)]:
        atoms = (BkOperator(G1, k), BkOperator(G2, l))
        got = apply_biparam(atoms, b, f).samples
        assert np.max(np.abs(got - _bkl_oracle(atoms, b, f))) < 1e-10
    atoms = (BkOperator(G1, 0, sig_in=(1,)), BkOperator(G2, 1))
    assert np.max(np.abs(apply_biparam(atoms, b, f).samples
                         - _bkl_oracle(atoms, b, f))) < 1e-10
    atoms = (BkOperator(G1, 0, sig_out=(1,)), BkOperator(G2, 0, sig_in=(1,)))
    assert np.max(np.abs(apply_biparam(atoms, b, f).samples
                         - _bkl_oracle(atoms, b, f))) < 1e-10


def test_bkl_constant_b_zero(rng):
    const = ProductFunction(PG, np.full(PG.shape, 1.5))
    f = random_product_function(PG, rng)
    for atoms, syms in [((BkOperator(G1, 0), BkOperator(G2, 0)), None),
                        ((PAtom(), PAtom()), random_product_function(PG, rng)),
                        ((BkOperator(G1, 0), PAtom()), [None, random_function(G2, rng)]),
                        ((PAtom(), BkOperator(G2, 0)), [random_function(G1, rng), None])]:
        assert apply_biparam(atoms, const, f, syms).norm() < 1e-12


def _haars(g):
    """(cube, sampled Haar function) for every cancellative index of ``g``."""
    return [(i.cube, haar_function(g, i).samples) for i in all_cancellative_indices(g)]


def _ipf(F, h):
    return float(np.sum(F.samples * h) * F.cell_volume)


def _pp_oracle(a, b, f):
    pg = f.pgrid
    g1, g2 = pg.grids
    H1, H2 = _haars(g1), _haars(g2)
    out = np.zeros(pg.shape)
    for I1, h1 in H1:
        for I2, h2 in H2:
            hb = np.outer(h1, h2)
            w = _ipf(b, hb) * _ipf(f, hb) \
                * 2.0 ** (I1.level * g1.d) * 2.0 ** (I2.level * g2.d)
            if w == 0.0:
                continue
            for J1, k1 in H1:
                if not strictly_inside(g1, J1, I1):
                    continue
                for J2, k2 in H2:
                    if not strictly_inside(g2, J2, I2):
                        continue
                    hj = np.outer(k1, k2)
                    out += w * _ipf(a, hj) * hj
    return out


def _pp1_oracle(a, b, f):
    pg = f.pgrid
    g1, g2 = pg.grids
    H1, H2 = _haars(g1), _haars(g2)
    out = np.zeros(pg.shape)
    for I1, h1 in H1:
        for I2, h2 in H2:
            bc = _ipf(b, np.outer(h1, h2))
            if bc == 0.0:
                continue
            w = bc * 2.0 ** (I1.level * g1.d) * 2.0 ** (I2.level * g2.d)
            for J1, k1 in H1:
                if not strictly_inside(g1, J1, I1):
                    continue
                for J2, k2 in H2:
                    if not strictly_inside(g2, J2, I2):
                        continue
                    ac = _ipf(a, np.outer(k1, k2))
                    fc = _ipf(f, np.outer(k1, h2))
                    out += w * ac * fc * np.outer(h1, k2)
    return out


def _pp2_oracle(a, b, f):
    pg = f.pgrid
    g1, g2 = pg.grids
    H1, H2 = _haars(g1), _haars(g2)
    out = np.zeros(pg.shape)
    for I1, h1 in H1:
        for I2, h2 in H2:
            bc = _ipf(b, np.outer(h1, h2))
            if bc == 0.0:
                continue
            w = bc * 2.0 ** (I1.level * g1.d) * 2.0 ** (I2.level * g2.d)
            for J1, k1 in H1:
                if not strictly_inside(g1, J1, I1):
                    continue
                for J2, k2 in H2:
                    if not strictly_inside(g2, J2, I2):
                        continue
                    ac = _ipf(a, np.outer(k1, k2))
                    fc = _ipf(f, np.outer(h1, k2))
                    out += w * ac * fc * np.outer(k1, h2)
    return out


def _ppstar_oracle(a, b, f):
    pg = f.pgrid
    g1, g2 = pg.grids
    H1, H2 = _haars(g1), _haars(g2)
    out = np.zeros(pg.shape)
    for I1, h1 in H1:
        for I2, h2 in H2:
            bc = _ipf(b, np.outer(h1, h2))
            if bc == 0.0:
                continue
            w = bc * 2.0 ** (I1.level * g1.d) * 2.0 ** (I2.level * g2.d)
            for J1, k1 in H1:
                if not strictly_inside(g1, J1, I1):
                    continue
                for J2, k2 in H2:
                    if not strictly_inside(g2, J2, I2):
                        continue
                    ac = _ipf(a, np.outer(k1, k2))
                    fc = _ipf(f, np.outer(k1, k2))
                    out += w * ac * fc * np.outer(h1, h2)
    return out


def test_pp_matches_quadruple_sum_oracle(rng):
    # PG_D2 has d = 2 in variable 1: three signatures per cube
    for pg in (PG, PG_D2, PG_SHIFTED):
        a = random_product_function(pg, rng)
        b = random_product_function(pg, rng)
        f = random_product_function(pg, rng)
        for atoms, oracle in (((P, P), _pp_oracle), ((P, PSTAR), _pp2_oracle),
                              ((PSTAR, PSTAR), _ppstar_oracle)):
            got = apply_biparam(atoms, b, f, a).samples
            assert np.max(np.abs(got - oracle(a, b, f))) < 1e-10, (pg, atoms)


def test_pp_empty_inner_sum(rng):
    # a with no strict-subcube coefficients in variable 1 -> 0
    root_haar = haar_function(G1, HaarIndex(DyadicCube(0, (0,)), (0,)))
    a = tensor_function(root_haar, random_function(G2, rng))
    # only level-0 coefficients in variable 1 never sit strictly inside
    pg1 = ProductGrid(GridSpec(1, 1), G2)
    a1 = tensor_function(haar_function(pg1.grids[0], HaarIndex(DyadicCube(0, (0,)), (0,))),
                         random_function(G2, rng))
    b1 = random_product_function(pg1, rng)
    f1 = random_product_function(pg1, rng)
    out = apply_biparam((P, P), b1, f1, a1)
    assert out.norm() < 1e-13


def test_pp1_matches_oracle_and_partial_adjoint_relation(rng):
    for pg in (PG, PG_D2, PG_SHIFTED):
        g1, g2 = pg.grids
        a = random_product_function(pg, rng)
        b = random_product_function(pg, rng)
        f = random_product_function(pg, rng)
        got = apply_biparam((PSTAR, P), b, f, a).samples
        assert np.max(np.abs(got - _pp1_oracle(a, b, f))) < 1e-10
        # <P(f1 x f2), g1 x g2> = <PP1(g1 x f2), f1 x g2>
        f1, h1 = random_function(g1, rng), random_function(g1, rng)
        f2, h2 = random_function(g2, rng), random_function(g2, rng)
        lhs = inner_product(apply_biparam((P, P), b, tensor_function(f1, f2), a),
                            tensor_function(h1, h2))
        rhs = inner_product(apply_biparam((PSTAR, P), b, tensor_function(h1, f2), a),
                            tensor_function(f1, h2))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("pg", [PG, PG_D2, PG_SHIFTED], ids=repr)
def test_pp_product_symbol_is_the_tensor_symbol(pg, rng):
    # a1 and a2, one symbol per P axis, give the operator of a = a1 x a2
    b, f = random_product_function(pg, rng), random_product_function(pg, rng)
    a1, a2 = random_function(pg.grids[0], rng), random_function(pg.grids[1], rng)
    for atoms in ((P, P), (PSTAR, P), (P, PSTAR), (PSTAR, PSTAR)):
        got = apply_biparam(atoms, b, f, [a1, a2]).samples
        want = apply_biparam(atoms, b, f, tensor_function(a1, a2)).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), atoms


def _bpk_oracle(B1, a2, b, f):
    out = np.zeros(PG.shape)
    for I1 in all_cubes(G1):
        if I1.level < B1.k:
            continue
        anc1 = G1.ancestor(I1, B1.k)
        for I2 in all_cubes(G2):
            hb = np.outer(hx(G1, anc1), hx(G2, I2))
            hin = np.outer(hx(G1, I1, B1.sig_in), hx(G2, I2))
            w = ip(b.samples, hb) * ip(f.samples, hin) \
                * 2.0 ** ((I1.level - B1.k) / 2.0) * 2.0 ** I2.level
            if w == 0.0:
                continue
            inner = np.zeros(G2.n_samples)
            for J2 in all_cubes(G2):
                if not strictly_inside(G2, J2, I2):
                    continue
                h2 = hx(G2, J2)
                inner += float(np.sum(a2.samples * h2) * G2.cell_volume) * h2
            out += w * np.outer(hx(G1, I1, B1.sig_out), inner)
    return out


def test_bpk_pbl_match_oracles(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    a2 = random_function(G2, rng)
    for B1 in (BkOperator(G1, 0), BkOperator(G1, 1), BkOperator(G1, 2),
               BkOperator(G1, 0, sig_in=(1,))):
        got = apply_biparam((B1, P), b, f, [None, a2]).samples
        assert np.max(np.abs(got - _bpk_oracle(B1, a2, b, f))) < 1e-10
    # PBl is the variable swap of BPk
    a1 = random_function(G1, rng)
    got = apply_biparam((P, BkOperator(G2, 1)), b, f, [a1, None]).samples
    want = apply_biparam((BkOperator(G1, 1), P), b.transpose(), f.transpose(),
                         [None, a1]).samples.T
    assert np.max(np.abs(got - want)) < 1e-12


def test_missing_symbol_raises(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    a1, a2 = random_function(G1, rng), random_function(G2, rng)
    for atoms in ((P, P), (PSTAR, P)):
        for syms, var in ((None, 1), ([None, None], 1), ([a1, None], 2), ([None, a2], 1)):
            with pytest.raises(ValueError, match=f"P atom in variable {var} needs its symbol"):
                apply_biparam(atoms, b, f, syms)
    with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
        apply_biparam((BkOperator(G1, 1), P), b, f)


def test_atoms_and_symbols_must_fit_the_variables(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    B1, B2 = BkOperator(G1, 1), BkOperator(G2, 0)
    a = random_product_function(PG, rng)
    a1, a2 = random_function(G1, rng), random_function(G2, rng)
    for atoms in ((B1,), (P,), (B1, B2, B2), (P, P, P)):
        with pytest.raises(ValueError, match=f"2 variables take one atom each, got {len(atoms)}"):
            apply_biparam(atoms, b, f)
    for atoms in ((B1, B2), (B1, P), (P, B2)):
        with pytest.raises(ValueError, match="a product-grid symbol takes a P atom in both"):
            apply_biparam(atoms, b, f, a)
    with pytest.raises(ValueError, match="the B atom in variable 1 takes no symbol"):
        apply_biparam((B1, P), b, f, [a1, a2])
    with pytest.raises(ValueError, match="the B atom in variable 2 takes no symbol"):
        apply_biparam((P, B2), b, f, [a1, a2])
    with pytest.raises(ValueError):  # one symbol per variable
        apply_biparam((P, P), b, f, [a1])


def test_a_b_atom_off_its_variable_grid_raises(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 4))
    b, f = random_product_function(pg, rng), random_product_function(pg, rng)
    a2 = random_function(pg.grids[1], rng)
    shifted = GridSpec(1, 3, omega=((1,), (0,), (1,)))
    for atom1 in (BkOperator(GridSpec(1, 4), 1), BkOperator(shifted, 1),
                  BkOperator(GridSpec(2, 3), 0)):
        with pytest.raises(GridMismatchError, match="does not match variable 1"):
            apply_biparam((atom1, P), b, f, [None, a2])
    with pytest.raises(GridMismatchError, match="does not match variable 2"):
        apply_biparam((BkOperator(pg.grids[0], 0), BkOperator(pg.grids[0], 0)), b, f)


@pytest.mark.parametrize("entry", ["open_set_bmo_norm", "uniformity_study", "apply_biparam",
                                   "to_bytes"])
def test_two_variable_entry_points_refuse_three_variables(entry, rng):
    # one shared check names the arity, where unpacking two grids would not
    from dyadlab import open_set_bmo_norm, uniformity_study
    pg = ProductGrid(GridSpec(1, 2), GridSpec(1, 2), GridSpec(1, 2))
    f = random_product_function(pg, rng)
    call = {"open_set_bmo_norm": lambda: open_set_bmo_norm(f),
            "uniformity_study": lambda: uniformity_study("Bkl", pg, 1, 0),
            "apply_biparam": lambda: apply_biparam((P, P, P), f, f, f),
            "to_bytes": f.to_bytes}[entry]
    with pytest.raises(ValueError, match="takes two variables, not 3"):
        call()


def test_spec_symbols_off_the_product_grid_raise(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 4))
    b, f = random_product_function(pg, rng), random_product_function(pg, rng)
    a1 = random_function(pg.grids[0], rng)
    off = [random_function(GridSpec(2, 2), rng),
           random_function(GridSpec(1, 4, omega=((1,), (0,), (1,), (0,))), rng)]
    calls = [((p1, P), [a1, a2]) for p1 in (P, PSTAR) for a2 in off]
    calls += [((BkOperator(pg.grids[0], 0), P), [None, a2]) for a2 in off]
    other = ProductGrid(GridSpec(1, 3, omega=((1,), (1,), (0,))), pg.grids[1])
    calls.append(((P, PSTAR), random_product_function(other, rng)))
    for atoms, syms in calls:
        with pytest.raises(GridMismatchError):
            apply_biparam(atoms, b, f, syms)


def test_bkl_martingale_bound_exact(rng):
    for _ in range(5):
        b = random_product_function(PG, rng)
        f = random_product_function(PG, rng)
        beta1 = np.concatenate([np.sign(rng.standard_normal(G1.n_cubes(m)) + 0.3)
                                for m in range(G1.N)])
        beta2 = np.concatenate([np.sign(rng.standard_normal(G2.n_cubes(m)) + 0.3)
                                for m in range(G2.N)])
        for (k, l) in [(0, 0), (1, 2)]:
            atoms = (BkOperator(G1, k, beta=beta1), BkOperator(G2, l, beta=beta2))
            out = apply_biparam(atoms, b, f)
            assert out.norm() <= (1 + 1e-12) * rect_bmo_norm(b) * f.norm()


def test_biparam_linear_in_f(rng):
    a = random_product_function(PG, rng)
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    h = random_product_function(PG, rng)
    atoms = (PSTAR, P)
    lhs = apply_biparam(atoms, b, ProductFunction(PG, 2.0 * f.samples + h.samples), a)
    rhs = apply_biparam(atoms, b, f, a) * 2.0 + apply_biparam(atoms, b, h, a)
    assert (lhs - rhs).norm() < 1e-11 * max(1.0, lhs.norm())


def test_product_serialization(rng):
    f = random_product_function(PG, rng)
    back = ProductFunction.from_json(f.to_json())
    assert (back - f).norm() < 1e-15
    raw = f.to_bytes()
    assert raw[:4] == b"DYF2"
    assert len(raw) == 20 + 8 * G1.n_samples * G2.n_samples
    back = ProductFunction.from_bytes(raw)
    assert np.array_equal(back.samples, f.samples)


# (B_k atom fields, expected class) on a depth-4 grid: each must be refused at
# construction with the same class whether the atom stands alone or is one
# variable of a bi-parameter operator
_G4 = GridSpec(1, 4)
_BAD_ATOMS = {
    "noncancellative-sig_b": (dict(k=0, sig_b=(1,)), InvalidIndexError),
    "two-noncancellative": (dict(k=0, sig_in=(1,), sig_out=(1,)), InvalidIndexError),
    "noncancellative-at-k1": (dict(k=1, sig_out=(1,)), InvalidIndexError),
    "k-below-finest": (dict(k=4), DepthError),
    "k-negative": (dict(k=-1), DepthError),
    "beta-above-1": (dict(k=0, beta=np.full(_G4.n_cubes_total, 5.0)), ValueError),
    "beta-one-above-1": (dict(k=1, beta=np.where(np.arange(_G4.n_cubes_total) == 4, 3.0, 1.0)),
                         ValueError),
    "beta-nan": (dict(k=0, beta=np.where(np.arange(_G4.n_cubes_total) == 0, np.nan, 1.0)),
                 ValueError),
    "beta-length-1": (dict(k=0, beta=np.ones(1)), ValueError),
    "beta-too-few-levels": (dict(k=2, beta=np.ones(3)), ValueError),
}


@pytest.mark.parametrize("name", sorted(_BAD_ATOMS))
def test_bk_atom_error_contract(name, rng):
    fields, error = _BAD_ATOMS[name]
    with pytest.raises(error) as alone:
        BkOperator(_G4, **fields)
    for var, pg in ((1, ProductGrid(_G4, GridSpec(1, 2))),
                    (2, ProductGrid(GridSpec(1, 2), _G4))):
        b, f = random_product_function(pg, rng), random_product_function(pg, rng)
        with pytest.raises(error) as paired:
            atoms = [BkOperator(g, **fields) if v == var else BkOperator(g, 0)
                     for v, g in enumerate(pg.grids, 1)]
            apply_biparam(atoms, b, f)
        assert type(paired.value) is type(alone.value) is error


@pytest.mark.parametrize("pg", [PG, PG_D2, ProductGrid(
    GridSpec(1, 3, omega=((1,), (0,), (1,))), GridSpec(3, 2, omega=((0, 1, 1), (1, 0, 1))))],
    ids=repr)
@pytest.mark.parametrize("passive", [(), (3,)])
def test_contract_space_is_the_adjoint_of_extend_space(pg, passive, rng):
    from dyadlab.haar import extend
    x = rng.standard_normal(pg.shape + passive)
    ext = extend_space(pg, x)
    y = rng.standard_normal(ext.shape)
    lhs = np.einsum("ij...,ij...->...", contract_space(pg, y), x)
    rhs = np.einsum("ij...,ij...->...", y, ext)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    # variable 1 first: the noncancellative rows of both variables hold the
    # scaling pairings of variable 1's scaling pairings
    g1, g2 = pg.grids
    rows1 = sig_rows(g1, g1.N - 1, g1.noncanc_int)
    expect = extend(g2, np.swapaxes(extend(g1, x)[rows1], 0, 1))
    assert np.array_equal(ext[rows1], np.swapaxes(expect, 0, 1))


def _all_b_atoms(g, k, rng):
    """Every admissible signature triple at depth k, with betas None and
    drawn level by level."""
    sigs = [g.int_sig(e) for e in range(1 << g.d)]
    beta = np.concatenate([rng.uniform(-1.0, 1.0, g.n_cubes(lvl)) for lvl in range(g.N)])
    atoms = []
    for sb in sigs[:-1]:
        for si in sigs:
            for so in sigs:
                for b in (None, beta):
                    try:
                        atoms.append(BkOperator(g, k, sb, si, so, b))
                    except InvalidIndexError:
                        pass
    return atoms


def _pairs(atoms1, atoms2, rng):
    """Pairs covering every atom of both lists, partners drawn at random."""
    n = max(len(atoms1), len(atoms2))
    return [(atoms1[i % len(atoms1)], atoms2[j])
            for i, j in enumerate(rng.permutation(np.resize(np.arange(len(atoms2)), n)))]


@pytest.mark.parametrize("pg", [PG_D2, ProductGrid(
    GridSpec(1, 3, omega=((1,), (0,), (1,))), GridSpec(2, 2, omega=((0, 1), (1, 1))))],
    ids=repr)
@pytest.mark.parametrize("passive", [(), (3,)])
def test_b_atoms_match_the_level_loops(pg, passive, rng):
    # pair_apply's one-gather B kernels are bit-identical to the per-level
    # (pair) loops of conftest, for Bkl, BPk and PBl (the mirror path)
    g1, g2 = pg.grids
    pad = (1,) * len(passive)
    bC = forward_space(pg, random_product_function(pg, rng).samples)
    Xe = extend_space(pg, rng.standard_normal(pg.shape + passive))
    start = rng.standard_normal(Xe.shape)
    sym1 = forward_stacked(g1, rng.standard_normal(g1.n_samples))
    sym2 = forward_stacked(g2, rng.standard_normal(g2.n_samples))
    bCl, sym1l, sym2l = (a.reshape(a.shape + pad) for a in (bC, sym1, sym2))
    sw = np.swapaxes
    weight = -0.75

    def check(atom1, atom2, oracle):
        got, want = start.copy(), start.copy()
        pair_apply(pg, bC, Xe, (atom1, atom2), (sym1, sym2), out=got, weight=weight)
        oracle(want)
        assert np.array_equal(got, want), (atom1, atom2)

    atoms1 = {k: _all_b_atoms(g1, k, rng) for k in range(g1.N)}
    atoms2 = {l: _all_b_atoms(g2, l, rng) for l in range(g2.N)}
    for k in atoms1:
        for l in atoms2:
            for a1, a2 in _pairs(atoms1[k], atoms2[l], rng):
                check(a1, a2, lambda out: bb_pair_oracle(pg, bCl, Xe, a1, a2, out, weight))
    for p in (PAtom(False), PAtom(True)):
        for a1 in (a for atoms in atoms1.values() for a in atoms):
            check(a1, p, lambda out: bp_pair_oracle(pg, bCl, Xe, a1, p, sym2l, out, weight))
        for a2 in (a for atoms in atoms2.values() for a in atoms):
            check(p, a2, lambda out: bp_pair_oracle(pg.swap(), sw(bCl, 0, 1), sw(Xe, 0, 1),
                                                    a2, p, sym1l, sw(out, 0, 1), weight))


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 3), GridSpec(1, 4)), PG_D2,
                                ProductGrid(GridSpec(2, 2), GridSpec(2, 3))], ids=repr)
def test_p_symbol_stacks_match_the_one_symbol_pair_kernels(pg, rng):
    # PP, PP1, PP2, PPstar, BPk, PBl and the adjoints of BPk/PBl with one
    # symbol per trial column equal the one-symbol kernels column by column
    from conftest import pair_apply_oracle
    g1, g2 = pg.grids
    T = 3
    bC = forward_space(pg, rng.standard_normal(pg.shape + (T,)))
    Xe = extend_space(pg, forward_space(pg, rng.standard_normal(pg.shape + (T,))))
    sym1 = forward_stacked(g1, rng.standard_normal((g1.n_samples, T)))
    sym2 = forward_stacked(g2, rng.standard_normal((g2.n_samples, T)))
    sym1[0] = sym2[0] = 0.0
    pairs = [(PAtom(a), PAtom(b)) for a in (False, True) for b in (False, True)]
    for p in (PAtom(False), PAtom(True)):
        pairs += [(BkOperator(g1, k), p) for k in range(g1.N)]
        pairs += [(p, BkOperator(g2, l)) for l in range(g2.N)]
    for atom1, atom2 in pairs:
        got = pair_apply(pg, bC, Xe, (atom1, atom2), (sym1, sym2))
        assert got.shape == pg.shape + (T,)
        for t in range(T):
            want = pair_apply_oracle(pg, bC[..., t], Xe[..., t], (atom1, atom2),
                                     (sym1[:, t], sym2[:, t]))
            assert np.array_equal(got[..., t], want), (atom1, atom2, t)
        # one symbol for all columns is the broadcast case of the same kernels
        got = pair_apply(pg, bC[..., 0], Xe, (atom1, atom2), (sym1[:, 0], sym2[:, 0]))
        want = pair_apply_oracle(pg, bC[..., 0], Xe, (atom1, atom2), (sym1[:, 0], sym2[:, 0]))
        assert np.array_equal(got, want), (atom1, atom2)


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 3), GridSpec(1, 4)), PG_D2,
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(2, 2))], ids=repr)
def test_pair_apply_with_trial_betas_gives_a_column_its_bits_alone(pg, rng):
    # B_{k,l}, BP_k, PB_l and the separable P x P pairs with one symbol, one
    # beta array and one weight per trial column, as uniformity_study and
    # the block sweep of evaluate_stacked run them (a weight of 0 for a
    # case that lacks the term)
    g1, g2 = pg.grids

    def draw(T):
        bC = forward_space(pg, rng.standard_normal(pg.shape + (T,)))
        Xe = extend_space(pg, forward_space(pg, rng.standard_normal(pg.shape + (T,))))
        beta1, beta2 = (np.sign(rng.standard_normal((g.n_cubes_total, T)) + 0.5)
                        for g in (g1, g2))
        sym1 = forward_stacked(g1, rng.standard_normal((g1.n_samples, T)))
        sym2 = forward_stacked(g2, rng.standard_normal((g2.n_samples, T)))
        sym1[0] = sym2[0] = 0.0
        w = rng.choice([-1.0, 0.0, 1.0, 0.5], T)
        return bC, Xe, beta1, beta2, sym1, sym2, w
    for k in range(g1.N):
        for l in range(g2.N):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, (BkOperator(g1, k, beta=beta1), BkOperator(g2, l, beta=beta2)),
                weight=w), draw)
        for p in (PAtom(False), PAtom(True)):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, (BkOperator(g1, k, beta=beta1), p), (None, sym2), weight=w), draw)
    for l in range(g2.N):
        assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
            pg, bC, Xe, (PAtom(), BkOperator(g2, l, beta=beta2)), (sym1, None), weight=w), draw)
    for a1 in (False, True):
        for a2 in (False, True):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, (PAtom(a1), PAtom(a2)), (sym1, sym2), weight=w), draw)
    # a weight on the trial axes is the float weight, column by column
    bC, Xe, beta1, beta2, sym1, sym2, w = draw(4)
    for atoms in ((BkOperator(g1, 1, beta=beta1[:, 0]), PAtom(True)),
                  (PAtom(False), PAtom(True))):
        got = pair_apply(pg, bC[..., 0], Xe, atoms, (sym1[:, 0], sym2[:, 0]), weight=w)
        for t in range(4):
            want = pair_apply(pg, bC[..., 0], Xe[..., t], atoms, (sym1[:, 0], sym2[:, 0]),
                              weight=float(w[t]))
            assert np.array_equal(got[..., t], want), (atoms, t)


def test_pair_apply_rejects_a_p_atom_without_its_symbol(rng):
    bC = forward_space(PG, random_product_function(PG, rng).samples)
    Xe = extend_space(PG, rng.standard_normal(PG.shape))
    sym1 = forward_stacked(G1, rng.standard_normal(G1.n_samples))
    sym2 = forward_stacked(G2, rng.standard_normal(G2.n_samples))
    with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
        pair_apply(PG, bC, Xe, (BkOperator(G1, 1), PAtom()), (sym1, None))
    with pytest.raises(ValueError, match="P atom in variable 1 needs its symbol"):
        pair_apply(PG, bC, Xe, (PAtom(True), BkOperator(G2, 0)), (None, sym2))
    for adjoint1 in (False, True):
        for adjoint2 in (False, True):
            atoms = (PAtom(adjoint1), PAtom(adjoint2))
            with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
                pair_apply(PG, bC, Xe, atoms, (sym1, None))
            with pytest.raises(ValueError, match="P atom in variable 1 needs its symbol"):
                pair_apply(PG, bC, Xe, atoms, (None, sym2))


def _atoms_of_one(g, rng, T):
    """B_0 with a noncancellative input or output signature, B_1 with one
    beta array, B_1 with one beta array per trial column (T columns), P, P*."""
    non = (1,) * g.d
    return [BkOperator(g, 0, sig_in=non), BkOperator(g, 0, sig_out=non),
            BkOperator(g, 1, beta=rng.uniform(-1.0, 1.0, g.n_cubes_total)),
            BkOperator(g, 1, beta=rng.uniform(-1.0, 1.0, (g.n_cubes_total, T))),
            PAtom(False), PAtom(True)]


@pytest.mark.parametrize("g", [GridSpec(1, 4), GridSpec(2, 2)], ids=repr)
def test_one_atom_is_its_one_variable_kernel(g, rng):
    # at t = 1 pair_apply runs the 1-D kernel itself, bit for bit: with out=
    # and one weight per case column, as the block sweep of
    # evaluate_stacked runs it, and without out
    from dyadlab.haar import contract
    from dyadlab.paraproducts import bk_stacked, p_stacked, pstar_stacked
    n, C, T = g.n_samples, 3, 2
    bc = forward_stacked(g, rng.standard_normal((n, C, 1)))
    sym = forward_stacked(g, rng.standard_normal((n, C, 1)))
    sym[0] = 0.0
    X = forward_stacked(g, rng.standard_normal((n, C, T)))
    Xe = extend_space(g, X)
    w = rng.choice([-1.0, 0.0, 1.0, 0.5], (C, 1))
    start = rng.standard_normal(Xe.shape)
    for atom in _atoms_of_one(g, rng, T):
        got, want = start.copy(), start.copy()
        if isinstance(atom, PAtom):
            alone = (pstar_stacked if atom.adjoint else p_stacked)(g, bc, sym, X)
            want[:n] += w * alone
            # P atoms read and write only the stacked rows
            assert np.array_equal(pair_apply(g, bc, X, (atom,), (sym,)), alone), atom
        else:
            want += w * bk_stacked(atom, bc, Xe)
            alone = contract(g, bk_stacked(atom, bc, Xe))
        assert pair_apply(g, bc, Xe, (atom,), (sym,), out=got, weight=w) is None
        assert np.array_equal(got, want), atom
        assert np.array_equal(pair_apply(g, bc, Xe, (atom,), (sym,)), alone), atom


def test_apply_biparam_of_one_is_the_one_variable_kernel(rng):
    # the 1-D operators are apply_biparam at t = 1: a DyadicFunction, with
    # the bits of the 1-D kernel between one transform in and one out
    from dyadlab import apply_Bk, apply_P, apply_P_adjoint
    from dyadlab.haar import contract, extend, inverse_stacked
    from dyadlab.paraproducts import bk_stacked, p_stacked, pstar_stacked, symbol_stacked
    g = GridSpec(2, 2)
    b, a, f = (random_function(g, rng) for _ in range(3))
    bc, x = forward_stacked(g, b.samples), forward_stacked(g, f.samples)
    for atom in _atoms_of_one(g, rng, 1)[:3]:
        want = inverse_stacked(g, contract(g, bk_stacked(atom, bc, extend(g, x))))
        for got in (apply_biparam((atom,), b, f), apply_Bk(atom, b, f)):
            assert type(got) is DyadicFunction and np.array_equal(got.samples, want), atom
    for p, kernel, apply in ((P, p_stacked, apply_P), (PSTAR, pstar_stacked, apply_P_adjoint)):
        want = inverse_stacked(g, kernel(g, bc, symbol_stacked(a), x))
        for got in (apply_biparam((p,), b, f, [a]), apply(b, a, f)):
            assert type(got) is DyadicFunction and np.array_equal(got.samples, want), p


def test_one_atom_and_its_symbol_must_fit_the_variable(rng):
    b, f, a = (random_function(G1, rng) for _ in range(3))
    B = BkOperator(G1, 1)
    for atoms in ((), (B, B), (P, PSTAR)):
        with pytest.raises(ValueError, match=f"1 variables take one atom each, got {len(atoms)}"):
            apply_biparam(atoms, b, f)
    with pytest.raises(ValueError, match="the B atom in variable 1 takes no symbol"):
        apply_biparam((B,), b, f, [a])
    with pytest.raises(ValueError, match="P atom in variable 1 needs its symbol"):
        apply_biparam((P,), b, f)
    with pytest.raises(ValueError, match="a product-grid symbol takes two variables, not 1"):
        apply_biparam((P,), b, f, random_product_function(PG, rng))
    with pytest.raises(GridMismatchError, match="does not match variable 1"):
        apply_biparam((BkOperator(GridSpec(1, 4), 1),), b, f)


PG3 = ProductGrid(GridSpec(1, 2), GridSpec(1, 3), GridSpec(1, 2))


def _atoms_of_three(pg, rng):
    """Per variable: B_0 with a noncancellative signature (input side on
    variables 1 and 3, output side on variable 2), B_1 with betas, P, P*."""
    out = []
    for v, g in enumerate(pg.grids):
        non = {"sig_out" if v == 1 else "sig_in": (1,)}
        out.append([BkOperator(g, 0, **non),
                    BkOperator(g, 1, beta=rng.uniform(-1.0, 1.0, g.n_cubes_total)),
                    PAtom(False), PAtom(True)])
    return out


def _per_axis_product(grids, atoms, ranks, syms, Xe):
    """The tensor of ``atoms`` on the extended stack ``Xe`` with b the sum
    over ``ranks`` of the tensors of their stacked vectors: per rank, the
    1-D kernels (bk_stacked, p_stacked or pstar_stacked on the stacked
    rows, with ``syms[v]`` on a P axis) run along each variable in turn."""
    from dyadlab.haar import _along
    from dyadlab.paraproducts import bk_stacked, p_stacked, pstar_stacked

    def one_variable(v, atom, bv, y):
        g = grids[v]

        def kernel(z):
            if not isinstance(atom, PAtom):
                return bk_stacked(atom, bv, z)
            res = np.zeros(z.shape)
            p = pstar_stacked if atom.adjoint else p_stacked
            res[:g.n_samples] = p(g, bv, syms[v], z[:g.n_samples])
            return res
        return _along(v, kernel, y)

    want = np.zeros(Xe.shape)
    for vecs in ranks:
        y = Xe
        for v, (atom, bv) in enumerate(zip(atoms, vecs)):
            y = one_variable(v, atom, bv, y)
        want += y
    return want


def test_three_atoms_are_the_product_of_the_one_variable_kernels(rng):
    # with b a sum of two rank-one tensors, the tensor of three atoms is the
    # sum over the ranks of the 1-D kernels run along each variable in turn;
    # every mix of B and P atoms, B axes apart (B, P, B) included
    from itertools import product

    grids = PG3.grids
    ranks = [[forward_stacked(g, rng.standard_normal(g.n_samples)) for g in grids]
             for _ in range(2)]
    bC = sum(np.einsum("i,j,k->ijk", *vecs) for vecs in ranks)
    syms = [forward_stacked(g, rng.standard_normal(g.n_samples)) for g in grids]
    Xe = extend_space(PG3, rng.standard_normal(PG3.shape + (2,)))
    for atoms in product(*_atoms_of_three(PG3, rng)):
        want = _per_axis_product(grids, atoms, ranks, syms, Xe)
        got = np.zeros(Xe.shape)
        pair_apply(PG3, bC, Xe, atoms,
                   [s if isinstance(a, PAtom) else None for a, s in zip(atoms, syms)],
                   out=got)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), atoms
        assert np.array_equal(pair_apply(PG3, bC, Xe, atoms, syms),
                              contract_space(PG3, got)), atoms


def test_apply_biparam_of_three_is_the_product_of_the_one_variable_kernels(rng):
    # the public operator at t = 3, one DyadicFunction symbol per P atom,
    # against the same per-axis oracle on b's and f's coefficients
    from itertools import product

    from dyadlab.paraproducts import symbol_stacked
    grids = PG3.grids
    vecs = [[rng.standard_normal(g.n_samples) for g in grids] for _ in range(2)]
    b = ProductFunction(PG3, sum(np.einsum("i,j,k->ijk", *v) for v in vecs))
    ranks = [[forward_stacked(g, x) for g, x in zip(grids, v)] for v in vecs]
    f = random_product_function(PG3, rng)
    a = [random_function(g, rng) for g in grids]
    syms = [symbol_stacked(s) for s in a]
    Xe = extend_space(PG3, forward_space(PG3, f.samples))
    for atoms in product(*_atoms_of_three(PG3, rng)):
        want = inverse_space(PG3, contract_space(
            PG3, _per_axis_product(grids, atoms, ranks, syms, Xe)))
        got = apply_biparam(atoms, b, f,
                            [s if isinstance(at, PAtom) else None for at, s in zip(atoms, a)])
        assert np.max(np.abs(got.samples - want)) <= 1e-13 * np.max(np.abs(want)), atoms


def test_pair_apply_of_three_rejects_a_p_atom_without_its_symbol(rng):
    bC = forward_space(PG3, rng.standard_normal(PG3.shape))
    Xe = extend_space(PG3, rng.standard_normal(PG3.shape))
    syms = [forward_stacked(g, rng.standard_normal(g.n_samples)) for g in PG3.grids]
    B1, _, B3 = (BkOperator(g, 0) for g in PG3.grids)
    with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
        pair_apply(PG3, bC, Xe, (B1, PAtom(), B3))
    with pytest.raises(ValueError, match="P atom in variable 3 needs its symbol"):
        pair_apply(PG3, bC, Xe, (PAtom(True), PAtom(), PAtom(True)), syms[:2] + [None])


@pytest.mark.parametrize("pg", [PG, PG_D2, ProductGrid(GridSpec(1, 4), GridSpec(2, 2))],
                         ids=repr)
def test_per_axis_partial_adjoints_match_the_level_pair_loop(pg, rng):
    # PP1/PP2 with one symbol per variable run as two tree scans; they agree
    # with the level-pair loop on the product symbol up to roundoff
    from conftest import _pp1_oracle
    g1, g2 = pg.grids
    bC = forward_space(pg, random_product_function(pg, rng).samples)[..., None]
    X = forward_space(pg, rng.standard_normal(pg.shape + (3,)))
    sym1 = forward_stacked(g1, rng.standard_normal(g1.n_samples))
    sym2 = forward_stacked(g2, rng.standard_normal(g2.n_samples))
    sym1[0] = sym2[0] = 0.0
    sym12 = np.outer(sym1, sym2)[..., None]
    sw = np.swapaxes
    want = {True: _pp1_oracle(pg, bC, X, sym12),
            False: sw(_pp1_oracle(pg.swap(), sw(bC, 0, 1), sw(X, 0, 1), sw(sym12, 0, 1)), 0, 1)}
    for adjoint1, expect in want.items():
        got = np.zeros(X.shape)
        pair_apply(pg, bC[..., 0], X, (PAtom(adjoint1), PAtom(not adjoint1)), (sym1, sym2),
                   out=got)
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect)), adjoint1
