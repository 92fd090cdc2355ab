import numpy as np
import pytest

from dyadlab import (BiparamOperatorSpec, BkOperator, DyadicCube, DyadicFunction,
                     GridSpec, HaarIndex, ProductFunction, ProductGrid, apply_biparam,
                     apply_in_variable, haar_function, inner_product2,
                     iterated_commutator, random_function,
                     random_product_function, random_shift, tensor_function)
from dyadlab.biparam import (PAtom, contract2, extend2, forward2, forward2_stacked,
                             forward_var, inverse2, pair_apply)
from dyadlab.grids import DepthError, GridMismatchError, InvalidIndexError
from dyadlab.norms import rect_bmo_norm
from conftest import (all_cancellative_indices, all_cubes, assert_columns_alone,
                      bb_pair_oracle,
                      bp_pair_oracle, dense_matrix, sig_rows, strictly_inside)


PG = ProductGrid(GridSpec(1, 3), GridSpec(1, 3))
G1, G2 = PG.grid1, PG.grid2
PG_D2 = ProductGrid(GridSpec(2, 3), GridSpec(1, 3))
PG_SHIFTED = ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                         GridSpec(1, 3, omega=((0,), (1,), (1,))))


def ip(f, g):
    return float(np.sum(f * g) * G1.cell_volume * G2.cell_volume)


def hx(g, cube, sig=(0,)):
    return haar_function(g, HaarIndex(cube, sig)).samples


def test_partial_transforms_commute(rng):
    f = random_product_function(PG, rng)
    a = forward_var(forward_var(f.samples, G1, 1).T, G2, 1).T
    b = forward_var(forward_var(f.samples.T, G2, 1).T, G1, 1)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - forward2(f))) < 1e-12
    back = inverse2(PG, forward2(f))
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


def _bkl_oracle(spec, b, f):
    out = np.zeros(PG.shape)
    for I1 in all_cubes(G1):
        if I1.level < spec.k:
            continue
        for I2 in all_cubes(G2):
            if I2.level < spec.l:
                continue
            anc1 = G1.ancestor(I1, spec.k)
            anc2 = G2.ancestor(I2, spec.l)
            hb = np.outer(hx(G1, anc1), hx(G2, anc2))
            hin = np.outer(hx(G1, I1, spec.sig_in1 or (0,)),
                           hx(G2, I2, spec.sig_in2 or (0,)))
            hout = np.outer(hx(G1, I1, spec.sig_out1 or (0,)),
                            hx(G2, I2, spec.sig_out2 or (0,)))
            w = ip(b.samples, hb) * ip(f.samples, hin)
            out += w * hout * 2.0 ** ((I1.level - spec.k) / 2.0) \
                * 2.0 ** ((I2.level - spec.l) / 2.0)
    return out


def test_bkl_matches_quadruple_sum_oracle(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    for (k, l) in [(0, 0), (1, 0), (0, 2), (2, 1)]:
        spec = BiparamOperatorSpec("Bkl", k=k, l=l)
        got = apply_biparam(spec, b, f).samples
        assert np.max(np.abs(got - _bkl_oracle(spec, b, f))) < 1e-10
    spec = BiparamOperatorSpec("Bkl", k=0, l=1, sig_in1=(1,))
    assert np.max(np.abs(apply_biparam(spec, b, f).samples
                         - _bkl_oracle(spec, b, f))) < 1e-10
    spec = BiparamOperatorSpec("Bkl", k=0, l=0, sig_out1=(1,), sig_in2=(1,))
    assert np.max(np.abs(apply_biparam(spec, b, f).samples
                         - _bkl_oracle(spec, b, f))) < 1e-10


def test_bkl_constant_b_zero(rng):
    const = ProductFunction(PG, np.full(PG.shape, 1.5))
    f = random_product_function(PG, rng)
    for kind, kwargs in [("Bkl", {}), ("PP", {"a": random_product_function(PG, rng)}),
                         ("BPk", {"a2": random_function(G2, rng)}),
                         ("PBl", {"a1": random_function(G1, rng)})]:
        spec = BiparamOperatorSpec(kind, **kwargs)
        assert apply_biparam(spec, const, f).norm() < 1e-12


def _haars(g):
    """(cube, sampled Haar function) for every cancellative index of ``g``."""
    return [(i.cube, haar_function(g, i).samples) for i in all_cancellative_indices(g)]


def _ipf(F, h):
    return float(np.sum(F.samples * h) * F.cell_volume)


def _pp_oracle(a, b, f):
    pg = f.pgrid
    g1, g2 = pg.grid1, pg.grid2
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
    g1, g2 = pg.grid1, pg.grid2
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
    g1, g2 = pg.grid1, pg.grid2
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
    g1, g2 = pg.grid1, pg.grid2
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
        for kind, oracle in (("PP", _pp_oracle), ("PP2", _pp2_oracle),
                             ("PPstar", _ppstar_oracle)):
            got = apply_biparam(BiparamOperatorSpec(kind, a=a), b, f).samples
            assert np.max(np.abs(got - oracle(a, b, f))) < 1e-10, (pg, kind)


def test_pp_empty_inner_sum(rng):
    # a with no strict-subcube coefficients in variable 1 -> 0
    root_haar = haar_function(G1, HaarIndex(DyadicCube(0, (0,)), (0,)))
    a = tensor_function(root_haar, random_function(G2, rng))
    # only level-0 coefficients in variable 1 never sit strictly inside
    pg1 = ProductGrid(GridSpec(1, 1), G2)
    a1 = tensor_function(haar_function(pg1.grid1, HaarIndex(DyadicCube(0, (0,)), (0,))),
                         random_function(G2, rng))
    b1 = random_product_function(pg1, rng)
    f1 = random_product_function(pg1, rng)
    out = apply_biparam(BiparamOperatorSpec("PP", a=a1), b1, f1)
    assert out.norm() < 1e-13


def test_pp1_matches_oracle_and_partial_adjoint_relation(rng):
    for pg in (PG, PG_D2, PG_SHIFTED):
        g1, g2 = pg.grid1, pg.grid2
        a = random_product_function(pg, rng)
        b = random_product_function(pg, rng)
        f = random_product_function(pg, rng)
        got = apply_biparam(BiparamOperatorSpec("PP1", a=a), b, f).samples
        assert np.max(np.abs(got - _pp1_oracle(a, b, f))) < 1e-10
        # <PP(f1 x f2), g1 x g2> = <PP1(g1 x f2), f1 x g2>
        f1, h1 = random_function(g1, rng), random_function(g1, rng)
        f2, h2 = random_function(g2, rng), random_function(g2, rng)
        lhs = inner_product2(apply_biparam(BiparamOperatorSpec("PP", a=a), b,
                                           tensor_function(f1, f2)),
                             tensor_function(h1, h2))
        rhs = inner_product2(apply_biparam(BiparamOperatorSpec("PP1", a=a), b,
                                           tensor_function(h1, f2)),
                             tensor_function(f1, h2))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("pg", [PG, PG_D2, PG_SHIFTED], ids=repr)
def test_pp_product_symbol_is_the_tensor_symbol(pg, rng):
    # a1 and a2, one symbol per P axis, give the operator of a = a1 x a2
    b, f = random_product_function(pg, rng), random_product_function(pg, rng)
    a1, a2 = random_function(pg.grid1, rng), random_function(pg.grid2, rng)
    for kind in ("PP", "PP1", "PP2", "PPstar"):
        got = apply_biparam(BiparamOperatorSpec(kind, a1=a1, a2=a2), b, f).samples
        want = apply_biparam(BiparamOperatorSpec(kind, a=tensor_function(a1, a2)), b,
                             f).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), kind


def _bpk_oracle(spec, b, f):
    out = np.zeros(PG.shape)
    for I1 in all_cubes(G1):
        if I1.level < spec.k:
            continue
        anc1 = G1.ancestor(I1, spec.k)
        for I2 in all_cubes(G2):
            hb = np.outer(hx(G1, anc1), hx(G2, I2))
            hin = np.outer(hx(G1, I1, spec.sig_in1 or (0,)), hx(G2, I2))
            w = ip(b.samples, hb) * ip(f.samples, hin) \
                * 2.0 ** ((I1.level - spec.k) / 2.0) * 2.0 ** I2.level
            if w == 0.0:
                continue
            inner = np.zeros(G2.n_samples)
            for J2 in all_cubes(G2):
                if not strictly_inside(G2, J2, I2):
                    continue
                h2 = hx(G2, J2)
                inner += float(np.sum(spec.a2.samples * h2) * G2.cell_volume) * h2
            out += w * np.outer(hx(G1, I1, spec.sig_out1 or (0,)), inner)
    return out


def test_bpk_pbl_match_oracles(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    a2 = random_function(G2, rng)
    for k in (0, 1, 2):
        spec = BiparamOperatorSpec("BPk", k=k, a2=a2)
        got = apply_biparam(spec, b, f).samples
        assert np.max(np.abs(got - _bpk_oracle(spec, b, f))) < 1e-10
    spec = BiparamOperatorSpec("BPk", k=0, a2=a2, sig_in1=(1,))
    assert np.max(np.abs(apply_biparam(spec, b, f).samples
                         - _bpk_oracle(spec, b, f))) < 1e-10
    # PBl is the variable swap of BPk
    a1 = random_function(G1, rng)
    spec = BiparamOperatorSpec("PBl", l=1, a1=a1)
    spec_sw = BiparamOperatorSpec("BPk", k=1, a2=a1)
    got = apply_biparam(spec, b, f).samples
    want = apply_biparam(spec_sw, b.transpose(), f.transpose()).samples.T
    assert np.max(np.abs(got - want)) < 1e-12


def test_missing_symbol_raises(rng):
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    a = random_product_function(PG, rng)
    a1, a2 = random_function(G1, rng), random_function(G2, rng)
    for kind in ("PP", "PP1"):
        for fields in ({}, {"a1": a1}, {"a2": a2}, {"a": a, "a1": a1},
                       {"a": a, "a1": a1, "a2": a2}):
            with pytest.raises(ValueError, match=f"{kind} needs the product symbol a, or a1"):
                apply_biparam(BiparamOperatorSpec(kind, **fields), b, f)
    with pytest.raises(ValueError):
        apply_biparam(BiparamOperatorSpec("BPk", k=1), b, f)
    with pytest.raises(ValueError):
        apply_biparam(BiparamOperatorSpec("nope"), b, f)


def test_spec_symbols_off_the_product_grid_raise(rng):
    pg = ProductGrid(GridSpec(1, 3), GridSpec(1, 4))
    b, f = random_product_function(pg, rng), random_product_function(pg, rng)
    a1 = random_function(pg.grid1, rng)
    off = [random_function(GridSpec(2, 2), rng),
           random_function(GridSpec(1, 4, omega=((1,), (0,), (1,), (0,))), rng)]
    specs = [BiparamOperatorSpec(kind, a1=a1, a2=a2) for kind in ("PP", "PP1") for a2 in off]
    specs += [BiparamOperatorSpec("BPk", a2=a2) for a2 in off]
    other = ProductGrid(GridSpec(1, 3, omega=((1,), (1,), (0,))), pg.grid2)
    specs.append(BiparamOperatorSpec("PP2", a=random_product_function(other, rng)))
    for spec in specs:
        with pytest.raises(GridMismatchError):
            apply_biparam(spec, b, f)


def test_bkl_martingale_bound_exact(rng):
    for _ in range(5):
        b = random_product_function(PG, rng)
        f = random_product_function(PG, rng)
        beta1 = tuple(np.sign(rng.standard_normal(G1.n_cubes(m)) + 0.3)
                      for m in range(G1.N))
        beta2 = tuple(np.sign(rng.standard_normal(G2.n_cubes(m)) + 0.3)
                      for m in range(G2.N))
        for (k, l) in [(0, 0), (1, 2)]:
            spec = BiparamOperatorSpec("Bkl", k=k, l=l, beta1=beta1, beta2=beta2)
            out = apply_biparam(spec, b, f)
            assert out.norm() <= (1 + 1e-12) * rect_bmo_norm(b) * f.norm()


def test_biparam_linear_in_f(rng):
    a = random_product_function(PG, rng)
    b = random_product_function(PG, rng)
    f = random_product_function(PG, rng)
    h = random_product_function(PG, rng)
    spec = BiparamOperatorSpec("PP1", a=a)
    lhs = apply_biparam(spec, b, ProductFunction(PG, 2.0 * f.samples + h.samples))
    rhs = apply_biparam(spec, b, f) * 2.0 + apply_biparam(spec, b, h)
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
    "beta-tuple-above-1": (dict(k=0, beta=tuple(np.full(_G4.n_cubes(m), 5.0)
                                                for m in range(4))), ValueError),
    "beta-dict-above-1": (dict(k=1, beta={DyadicCube(2, (1,)): 3.0}), ValueError),
    "beta-nan": (dict(k=0, beta={DyadicCube(0, (0,)): np.nan}), ValueError),
    "beta-length-1-arrays": (dict(k=0, beta=tuple(np.ones(1) for _ in range(4))),
                             ValueError),
    "beta-too-few-levels": (dict(k=2, beta=(np.ones(1), np.ones(2))), ValueError),
}


@pytest.mark.parametrize("name", sorted(_BAD_ATOMS))
def test_bk_atom_error_contract(name, rng):
    fields, error = _BAD_ATOMS[name]
    with pytest.raises(error) as alone:
        BkOperator(_G4, **fields)
    for var, pg in ((1, ProductGrid(_G4, GridSpec(1, 2))),
                    (2, ProductGrid(GridSpec(1, 2), _G4))):
        depth = "k" if var == 1 else "l"
        spec = BiparamOperatorSpec("Bkl", **{depth if key == "k" else f"{key}{var}": val
                                             for key, val in fields.items()})
        b, f = random_product_function(pg, rng), random_product_function(pg, rng)
        with pytest.raises(error) as paired:
            apply_biparam(spec, b, f)
        assert type(paired.value) is type(alone.value) is error


@pytest.mark.parametrize("pg", [PG, PG_D2, ProductGrid(
    GridSpec(1, 3, omega=((1,), (0,), (1,))), GridSpec(3, 2, omega=((0, 1, 1), (1, 0, 1))))],
    ids=repr)
@pytest.mark.parametrize("passive", [(), (3,)])
def test_contract2_is_the_adjoint_of_extend2(pg, passive, rng):
    from dyadlab.haar import extend
    x = rng.standard_normal(pg.shape + passive)
    ext = extend2(pg, x)
    y = rng.standard_normal(ext.shape)
    lhs = np.einsum("ij...,ij...->...", contract2(pg, y), x)
    rhs = np.einsum("ij...,ij...->...", y, ext)
    assert np.max(np.abs(lhs - rhs)) < 1e-13
    # variable 1 first: the noncancellative rows of both variables hold the
    # scaling pairings of variable 1's scaling pairings
    g1, g2 = pg.grid1, pg.grid2
    rows1 = sig_rows(g1, g1.N - 1, g1.noncanc_int)
    expect = extend(g2, np.swapaxes(extend(g1, x)[rows1], 0, 1))
    assert np.array_equal(ext[rows1], np.swapaxes(expect, 0, 1))


def _all_b_atoms(g, k, rng):
    """Every admissible signature triple at depth k, with betas None and
    per-level arrays."""
    sigs = [g.int_sig(e) for e in range(1 << g.d)]
    beta = tuple(rng.uniform(-1.0, 1.0, g.n_cubes(lvl)) for lvl in range(g.N))
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
    g1, g2 = pg.grid1, pg.grid2
    pad = (1,) * len(passive)
    bC = forward2(random_product_function(pg, rng))
    Xe = extend2(pg, rng.standard_normal(pg.shape + passive))
    start = rng.standard_normal(Xe.shape)
    sym1 = forward_var(rng.standard_normal(g1.n_samples), g1, 1)
    sym2 = forward_var(rng.standard_normal(g2.n_samples), g2, 1)
    bCl, sym1l, sym2l = (a.reshape(a.shape + pad) for a in (bC, sym1, sym2))
    sw = np.swapaxes
    weight = -0.75

    def check(atom1, atom2, oracle):
        got, want = start.copy(), start.copy()
        pair_apply(pg, bC, Xe, atom1, atom2, sym1=sym1, sym2=sym2, out=got, weight=weight)
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
    g1, g2 = pg.grid1, pg.grid2
    T = 3
    bC = forward2_stacked(pg, rng.standard_normal(pg.shape + (T,)))
    Xe = extend2(pg, forward2_stacked(pg, rng.standard_normal(pg.shape + (T,))))
    sym1 = forward_var(rng.standard_normal((g1.n_samples, T)), g1, 1)
    sym2 = forward_var(rng.standard_normal((g2.n_samples, T)), g2, 1)
    sym1[0] = sym2[0] = 0.0
    pairs = [(PAtom(a), PAtom(b)) for a in (False, True) for b in (False, True)]
    for p in (PAtom(False), PAtom(True)):
        pairs += [(BkOperator(g1, k), p) for k in range(g1.N)]
        pairs += [(p, BkOperator(g2, l)) for l in range(g2.N)]
    for atom1, atom2 in pairs:
        got = pair_apply(pg, bC, Xe, atom1, atom2, sym1, sym2)
        assert got.shape == pg.shape + (T,)
        for t in range(T):
            want = pair_apply_oracle(pg, bC[..., t], Xe[..., t], atom1, atom2,
                                     sym1[:, t], sym2[:, t])
            assert np.array_equal(got[..., t], want), (atom1, atom2, t)
        # one symbol for all columns is the broadcast case of the same kernels
        got = pair_apply(pg, bC[..., 0], Xe, atom1, atom2, sym1[:, 0], sym2[:, 0])
        want = pair_apply_oracle(pg, bC[..., 0], Xe, atom1, atom2, sym1[:, 0], sym2[:, 0])
        assert np.array_equal(got, want), (atom1, atom2)


@pytest.mark.parametrize("pg", [ProductGrid(GridSpec(1, 3), GridSpec(1, 4)), PG_D2,
                                ProductGrid(GridSpec(1, 3, omega=((1,), (0,), (1,))),
                                            GridSpec(2, 2))], ids=repr)
def test_pair_apply_with_trial_betas_gives_a_column_its_bits_alone(pg, rng):
    # B_{k,l}, BP_k, PB_l and the separable P x P pairs with one symbol, one
    # beta array and one weight per trial column, as uniformity_study and
    # the block sweep of evaluate_stacked run them (a weight of 0 for a
    # case that lacks the term)
    g1, g2 = pg.grid1, pg.grid2

    def draw(T):
        bC = forward2_stacked(pg, rng.standard_normal(pg.shape + (T,)))
        Xe = extend2(pg, forward2_stacked(pg, rng.standard_normal(pg.shape + (T,))))
        beta1, beta2 = (np.sign(rng.standard_normal((g.n_cubes_total, T)) + 0.5)
                        for g in (g1, g2))
        sym1 = forward_var(rng.standard_normal((g1.n_samples, T)), g1, 1)
        sym2 = forward_var(rng.standard_normal((g2.n_samples, T)), g2, 1)
        sym1[0] = sym2[0] = 0.0
        w = rng.choice([-1.0, 0.0, 1.0, 0.5], T)
        return bC, Xe, beta1, beta2, sym1, sym2, w
    for k in range(g1.N):
        for l in range(g2.N):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, BkOperator(g1, k, beta=beta1), BkOperator(g2, l, beta=beta2),
                weight=w), draw)
        for p in (PAtom(False), PAtom(True)):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, BkOperator(g1, k, beta=beta1), p, sym2=sym2, weight=w), draw)
    for l in range(g2.N):
        assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
            pg, bC, Xe, PAtom(), BkOperator(g2, l, beta=beta2), sym1=sym1, weight=w), draw)
    for a1 in (False, True):
        for a2 in (False, True):
            assert_columns_alone(lambda bC, Xe, beta1, beta2, sym1, sym2, w: pair_apply(
                pg, bC, Xe, PAtom(a1), PAtom(a2), sym1=sym1, sym2=sym2, weight=w), draw)
    # a weight on the trial axes is the float weight, column by column
    bC, Xe, beta1, beta2, sym1, sym2, w = draw(4)
    for atoms in ((BkOperator(g1, 1, beta=beta1[:, 0]), PAtom(True)),
                  (PAtom(False), PAtom(True))):
        got = pair_apply(pg, bC[..., 0], Xe, *atoms, sym1=sym1[:, 0], sym2=sym2[:, 0],
                         weight=w)
        for t in range(4):
            want = pair_apply(pg, bC[..., 0], Xe[..., t], *atoms, sym1=sym1[:, 0],
                              sym2=sym2[:, 0], weight=float(w[t]))
            assert np.array_equal(got[..., t], want), (atoms, t)


def test_pair_apply_rejects_a_p_atom_without_its_symbol(rng):
    bC = forward2(random_product_function(PG, rng))
    Xe = extend2(PG, rng.standard_normal(PG.shape))
    sym1 = forward_var(rng.standard_normal(G1.n_samples), G1, 1)
    sym2 = forward_var(rng.standard_normal(G2.n_samples), G2, 1)
    with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
        pair_apply(PG, bC, Xe, BkOperator(G1, 1), PAtom(), sym1=sym1)
    with pytest.raises(ValueError, match="P atom in variable 1 needs its symbol"):
        pair_apply(PG, bC, Xe, PAtom(True), BkOperator(G2, 0), sym2=sym2)
    for adjoint1 in (False, True):
        for adjoint2 in (False, True):
            atoms = (PAtom(adjoint1), PAtom(adjoint2))
            with pytest.raises(ValueError, match="P atom in variable 2 needs its symbol"):
                pair_apply(PG, bC, Xe, *atoms, sym1=sym1)
            with pytest.raises(ValueError, match="P atom in variable 1 needs its symbol"):
                pair_apply(PG, bC, Xe, *atoms, sym2=sym2)


@pytest.mark.parametrize("pg", [PG, PG_D2, ProductGrid(GridSpec(1, 4), GridSpec(2, 2))],
                         ids=repr)
def test_per_axis_partial_adjoints_match_the_level_pair_loop(pg, rng):
    # PP1/PP2 with one symbol per variable run as two tree scans; they agree
    # with the level-pair loop on the product symbol up to roundoff
    from conftest import _pp1_oracle
    g1, g2 = pg.grid1, pg.grid2
    bC = forward2(random_product_function(pg, rng))[..., None]
    X = forward2_stacked(pg, rng.standard_normal(pg.shape + (3,)))
    sym1 = forward_var(rng.standard_normal(g1.n_samples), g1, 1)
    sym2 = forward_var(rng.standard_normal(g2.n_samples), g2, 1)
    sym1[0] = sym2[0] = 0.0
    sym12 = np.outer(sym1, sym2)[..., None]
    sw = np.swapaxes
    want = {True: _pp1_oracle(pg, bC, X, sym12),
            False: sw(_pp1_oracle(pg.swap(), sw(bC, 0, 1), sw(X, 0, 1), sw(sym12, 0, 1)), 0, 1)}
    for adjoint1, expect in want.items():
        got = np.zeros(X.shape)
        pair_apply(pg, bC[..., 0], X, PAtom(adjoint1), PAtom(not adjoint1),
                   sym1=sym1, sym2=sym2, out=got)
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect)), adjoint1
