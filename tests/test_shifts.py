import itertools
import json
import math

import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, GridSpec, HaarIndex,
                     LinearOperatorHandle, ShiftOperator, haar_function,
                     inner_product, multiplication_commutator, operator_norm,
                     random_function, random_shift)
from dyadlab import shifts
from dyadlab.grids import DepthError, WrongKindError
from dyadlab.haar import fold_noncancellative, forward_stacked, scaling_levels
from dyadlab.norms import dyadic_bmo_norm
from dyadlab.shifts import blocks_shape, max_k_level
from conftest import (assert_columns_alone, dense_matrix, dense_shift_matrix_oracle,
                      shift_apply_oracle)


def test_coefficient_count_formula():
    # included K-levels stop where both Haar slots stay cancellative
    g = GridSpec(1, 3)
    S = random_shift(g, 1, 1, 0)
    # K at levels 0..N-1-max(i,j): (1 + 2) cubes x 2 I-slots x 2 J-slots
    assert S.coefficient_count() == math.prod(blocks_shape(g, 1, 1)) == 12
    g6 = GridSpec(1, 6)
    assert math.prod(blocks_shape(g6, 0, 0)) == 63
    g2 = GridSpec(2, 3)
    S2 = random_shift(g2, 1, 0, 1)
    assert S2.coefficient_count() == math.prod(blocks_shape(g2, 1, 0)) \
        == (1 + 4) * 4 * 3 * 1 * 3
    # a noncancellative shift counts the n_samples - 1 Haar coefficients of its symbol
    for g, count in ((GridSpec(1, 4), 15), (GridSpec(2, 3), 63)):
        for orientation in ("analysis", "synthesis"):
            S = random_shift(g, 0, 0, 0, kind="noncancellative", orientation=orientation)
            assert S.coefficient_count() == g.n_samples - 1 == count, (g, orientation)


def test_depth_error():
    with pytest.raises(DepthError):
        random_shift(GridSpec(1, 2), 2, 0, 0)
    assert max_k_level(GridSpec(1, 4), 1, 2) == 1


def test_coefficient_bound_by_construction():
    g = GridSpec(2, 3)
    S = random_shift(g, 1, 1, 3)
    bound = 2.0 ** (-g.d * 2 / 2.0)
    assert np.max(np.abs(S.blocks)) <= bound + 1e-15


def test_single_coefficient_apply_example():
    # a_KKK = 1 at the root, i=j=0: Sf = <f,h> h, f=[1,3] -> [-1,1]
    g = GridSpec(1, 1)
    S = ShiftOperator(g, 0, 0, "cancellative", blocks=np.ones((1, 1, 1, 1, 1)))
    out = S.apply(DyadicFunction(g, [1.0, 3.0]))
    assert np.allclose(out.samples, [-1.0, 1.0])


def test_apply_matches_dense_oracle(rng):
    for (d, N, i, j) in [(1, 3, 0, 0), (1, 4, 1, 2), (2, 3, 1, 1)]:
        g = GridSpec(d, N)
        S = random_shift(g, i, j, rng)
        M = dense_shift_matrix_oracle(S)
        for _ in range(3):
            f = random_function(g, rng)
            assert np.max(np.abs(S.apply(f).samples - M @ f.samples)) < 1e-12


def test_cancellative_kills_constants(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    const = DyadicFunction(g, np.full(g.n_samples, 2.5))
    assert S.apply(const).norm() < 1e-13
    zero = ShiftOperator(g, 1, 1, "cancellative",
                         blocks=np.zeros_like(S.blocks))
    assert zero.apply(random_function(g, rng)).norm() == 0.0


def test_contraction_property(rng):
    for (d, N, i, j) in [(1, 5, 0, 0), (1, 5, 2, 1), (2, 3, 1, 1), (2, 2, 0, 0)]:
        g = GridSpec(d, N)
        for trial in range(5):
            S = random_shift(g, i, j, int(rng.integers(0, 2 ** 31)))
            for _ in range(5):
                f = random_function(g, rng)
                assert S.apply(f).norm() <= (1 + 1e-12) * f.norm()


def test_adjoint_consistency(rng):
    g = GridSpec(2, 3)
    S = random_shift(g, 1, 0, rng)
    St = S.adjoint()
    for _ in range(5):
        f = random_function(g, rng)
        h = random_function(g, rng)
        assert abs(inner_product(S.apply(f), h)
                   - inner_product(f, St.apply(h))) < 1e-11


def test_noncancellative_shift(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    assert abs(dyadic_bmo_norm(S.symbol) - 1.0) < 1e-10
    M = dense_shift_matrix_oracle(S)
    f = random_function(g, rng)
    assert np.max(np.abs(S.apply(f).samples - M @ f.samples)) < 1e-12
    # zero symbol -> zero operator
    a = DyadicFunction(g, np.zeros(g.n_samples))
    zero = ShiftOperator(g, 0, 0, "noncancellative", symbol=a, orientation="analysis")
    assert zero.apply(f).norm() == 0.0
    # coefficient bound |a_I| <= 1 follows from the BMO normalization
    assert max(np.max(np.abs(a)) for a in symbol_levels(S)) <= 1.0 + 1e-10
    with pytest.raises(WrongKindError):
        random_shift(g, 1, 0, rng, kind="noncancellative")
    with pytest.raises(ValueError):
        ShiftOperator(g, 0, 0, "noncancellative", symbol=S.symbol * 3.0,
                      orientation="analysis")


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-2, -3)])
def test_a_negative_shift_count_is_a_depth_error(i, j):
    # 1 << (d * i) raised "negative shift count"; refuse (i, j) by name
    g = GridSpec(1, 3)
    for build in (lambda: random_shift(g, i, j, 1),
                  lambda: ShiftOperator(g, i, j, "cancellative", blocks=np.zeros(1))):
        with pytest.raises(DepthError, match=rf"\({i},{j}\) must be nonnegative"):
            build()


def test_a_symbol_of_bmo_norm_above_one_is_refused(rng):
    # the constructor checks the BMO bound, so direct construction and a
    # JSON round trip refuse a symbol of BMO norm above one
    g = GridSpec(1, 4)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    with pytest.raises(ValueError, match="symbol BMO norm .* exceeds 1"):
        ShiftOperator(g, 0, 0, "noncancellative", symbol=S.symbol * 3.0,
                      orientation="analysis")
    obj = json.loads(S.to_json())
    obj["symbol"]["samples"] = [3.0 * x for x in obj["symbol"]["samples"]]
    with pytest.raises(ValueError, match="exceeds 1"):
        ShiftOperator.from_json(json.dumps(obj))


@pytest.mark.parametrize("kind", ["noncanc", "Cancellative", ""])
def test_random_shift_refuses_an_unknown_kind(kind):
    # a misspelt kind gave a cancellative shift; refuse it, as ShiftOperator does
    with pytest.raises(WrongKindError, match=f"unknown shift kind {kind}$"):
        random_shift(GridSpec(1, 3), 0, 0, 0, kind=kind)


def test_grid_mismatch():
    S = random_shift(GridSpec(1, 3), 0, 0, 0)
    f = random_function(GridSpec(1, 4), np.random.default_rng(0))
    with pytest.raises(ValueError):
        S.apply(f)
    # a ProductFunction symbol raised AttributeError on its missing grid
    from dyadlab.biparam import ProductGrid, random_product_function
    from dyadlab.grids import GridMismatchError
    a = random_product_function(ProductGrid(S.grid, S.grid), np.random.default_rng(0))
    with pytest.raises(GridMismatchError):
        ShiftOperator(S.grid, 0, 0, "noncancellative", symbol=a, orientation="analysis")


def test_commutator_basics(rng):
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    fconst = DyadicFunction(g, np.ones(g.n_samples))
    # constants commute
    assert multiplication_commutator(fconst * 2.0, S, random_function(g, rng)).norm() < 1e-13
    assert multiplication_commutator(fconst, S, fconst).norm() < 1e-13
    # mean invariance: [M_(b+c), T] = [M_b, T]
    b = random_function(g, rng)
    f = random_function(g, rng)
    lhs = multiplication_commutator(b, S, f)
    rhs = multiplication_commutator(b + fconst * 3.3, S, f)
    assert (lhs - rhs).norm() < 1e-12


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
                               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))], ids=repr)
@pytest.mark.parametrize("kind", [(0, 0), (1, 0), (1, 1), "analysis", "synthesis"], ids=str)
def test_stacked_commutator_is_bit_identical_to_two_applications(g, kind, rng):
    # f and b f share their transforms; each column keeps its lone bits
    from dyadlab.shifts import commutator_stacked
    S = random_shift(g, *kind, rng) if isinstance(kind, tuple) else \
        random_shift(g, 0, 0, rng, kind="noncancellative", orientation=kind)
    b = random_function(g, rng)
    for passive in [(), (1,), (3,), (2, 2)]:
        F = rng.standard_normal((g.n_samples,) + passive)
        bcol = b.samples.reshape(b.samples.shape + (1,) * len(passive))
        want = bcol * S.apply_samples(F) - S.apply_samples(bcol * F)
        assert np.array_equal(commutator_stacked(b, (S,), F), want)


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3),
                               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))], ids=repr)
def test_stacked_commutator_with_trial_symbols_and_shifts_is_per_column(g, rng):
    # one symbol and one shift per column: each column is its lone commutator
    from dyadlab.shifts import commutator_stacked
    kinds = [(0, 0), (1, 0), (0, 1), (1, 1), "analysis", "synthesis"]
    if g.N >= 4:  # a K block of one output entry, d = 1 and j = 0
        kinds += [(2, 0), (3, 0)]
    S = [random_shift(g, *k, rng) if isinstance(k, tuple) else
         random_shift(g, 0, 0, rng, kind="noncancellative", orientation=k) for k in kinds]
    T = len(S)
    B = rng.standard_normal((g.n_samples, T))
    F = rng.standard_normal((g.n_samples, T))
    got = commutator_stacked(B, (S,), F)
    for t in range(T):
        want = multiplication_commutator(DyadicFunction(g, B[:, t]), S[t],
                                         DyadicFunction(g, F[:, t]))
        assert np.array_equal(got[:, t], want.samples)
    # one shift for every column: the bits of its two applications
    assert np.array_equal(commutator_stacked(B, ([S[2]] * T,), F),
                          B * S[2].apply_samples(F) - S[2].apply_samples(B * F))
    # one input shared by every case, with trial columns after the case axis
    F3 = rng.standard_normal((g.n_samples, 1, 3))
    got = commutator_stacked(B, (S,), F3)
    assert np.array_equal(got, commutator_stacked(B, (S,), np.repeat(F3, T, axis=1)))
    for t in range(T):
        want = B[:, t, None] * S[t].apply_samples(F3[:, 0]) \
            - S[t].apply_samples(B[:, t, None] * F3[:, 0])
        assert np.array_equal(got[:, t], want)
    with pytest.raises(ValueError):
        commutator_stacked(B, (S[:-1],), F)
    with pytest.raises(ValueError):
        commutator_stacked(B[:, :-1], (S,), F)
    with pytest.raises(ValueError):
        commutator_stacked(B, (S,), F[:, :2])
    with pytest.raises(ValueError):
        commutator_stacked(B, ([],), F[:, :0])
    with pytest.raises(ValueError):
        commutator_stacked(B, (), F)


def _shift_of(g, kind, v, rng):
    """A random shift of ``kind`` on ``g``: a cancellative one takes its
    (i, j) from the variable ``v``, a noncancellative one the orientation."""
    if kind == "cancellative":
        return random_shift(g, *[(1, 0), (0, 1), (1, 1)][v % 3], rng)
    return random_shift(g, 0, 0, rng, kind="noncancellative", orientation=kind)


THREE_GRIDS = (GridSpec(1, 2), GridSpec(1, 2, omega=((1,), (0,))), GridSpec(1, 2))


def test_three_variable_commutator_is_the_kronecker_oracle(rng):
    # C_v = C_(v-1) K_v - K_v C_(v-1) from C_0 = M_b, with K_v the shift's
    # dense matrix in slot v of a Kronecker product; all 27 mixes of the
    # three kinds on one case axis, two trials per case
    from dyadlab.biparam import ProductFunction, ProductGrid
    from dyadlab.shifts import commutator_stacked
    mixes = list(itertools.product(("cancellative", "analysis", "synthesis"), repeat=3))
    cases = [[_shift_of(g, kind, v, rng) for v, (g, kind) in enumerate(zip(THREE_GRIDS, mix))]
             for mix in mixes]
    shape = tuple(g.n_samples for g in THREE_GRIDS)
    b = rng.standard_normal(shape + (len(cases),))
    F = rng.standard_normal(shape + (len(cases), 2))
    got = commutator_stacked(b, list(zip(*cases)), F)
    for c, (mix, shifts_c) in enumerate(zip(mixes, cases)):
        comm = np.diag(b[..., c].reshape(-1))
        for v, S in enumerate(shifts_c):
            K = np.ones((1, 1))
            for w, g in enumerate(THREE_GRIDS):
                K = np.kron(K, dense_shift_matrix_oracle(S) if w == v else np.eye(g.n_samples))
            comm = comm @ K - K @ comm
        want = comm @ F[..., c, :].reshape(-1, 2)
        err = np.linalg.norm(got[..., c, :].reshape(-1, 2) - want)
        assert err <= 1e-13 * np.linalg.norm(want), mix
    # one function with one shift per variable is a block of one
    pg = ProductGrid(*THREE_GRIDS)
    alone = commutator_stacked(ProductFunction(pg, b[..., 5]), cases[5], F[..., 5, :])
    assert np.array_equal(alone, got[..., 5, :])
    with pytest.raises(ValueError, match="one shift per variable"):
        commutator_stacked(ProductFunction(pg, b[..., 5]), cases[5][:2], F[..., 5, :])


@pytest.mark.parametrize("t", [1, 2, 3])
def test_a_shared_input_is_transformed_once_per_variable(t, rng, monkeypatch):
    # an input with a case axis of length 1 goes to every case: it is
    # transformed once along each variable and gives the bits of the same
    # input repeated on the case axis
    from dyadlab.shifts import commutator_stacked
    grids = (GridSpec(1, 3), GridSpec(2, 2), GridSpec(1, 2, omega=((1,), (0,))))[:t]
    kinds = ["cancellative", "analysis", "synthesis", "cancellative"]
    shifts_v = [[_shift_of(g, kind, v + c, rng) for c, kind in enumerate(kinds)]
                for v, g in enumerate(grids)]
    shape = tuple(g.n_samples for g in grids)
    b = rng.standard_normal(shape + (len(kinds),))
    F = rng.standard_normal(shape + (1, 3))
    calls = []

    def counting(grid, x):
        calls.append((grid, x.size))
        return forward_stacked(grid, x)
    monkeypatch.setattr(shifts, "forward_stacked", counting)
    shared = commutator_stacked(b, shifts_v, F)
    assert all(calls.count((g, F.size)) == 1 for g in grids)
    assert np.array_equal(shared, commutator_stacked(b, shifts_v, np.repeat(F, len(kinds), t)))


@pytest.mark.parametrize("t, N, bound", [(1, 10, 10), (2, 5, 20), (3, 4, 40)])
def test_commutator_releases_each_input_once_transformed(t, N, bound, rng):
    # the b y parts and the concatenated inputs are freed as they are
    # transformed: the peak is about 9, 18 and 36 input stacks at t = 1, 2
    # and 3, against 12, 25 and 51 when each level kept its inputs to the end
    import tracemalloc
    from dyadlab.shifts import commutator_stacked
    grids = [GridSpec(1, N)] * t
    shape, C = tuple(g.n_samples for g in grids), 8 if t < 3 else 4
    b, F = (rng.standard_normal(shape + (C,)) for _ in range(2))
    shifts_v = [[random_shift(g, 1, 1, rng) for _ in range(C)] for g in grids]
    want = commutator_stacked(b, shifts_v, F)  # fills the grid caches
    tracemalloc.start()
    try:
        got = commutator_stacked(b, shifts_v, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= bound * F.nbytes, peak / F.nbytes


def test_commutator_vanishing_region(rng):
    # [h_I, S] h_J = 0 whenever I strictly contains J^(i); checked over all
    # such cancellative pairs at N=4
    g = GridSpec(1, 4)
    for (i, j) in [(1, 1), (2, 1), (0, 2)]:
        S = random_shift(g, i, j, rng)
        checked = 0
        for lj in range(g.N):
            for mj in range(g.n_cubes(lj)):
                J = DyadicCube(lj, g.pos_from_flat(mj, lj))
                if lj < i:
                    continue
                anc = g.ancestor(J, i)
                for li in range(anc.level):
                    I = g.ancestor(anc, anc.level - li)
                    hI = haar_function(g, HaarIndex(I, (0,)))
                    hJ = haar_function(g, HaarIndex(J, (0,)))
                    assert multiplication_commutator(hI, S, hJ).norm() < 1e-12
                    checked += 1
        assert checked > 0


def test_operator_norm_trivial_cases():
    g = GridSpec(1, 4)
    zero = LinearOperatorHandle(g, lambda x: x * 0.0)
    assert operator_norm(zero) == 0.0
    ident = LinearOperatorHandle(g, lambda x: x)
    assert abs(operator_norm(ident) - 1.0) < 1e-12


def test_power_iteration_matches_repeated_squaring(rng):
    # operator_norm, once a power iteration, is now an exact SVD; the
    # repeated-squaring oracle and its bound are unchanged
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 1, rng)
    M = dense_matrix(S, g)
    # repeated-squaring oracle: lambda_max(B) = lim ||B^(2^t)||_F ** (1/2^t)
    B = M.T @ M
    log_lambda = 0.0
    weight = 1.0
    for _ in range(40):
        fro = np.linalg.norm(B)
        B = B / fro
        log_lambda += np.log(fro) * weight
        B = B @ B
        weight /= 2.0
    sigma_oracle = np.exp(0.5 * log_lambda)
    est = operator_norm(S)
    assert abs(est - sigma_oracle) / sigma_oracle < 1e-6


def test_operator_norm_matches_oracle_svd_noncancellative(rng):
    g = GridSpec(1, 5)
    for orientation in ("analysis", "synthesis"):
        S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
        M = dense_shift_matrix_oracle(S)
        assert np.max(np.abs(shifts.dense_matrix(S) - M)) < 1e-12
        exact = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(operator_norm(S) - exact) <= 1e-12 * exact


def test_symbol_transformed_once(rng, monkeypatch):
    g = GridSpec(1, 5)
    S = random_shift(g, 0, 0, rng, kind="noncancellative")
    symbol_transforms = []

    def counting(grid, x):
        if x is S.symbol.samples:
            symbol_transforms.append(1)
        return forward_stacked(grid, x)
    monkeypatch.setattr(shifts, "forward_stacked", counting)
    f = random_function(g, rng)
    outs = [S.apply(f) for _ in range(10)]
    assert len(symbol_transforms) <= 1
    assert np.max(np.abs(outs[-1].samples - dense_shift_matrix_oracle(S) @ f.samples)) < 1e-12
    # the cached coefficients cannot be changed behind the operator's back
    with pytest.raises(ValueError):
        S.stacked_symbol()[1] = 5.0


@pytest.mark.parametrize("g", [GridSpec(1, 4), GridSpec(2, 3)], ids=repr)
@pytest.mark.parametrize("orientation", ["analysis", "synthesis"])
def test_a_noncancellative_shift_applies_its_decompositions_atoms(g, orientation, rng,
                                                                 monkeypatch):
    # a shift builds no B_0 atom: it applies the grid's memoized ones, the
    # objects that its decomposition holds, and a second shift builds none
    from dyadlab import decompose
    from dyadlab.grids import grid_index
    from dyadlab.paraproducts import BkOperator
    built, applied = [], []
    init, bk = BkOperator.__post_init__, shifts.bk_stacked

    def counting(self):
        built.append(self)
        init(self)

    def recording(op, bc, x):
        applied.append(op)
        return bk(op, bc, x)
    monkeypatch.setattr(BkOperator, "__post_init__", counting)
    monkeypatch.setattr(shifts, "bk_stacked", recording)
    grid_index.cache_clear()
    S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
    assert built == []
    half = "b_mul:tail" if orientation == "analysis" else "mul_S:tail"
    want = [t.atoms[0] for t in decompose(random_function(g, rng), S).terms
            if t.provenance == half]
    x = rng.standard_normal((g.n_samples, 3))
    for shift in (S, random_shift(g, 0, 0, rng, kind="noncancellative",
                                  orientation=orientation)):
        built.clear()
        applied.clear()
        shift.apply_stacked(x)
        assert built == [] and len(applied) == len(want) == g.n_sig
        assert all(got is atom for got, atom in zip(applied, want))


@pytest.mark.parametrize("orientation", ["analysis", "synthesis"])
def test_a_noncancellative_apply_owns_its_rows(orientation, rng):
    # analysis returned a view of the first n rows of its extended atom sum,
    # which kept the whole sum alive
    g = GridSpec(2, 3)
    S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
    y = S.apply_stacked(rng.standard_normal((g.n_samples, 4)))
    assert y.shape == (g.n_samples, 4) and y.base is None and y.flags.owndata


def symbol_levels(S):
    """a_I = <a, h_I^sig> |I|**(-1/2) of the symbol of S, from its samples:
    one (n_cubes(level), n_sig) array per level."""
    g = S.grid
    sym = forward_stacked(g, S.symbol.samples)
    return [g.level_block(sym, lvl) * np.sqrt(2.0 ** (lvl * g.d)) for lvl in range(g.N)]


def noncancellative_apply_loop(S, x):
    """Per-level noncancellative shift: analysis reads each level's scaling
    pairings, synthesis folds each level's signature sums."""
    g = S.grid
    out = np.zeros_like(x)
    acoef = [a.reshape(a.shape + (1,) * (x.ndim - 1)) for a in symbol_levels(S)]
    if S.orientation == "analysis":
        scal = scaling_levels(g, x)
        for lvl in range(g.N):
            g.level_block(out, lvl)[...] += acoef[lvl] * scal[lvl][:, None]
    else:
        out += fold_noncancellative(g, np.concatenate(
            [(acoef[lvl] * g.level_block(x, lvl)).sum(axis=1) for lvl in range(g.N)]))
    return out


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
                               GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))], ids=repr)
@pytest.mark.parametrize("orientation", ["analysis", "synthesis"])
def test_noncancellative_extended_layout_matches_the_level_loop(g, orientation, rng):
    S = random_shift(g, 0, 0, rng, kind="noncancellative", orientation=orientation)
    for passive in ((), (3,), (2, 2)):
        x = rng.standard_normal((g.n_samples,) + passive)
        assert np.array_equal(S.apply_stacked(x), noncancellative_apply_loop(S, x))


def test_handle_linearity_probe(rng):
    g = GridSpec(1, 4)
    S = LinearOperatorHandle(g, random_shift(g, 0, 1, rng).apply_samples)
    f = random_function(g, rng).samples
    h = random_function(g, rng).samples
    lhs = S.apply_samples(2.0 * f + h)
    rhs = S.apply_samples(f) * 2.0 + S.apply_samples(h)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(lhs), 1.0)


@pytest.mark.parametrize("g", [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
                               GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))], ids=repr)
def test_cancellative_apply_matches_the_level_loop(g, rng):
    # one gather over the cube axis, bit for bit the per-K-level contraction
    for i in range(g.N):
        for j in range(g.N):
            S = random_shift(g, i, j, rng)
            for passive in ((), (3,), (2, 2)):
                x = rng.standard_normal((g.n_samples,) + passive)
                if passive:
                    want = shift_apply_oracle(S, x)
                else:  # the per-level einsum sums a lone column in another order
                    want = shift_apply_oracle(S, np.stack([x, x], axis=1))[:, 0]
                assert np.array_equal(S.apply_stacked(x), want)


@pytest.mark.parametrize("g", [GridSpec(1, 4), GridSpec(2, 4), GridSpec(3, 3),
                               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,))),
                               GridSpec(2, 3, omega=((1, 0), (0, 1), (1, 1)))], ids=repr)
def test_apply_stacked_gives_a_column_its_bits_alone(g, rng):
    # every (i, j) <= 3 and both noncancellative orientations: a column
    # has the same bits in a stack of any width as alone
    shifts = [random_shift(g, i, j, rng) for i in range(4) for j in range(4)
              if max(i, j) <= g.N - 1]
    shifts += [random_shift(g, 0, 0, rng, kind="noncancellative", orientation=o)
               for o in ("analysis", "synthesis")]
    for S in shifts:
        assert_columns_alone(S.apply_stacked,
                             lambda T: (rng.standard_normal((g.n_samples, T)),))
        assert_columns_alone(S.apply_stacked,
                             lambda T: (rng.standard_normal((g.n_samples, 2, T)),))


def test_shift_equality_and_hash(rng):
    g = GridSpec(2, 3)
    S = random_shift(g, 1, 0, 4)
    same = random_shift(g, 1, 0, 4)
    assert S == S.adjoint().adjoint() == same and S is not same
    assert hash(S) == hash(same) and len({S, same, S.adjoint().adjoint()}) == 1
    assert S != S.adjoint() and S != random_shift(g, 1, 0, 5)
    assert S != random_shift(GridSpec(2, 3, omega=((1, 0), (0, 0), (0, 0))), 1, 0, 4)
    # equal blocks give an equal shift; one changed coefficient does not
    assert S == ShiftOperator(g, 1, 0, "cancellative", blocks=S.blocks.copy())
    changed = S.blocks.copy()
    changed[2, 1, 0, 0, 2] += 1e-3
    assert S != ShiftOperator(g, 1, 0, "cancellative", blocks=changed)
    N = random_shift(g, 0, 0, 6, kind="noncancellative")
    assert N == N.adjoint().adjoint() and hash(N) == hash(N.adjoint().adjoint())
    assert N != N.adjoint() and N != random_shift(g, 0, 0, 7, kind="noncancellative")
    assert N != random_shift(g, 0, 0, 6) and S != "S"


def test_shift_blocks_shape_is_checked():
    g = GridSpec(1, 4)
    S = random_shift(g, 1, 2, 0)
    assert S.blocks.shape == (3, 2, 1, 4, 1)
    for bad in (S.blocks[:2], S.blocks.transpose(0, 3, 4, 1, 2),
                tuple(S.blocks[g.cube_range(k)] for k in range(2)), None):
        with pytest.raises(ValueError, match=r"shape \(3, 2, 1, 4, 1\), got"):
            ShiftOperator(g, 1, 2, "cancellative", blocks=bad)
    with pytest.raises(DepthError):
        ShiftOperator(g, 0, 4, "cancellative", blocks=np.zeros((1, 1, 1, 16, 1)))
