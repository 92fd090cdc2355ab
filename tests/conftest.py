import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, HaarIndex, haar_function, inner_product,
                     random_function)
from dyadlab.grids import grid_index
from dyadlab.shifts import max_k_level


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_columns_alone(kernel, draw, widths=(1, 2, 5)):
    """Check a stacked kernel column by column: on stacks of 1, 2 and 5 trial
    columns, column t of ``kernel(*draw(T))`` is ``np.array_equal`` to
    ``kernel`` run on the t-th columns of its arguments alone. ``draw(T)``
    returns the kernel's array arguments, each with the trial axis last."""
    for T in widths:
        args = draw(T)
        got = kernel(*args)
        assert got.shape[-1] == T
        for t in range(T):
            alone = kernel(*(np.array(a[..., t]) for a in args))
            assert np.array_equal(got[..., t], alone), (T, t)


def beta_level(op, level: int):
    """Beta values of the B atom ``op`` for all cubes at ``level`` (array or
    scalar 1.0)."""
    return 1.0 if op.beta is None else op.beta[op.grid.cube_range(level)]


def all_cubes(grid):
    for lvl in range(grid.N):
        for flat in range(grid.n_cubes(lvl)):
            yield DyadicCube(lvl, grid.pos_from_flat(flat, lvl))


def all_cancellative_indices(grid):
    for cube in all_cubes(grid):
        for e in range(grid.n_sig):
            yield HaarIndex(cube, grid.int_sig(e))


def dense_matrix(op, grid):
    """Sample-space matrix of any operator with .apply, column by column."""
    n = grid.n_samples
    cols = []
    apply_ = op.apply if hasattr(op, "apply") else op
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(apply_(DyadicFunction(grid, e)).samples)
    return np.column_stack(cols)


def shift_levels(S):
    """(kappa, block, gi, gj) per K-level of a cancellative shift: the level's
    slice of the blocks and its flat I- and J-descendants (``desc_groups``)."""
    g, idx = S.grid, grid_index(S.grid)
    for kappa in range(max_k_level(g, S.i, S.j) + 1):
        yield (kappa, S.blocks[g.cube_range(kappa)],
               idx.desc_groups(kappa, S.i), idx.desc_groups(kappa, S.j))


def shift_apply_oracle(S, x):
    """Reference cancellative apply: one gather, contraction and scatter-add
    per K-level, in level order."""
    g = S.grid
    out = np.zeros_like(x)
    for kappa, block, gi, gj in shift_levels(S):
        res = np.einsum("kabcd,kab...->kcd...", block, g.level_block(x, kappa + S.i)[gi])
        g.level_block(out, kappa + S.j)[gj] += res
    return out


def dense_shift_matrix_oracle(S):
    """Literal triple sum over stored coefficients with sampled Haar functions.

    Independent of the coefficient-space fast path: every entry contributes
    a_IJK <., h_I> h_J via explicit quadrature outer products.
    """
    g = S.grid
    n = g.n_samples
    M = np.zeros((n, n))
    if S.cancellative:
        for kappa, block, gi, gj in shift_levels(S):
            nz = np.argwhere(block != 0.0)
            for (kk, a_slot, asig, b_slot, bsig) in nz:
                a = block[kk, a_slot, asig, b_slot, bsig]
                hI = haar_function(g, HaarIndex(
                    DyadicCube(kappa + S.i, g.pos_from_flat(int(gi[kk, a_slot]),
                                                            kappa + S.i)),
                    g.int_sig(int(asig))))
                hJ = haar_function(g, HaarIndex(
                    DyadicCube(kappa + S.j, g.pos_from_flat(int(gj[kk, b_slot]),
                                                            kappa + S.j)),
                    g.int_sig(int(bsig))))
                M += a * np.outer(hJ.samples, hI.samples) * g.cell_volume
    else:
        non = (1,) * g.d
        for lvl in range(g.N):
            for m in range(g.n_cubes(lvl)):
                cube = DyadicCube(lvl, g.pos_from_flat(m, lvl))
                h1 = haar_function(g, HaarIndex(cube, non))
                for e in range(g.n_sig):
                    h = haar_function(g, HaarIndex(cube, g.int_sig(e)))
                    # a_I = <a, h_I> |I|**(-1/2), by quadrature
                    a = inner_product(S.symbol, h) * 2.0 ** (lvl * g.d / 2.0)
                    if S.orientation == "analysis":
                        M += a * np.outer(h.samples, h1.samples) * g.cell_volume
                    else:
                        M += a * np.outer(h1.samples, h.samples) * g.cell_volume
    return M


# ---------------------------------------------------------------------------
# Reference Haar pyramid: np.take/np.stack butterflies on a (n, 2)-per-axis
# view, the same floating-point steps as the library's fused pyramid.

_C = 1.0 / np.sqrt(2.0)


def _butterfly_split(s, d, n, passive):
    """(2n,)*d scaling block -> (n**d, 2**d) mixed block; column e encodes
    diff(0)/avg(1) per axis, axis 0 most significant."""
    t = s.reshape(sum(((n, 2) for _ in range(d)), ()) + passive)
    for a in range(d):
        ax = 2 * a + 1
        lo = np.take(t, 0, axis=ax)
        hi = np.take(t, 1, axis=ax)
        t = np.stack(((lo - hi) * _C, (lo + hi) * _C), axis=ax)
    perm = ([2 * a for a in range(d)] + [2 * a + 1 for a in range(d)]
            + list(range(2 * d, t.ndim)))
    return t.transpose(perm).reshape((n ** d, 1 << d) + passive)


def _butterfly_merge(t, d, n, passive):
    """Inverse of :func:`_butterfly_split`."""
    t = t.reshape((n,) * d + (2,) * d + passive)
    perm = []
    for a in range(d):
        perm += [a, d + a]
    perm += list(range(2 * d, t.ndim))
    t = t.transpose(perm)
    for a in range(d):
        ax = 2 * a + 1
        diff = np.take(t, 0, axis=ax)
        avg = np.take(t, 1, axis=ax)
        t = np.stack(((diff + avg) * _C, (avg - diff) * _C), axis=ax)
    return t.reshape((2 * n,) * d + passive)


def forward_oracle(grid, samples):
    d, N = grid.d, grid.N
    passive = samples.shape[1:]
    s = samples.reshape((grid.n_side,) * d + passive).astype(float)
    s = s * 2.0 ** (-N * d / 2.0)
    if any(grid.shift):
        s = np.roll(s, [-x for x in grid.shift], axis=tuple(range(d)))
    out = np.zeros(samples.shape, dtype=float)
    for lvl in range(N - 1, -1, -1):
        n = 1 << lvl
        t = _butterfly_split(s, d, n, passive)
        off0 = grid.level_offset(lvl)
        cnt = grid.n_cubes(lvl) * grid.n_sig
        out[off0:off0 + cnt] = t[:, :grid.n_sig].reshape((cnt,) + passive)
        s = t[:, -1].reshape((n,) * d + passive)
    out[0] = s.reshape(passive)
    return out


def _merged_levels(grid, stacked, top):
    """Scaling values of levels 0..top, each (n, ..., n, *passive)."""
    d = grid.d
    passive = stacked.shape[1:]
    s = stacked[0].reshape((1,) * d + passive)
    levels = [s]
    for lvl in range(top):
        n = 1 << lvl
        blk = grid.level_block(stacked, lvl)
        t = np.concatenate([blk, s.reshape((n ** d, 1) + passive)], axis=1)
        s = _butterfly_merge(t, d, n, passive)
        levels.append(s)
    return levels


def inverse_oracle(grid, stacked):
    passive = stacked.shape[1:]
    s = _merged_levels(grid, stacked, grid.N)[-1]
    if any(grid.shift):
        s = np.roll(s, grid.shift, axis=tuple(range(grid.d)))
    return s.reshape((grid.n_samples,) + passive) * 2.0 ** (grid.N * grid.d / 2.0)


def scaling_levels_oracle(grid, stacked):
    passive = stacked.shape[1:]
    return [s.reshape((grid.n_cubes(lvl),) + passive)
            for lvl, s in enumerate(_merged_levels(grid, stacked, grid.N - 1))]


def sig_rows(grid, level, sig_int):
    """Extended-layout rows of one signature's coefficients at ``level`` (the
    noncancellative signature's lie in the tail)."""
    cubes = np.arange(grid.n_cubes_total)[grid.cube_range(level)]
    if sig_int == grid.noncanc_int:
        return grid.n_samples + cubes
    return 1 + cubes * grid.n_sig + sig_int


def strictly_inside(grid, inner, outer):
    if inner.level <= outer.level:
        return False
    return grid.ancestor(inner, inner.level - outer.level) == outer


# ---------------------------------------------------------------------------
# Reference bi-parameter B kernels: the level-by-level loops, one gather per
# level (pair) of each B atom, rows rebuilt from sig_rows/ancestor_flat.


def _b_rows_oracle(g, a, lvl):
    """Rows of <b, h_(I^(k))> for the cubes I at ``lvl``."""
    return sig_rows(g, lvl - a.k, a.sb)[grid_index(g).ancestor_flat(lvl, a.k)]


def bb_pair_oracle(pg, bC, Xe, a1, a2, out, weight):
    """B x B into ``out``: one pass per level pair (l1, l2); ``bC`` carries
    the trailing unit axes of ``Xe``."""
    g1, g2 = pg.grids
    pad = (1,) * (Xe.ndim - 2)
    for l1 in range(a1.k, g1.N):
        c1 = beta_level(a1, l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        for l2 in range(a2.k, g2.N):
            c2 = beta_level(a2, l2) * 2.0 ** ((l2 - a2.k) * g2.d / 2.0)
            c2 = np.reshape(c2, np.shape(c2) + pad)
            Bg = bC[np.ix_(_b_rows_oracle(g1, a1, l1), _b_rows_oracle(g2, a2, l2))]
            Xin = Xe[np.ix_(sig_rows(g1, l1, a1.si), sig_rows(g2, l2, a2.si))]
            rows = np.ix_(sig_rows(g1, l1, a1.so), sig_rows(g2, l2, a2.so))
            out[rows] += (c1 * (Bg * Xin).T).T * c2


def bp_pair_oracle(pg, bC, Xe, a1, p2, sym2, out, weight):
    """B x P into ``out``: one strict-subcube scan per level of the B atom;
    ``bC`` and ``sym2`` carry the trailing unit axes of ``Xe``."""
    from dyadlab.paraproducts import strict_ancestor_sum, strict_subtree_sum
    g1, g2 = pg.grids
    n2 = g2.n_samples
    for l1 in range(a1.k, g1.N):
        Bg = bC[_b_rows_oracle(g1, a1, l1), :]
        c1 = beta_level(a1, l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        Xin = Xe[sig_rows(g1, l1, a1.si), :n2]
        if not p2.adjoint:
            C = np.swapaxes(strict_ancestor_sum(g2, np.swapaxes(Bg * Xin, 0, 1)), 0, 1) \
                * sym2[None, :]
        else:
            C = Bg * np.swapaxes(
                strict_subtree_sum(g2, np.swapaxes(Xin * sym2[None, :], 0, 1)), 0, 1)
        out[sig_rows(g1, l1, a1.so), :n2] += (C.T * c1).T


# ---------------------------------------------------------------------------
# Reference tree scans: the per-level list form, ``values[l]`` of shape
# (n_cubes(l), *passive), with the library's additions in the same order.


def ancestor_scan_oracle(grid, values):
    """Per level, each cube's sum of ``values`` over its strict ancestors."""
    idx = grid_index(grid)
    out = [np.zeros_like(values[0])]
    for lvl in range(1, len(values)):
        out.append((out[-1] + values[lvl - 1])[idx.ancestor_flat(lvl, 1)])
    return out


def subtree_scan_oracle(grid, values):
    """Per level, each cube's sum of ``values`` over its strict descendants;
    each column of a stack is summed on its own, as a single column."""
    idx = grid_index(grid)
    out = [np.zeros_like(values[-1])]
    for lvl in range(len(values) - 2, -1, -1):
        below = (out[-1] + values[lvl + 1])[idx.desc_groups(lvl, 1)]
        sums = np.empty(below.shape[:1] + below.shape[2:])
        for col in np.ndindex(below.shape[2:]):
            column = np.ascontiguousarray(below[(slice(None), slice(None)) + col])
            sums[(slice(None),) + col] = column.sum(axis=1)
        out.append(sums)
    return out[::-1]


# ---------------------------------------------------------------------------
# Reference Monte Carlo average: one builder call and one Welford update per
# sample, in draw order.


def grid_indices(base, samples, rng_seed):
    """The grid index that each Monte Carlo sample draws, in sample order."""
    return np.random.default_rng(rng_seed).integers(0, base.n_samples, size=samples)


def offsets_of_index(base, index):
    """The offsets of grid ``index``: offset a of level j is its bit
    (j - 1) * d + a."""
    bits = iter(format(int(index), f"0{base.N * base.d}b")[::-1])
    return tuple(tuple(int(next(bits)) for _ in range(base.d)) for _ in range(base.N))


def grid_of_index(base, index):
    """Grid ``index`` of ``base``: the base grid shifted by its offsets."""
    from dyadlab import GridSpec
    return GridSpec(base.d, base.N, offsets_of_index(base, index))


def welford_average_oracle(builder, fns, samples, rng_seed):
    """Per-sample Welford mean and standard error of fn(M) for every fn in
    ``fns``, M the matrix of builder(grid) on each sample's grid; returns
    what ``montecarlo._average_stats`` returns."""
    from dyadlab import LinearOperatorHandle
    base = builder.grid
    mean = [None] * len(fns)
    msq = [None] * len(fns)
    indices = grid_indices(base, samples, rng_seed).tolist()
    for used, index in enumerate(indices, start=1):
        handle = builder(grid_of_index(base, index))
        M = handle.matrix() if isinstance(handle, LinearOperatorHandle) \
            else np.asarray(handle, dtype=float)
        for n, fn in enumerate(fns):
            X = fn(M)
            if mean[n] is None:
                mean[n] = np.zeros_like(X)
                msq[n] = np.zeros_like(X)
            delta = X - mean[n]
            mean[n] += delta / used
            msq[n] += delta * (X - mean[n])
    out = [(m, np.sqrt(q / (used - 1) / used) if used > 1 else np.zeros_like(m))
           for m, q in zip(mean, msq)]
    return out, {"samples": samples, "used": used, "seed": rng_seed}, len(set(indices))


# ---------------------------------------------------------------------------
# Reference norm study: one trial at a time through the public operators,
# with the draws of each trial in the library's order.


def random_signs_oracle(grid, rng):
    """Betas along the cube axis, each +1 or -1 (+1 with probability about 0.69)."""
    return np.sign(rng.standard_normal(grid.n_cubes_total) + 0.5)


def uniformity_study_oracle(kind, space, trials, rng_seed, kmax=None, lmax=None):
    """Per-trial reference of :func:`dyadlab.norms.uniformity_study`: trial t
    draws its functions (and betas) from ``_trial_rng(rng_seed, t)``, and
    every (k, l) is measured on them with the public operators."""
    from dyadlab import (BkOperator, NormReport, apply_Bk, apply_P, apply_biparam,
                         dyadic_bmo_norm, random_function, random_product_function,
                         rect_bmo_norm, square_function)
    from dyadlab.biparam import PAtom
    from dyadlab.norms import _trial_rng

    def top(value, g):
        return g.N - 1 if value is None else min(value, g.N - 1)

    grid = pgrid = space
    if kind in ("Bk", "Sk", "P"):
        kmax = top(kmax, grid)
        combos = [(None, None)] if kind == "P" else [(k, None) for k in range(kmax + 1)]
    else:
        kmax, lmax = top(kmax, pgrid.grids[0]), top(lmax, pgrid.grids[1])
        ks = range(kmax + 1) if kind in ("Bkl", "BPk") else [None]
        ls = range(lmax + 1) if kind in ("Bkl", "PBl") else [None]
        combos = [(k, l) for k in ks for l in ls]

    def unit(a):
        return a * (1.0 / dyadic_bmo_norm(a))

    def measure(rng):
        """(denominator, (k, l) -> ||op f||) of the trial drawn from ``rng``."""
        if kind == "Sk":
            f = random_function(grid, rng)
            return f.norm(), lambda k, l: square_function(f, "S_k", k=k).norm()
        if kind == "P":
            b, f, a = (random_function(grid, rng) for _ in range(3))
            return (dyadic_bmo_norm(b) * f.norm(),
                    lambda k, l: apply_P(b, unit(a), f).norm())
        if kind == "Bk":
            b, f = random_function(grid, rng), random_function(grid, rng)
            beta = random_signs_oracle(grid, rng)
            return (dyadic_bmo_norm(b) * f.norm(),
                    lambda k, l: apply_Bk(BkOperator(grid, k, beta=beta), b, f).norm())
        b = random_product_function(pgrid, rng)
        f = random_product_function(pgrid, rng)
        g1, g2 = pgrid.grids
        beta1 = beta2 = syms = None
        if kind == "Bkl":
            beta1, beta2 = random_signs_oracle(g1, rng), random_signs_oracle(g2, rng)
        elif kind == "BPk":
            syms = [None, unit(random_function(g2, rng))]
        elif kind == "PBl":
            syms = [unit(random_function(g1, rng)), None]
        else:
            syms = [unit(random_function(g1, rng)), unit(random_function(g2, rng))]

        def pair(k, l):
            atoms = (PAtom(kind == "PP1") if k is None else BkOperator(g1, k, beta=beta1),
                     PAtom() if l is None else BkOperator(g2, l, beta=beta2))
            return apply_biparam(atoms, b, f, syms).norm()
        return rect_bmo_norm(b) * f.norm(), pair

    best = dict.fromkeys(combos, 0.0)
    for t in range(trials):
        denom, out_norm = measure(_trial_rng(rng_seed, t))
        if denom > 0:
            for k, l in combos:
                best[(k, l)] = max(best[(k, l)], out_norm(k, l) / denom)
    return [NormReport(kind=kind, k=k, l=l, trials=trials, max_ratio=best[(k, l)],
                       seed=rng_seed) for (k, l) in combos]


# ---------------------------------------------------------------------------
# Reference one-symbol P kernels: the fixed arrays get unit axes for every
# trailing axis of the input, so one symbol serves all columns.


def _trailing_oracle(v, x):
    return v.reshape(v.shape + (1,) * (x.ndim - v.ndim))


def _lift_oracle(a, lead, X):
    return None if a is None else a.reshape(a.shape[:lead] + (1,) * (X.ndim - 2))


def p_stacked_oracle(grid, bc, avec, x):
    """P(b, a, .) in coefficient space for one symbol pair (bc, avec) (n,)."""
    from dyadlab.paraproducts import strict_ancestor_sum
    return _trailing_oracle(avec, x) * strict_ancestor_sum(grid, _trailing_oracle(bc, x) * x)


def pstar_stacked_oracle(grid, bc, avec, x):
    """Adjoint of :func:`p_stacked_oracle` in the f slot."""
    from dyadlab.paraproducts import strict_subtree_sum
    return _trailing_oracle(bc, x) * strict_subtree_sum(grid, _trailing_oracle(avec, x) * x)


def _pp1_oracle(pg, bC, X, sym12):
    from dyadlab.paraproducts import strict_ancestor_sum
    g1, g2 = pg.grids
    i1 = grid_index(g1)
    out = np.zeros(X.shape)
    for lj in range(1, g1.N):
        Xj = np.moveaxis(g1.level_block(X, lj), 2, 0)
        aj = np.moveaxis(g1.level_block(sym12, lj), 2, 0)
        for li in range(lj):
            Bi = np.moveaxis(g1.level_block(bC, li)[i1.ancestor_flat(lj, lj - li)], 2, 0)
            Z = strict_ancestor_sum(g2, Bi[:, :, :, None] * Xj[:, :, None, :])
            R = np.moveaxis((Z * aj[:, :, None, :]).sum(axis=3), 0, 2)
            up = R[i1.desc_groups(li, lj - li)].sum(axis=1)
            g1.level_block(out, li)[...] += 2.0 ** (li * g1.d) * up
    return out


def pair_apply_oracle(pg, bC, Xe, atoms, syms=(None, None)):
    """Contracted B x P, P x B or P x P pair for one symbol per variable:
    ``bC`` (n1, n2), ``syms`` ((n1,) or None, (n2,) or None), against every
    trailing column of ``Xe``. Two P atoms of one orientation take the outer
    product of the symbols; mixed orientations take each symbol on its own
    side."""
    from dyadlab.biparam import PAtom
    from dyadlab.haar import contract_space
    from dyadlab.paraproducts import bk_gather, strict_ancestor_sum, strict_subtree_sum
    sw = lambda a: a.swapaxes(0, 1)  # noqa: E731
    (atom1, atom2), (sym1, sym2) = atoms, syms
    bC = _lift_oracle(bC, 2, Xe)
    sym1, sym2 = _lift_oracle(sym1, 1, Xe), _lift_oracle(sym2, 1, Xe)
    out = np.zeros(Xe.shape)

    def bp(pg, bC, Xe, a1, p2, sym2, out):
        n2 = pg.grids[1].n_samples
        rin, rout, brows, beta, scale = bk_gather(a1)
        p = pstar_stacked_oracle if p2.adjoint else p_stacked_oracle
        C = sw(p(pg.grids[1], sw(bC[brows]), sym2, sw(Xe[rin, :n2])))
        out[rout, :n2] += (C.T * (scale if beta is None else beta * scale)).T

    if isinstance(atom1, PAtom) and isinstance(atom2, PAtom):
        n1, n2 = pg.shape
        X = Xe[:n1, :n2]
        g1, g2 = pg.grids
        s1, s2 = sym1[:, None], sym2[None, :]
        if not atom1.adjoint and not atom2.adjoint:
            res = (s1 * s2) * sw(strict_ancestor_sum(g2, sw(strict_ancestor_sum(g1, bC * X))))
        elif atom1.adjoint and atom2.adjoint:
            res = bC * sw(strict_subtree_sum(g2, sw(strict_subtree_sum(g1, (s1 * s2) * X))))
        elif atom1.adjoint:
            res = s2 * sw(strict_ancestor_sum(g2, sw(bC * strict_subtree_sum(g1, s1 * X))))
        else:
            res = s1 * strict_ancestor_sum(g1, bC * sw(strict_subtree_sum(g2, sw(s2 * X))))
        out[:n1, :n2] += 1.0 * res
    elif isinstance(atom1, PAtom):
        bp(pg.swap(), sw(bC), sw(Xe), atom2, atom1, sym1, sw(out))
    else:
        bp(pg, bC, Xe, atom1, atom2, sym2, out)
    return contract_space(pg, out)


def evaluate_stacked_oracle(tl, x):
    """``decomposition.evaluate_stacked`` one key at a time: each of the 2^t
    inner-shift compositions extended on its own, each outer group
    contracted on its own, and the symbol of a noncancellative shift
    transformed again."""
    import itertools
    from functools import partial

    from dyadlab.biparam import PAtom, _along, pair_apply
    from dyadlab.haar import contract, extend
    from dyadlab.paraproducts import bk_stacked, p_stacked, pstar_stacked, symbol_stacked

    t, shifts = tl.arity, tl.shifts
    grids = (tl.b.grid,) if t == 1 else tl.b.pgrid.grids
    syms = [None if S.cancellative else symbol_stacked(S.symbol) for S in shifts]
    shifted = {(): x}
    for v in reversed(range(t)):
        shifted = {key: y for k, y in shifted.items() for key, y in (
            ((False,) + k, y), ((True,) + k, _along(v, shifts[v].apply_stacked, y)))}
    inputs = {}
    for key, y in shifted.items():
        for v, g in enumerate(grids):
            y = _along(v, partial(extend, g), y)
        inputs[key] = y
    keys = list(itertools.product((False, True), repeat=t))
    groups = {key: np.zeros(inputs[key].shape) for key in keys}
    for term in tl.terms:
        xin = inputs[term.inner]
        acc = groups[term.outer]
        if t >= 2:
            pair_apply(tl.b.pgrid, tl._bc, xin, term.atoms, syms, out=acc, weight=term.weight)
        elif isinstance(term.atoms[0], PAtom):
            n = grids[0].n_samples
            p = pstar_stacked if term.atoms[0].adjoint else p_stacked
            acc[:n] += term.weight * p(grids[0], tl._bc, syms[0], xin[:n])
        else:
            acc += term.weight * bk_stacked(term.atoms[0], tl._bc, xin)
    total = np.zeros(x.shape)
    for key in keys:
        y = groups[key]
        for v in reversed(range(t)):
            y = _along(v, partial(contract, grids[v]), y)
        for v in range(t):
            if key[v]:
                y = _along(v, shifts[v].apply_stacked, y)
        total += y
    return total


# ---------------------------------------------------------------------------
# Reference commutators and bound study: one shift application per
# composition, one trial at a time.


def iterated_commutator_oracle(b, S1, S2, samples):
    """[[M_b, S1], S2] on samples (n1, n2, *passive) as the four signed
    compositions, each shift application its own transform in and out."""
    from dyadlab.biparam import _apply_var
    bs = b.samples.reshape(b.pgrid.shape + (1,) * (samples.ndim - 2))

    def bracket1(x):
        return bs * _apply_var(S1, 1, x) - _apply_var(S1, 1, bs * x)

    return bracket1(_apply_var(S2, 2, samples)) - _apply_var(S2, 2, bracket1(samples))


def commutator_bound_study_oracle(delta, i_max, j_max, trials, rng_seed, grid):
    """Per-trial reference of :func:`dyadlab.montecarlo.commutator_bound_study`:
    trial (i, j, t) draws b, f and its shift from its own seed stream and
    runs one single-column commutator; a b of BMO norm 0 is skipped before
    f is drawn."""
    from dyadlab import NormReport, dyadic_bmo_norm, multiplication_commutator
    from dyadlab.norms import geometric_constant
    from dyadlab.shifts import random_shift
    reports = []
    weighted_total = 0.0
    max_ratio = 0.0
    for i in range(i_max + 1):
        for j in range(j_max + 1):
            if max_k_level(grid, i, j) < 0:
                continue
            best = 0.0
            for t in range(trials):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=rng_seed, spawn_key=(i, j, t)))
                b = random_function(grid, rng)
                nb = dyadic_bmo_norm(b)
                if nb == 0.0:
                    continue
                b = b * (1.0 / nb)
                f = random_function(grid, rng)
                f = f * (1.0 / f.norm())
                S = random_shift(grid, i, j, rng)
                best = max(best, multiplication_commutator(b, S, f).norm())
            ratio = best / (1 + max(i, j))
            max_ratio = max(max_ratio, ratio)
            weighted_total += 2.0 ** (-max(i, j) * delta / 2.0) * best
            reports.append(NormReport(kind="commutator", i=i, j=j, trials=trials,
                                      max_ratio=ratio, seed=rng_seed,
                                      extra={"sup_norm": best}))
    cap = max(i_max, j_max)
    geo = geometric_constant(delta, cap)
    return {"reports": reports, "weighted_total": weighted_total,
            "max_ratio": max_ratio, "geometric_constant": geo,
            "delta": delta, "bound_ok": bool(weighted_total <= geo * max_ratio + 1e-12),
            "grid": {"d": grid.d, "N": grid.N}, "trials": trials, "seed": rng_seed}


# Reference identity check, jn study and column norms: one case, one trial
# or one column at a time.


def column_norms_oracle(x, cell_volume):
    """L2 norm of every trial column (last axis) of ``x``, one column at a
    time, each summed from a contiguous copy."""
    return np.array([np.sqrt(np.sum(np.ascontiguousarray(x[..., t]) ** 2) * cell_volume)
                     for t in range(x.shape[-1])])


def verify_identity_oracle(b, shifts, trials, rng_seed, tol=1e-9):
    """One-case reference of :func:`dyadlab.decomposition.verify_identity`:
    the case draws and norms its own f stack, transforms its own b, sums
    its terms through :func:`evaluate_stacked_oracle` (one key at a time),
    and runs its own stacked direct commutator."""
    from dyadlab.decomposition import _trial_samples, decompose
    from dyadlab.haar import forward_space, forward_stacked, inverse_space, inverse_stacked
    from dyadlab.norms import _bmo_stacked
    from dyadlab.shifts import ShiftOperator, commutator_stacked
    if isinstance(shifts, ShiftOperator):
        shifts = (shifts,)
    if len(shifts) == 1:
        tl, g = decompose(b, shifts[0]), b.grid
        grids, shape, volume = (g,), (g.n_samples,), g.cell_volume
        scale = float(_bmo_stacked(g, tl._bc))
        F = _trial_samples(shape, rng_seed, trials)
        direct = commutator_stacked(b, shifts, F)
        approx = inverse_stacked(g, evaluate_stacked_oracle(tl, forward_stacked(g, F)))
    else:
        tl, pg, volume = decompose(b, *shifts), b.pgrid, b.cell_volume
        grids, shape = pg.grids, pg.shape
        scale = float(_bmo_stacked(pg, tl._bc))
        F = _trial_samples(shape, rng_seed, trials)
        direct = commutator_stacked(b, shifts, F)
        approx = inverse_space(pg, evaluate_stacked_oracle(tl, forward_space(pg, F)))
    max_res = 0.0
    for res, f_norm in zip(column_norms_oracle(direct - approx, volume),
                           column_norms_oracle(F, volume)):
        denom = scale * f_norm
        max_res = max(max_res, float(res / denom if denom > 0 else res))
    per_var = (lambda vals: vals[0]) if len(shifts) == 1 else list
    return {"case": tl.case, "d": per_var([g.d for g in grids]),
            "N": per_var([g.N for g in grids]), "i": per_var([S.i for S in shifts]),
            "j": per_var([S.j for S in shifts]), "term_count": tl.term_count,
            "max_residual": max_res, "pass": bool(max_res < tol), "seed": rng_seed,
            "trials": trials}


def jn_study_oracle(grid, ps, trials, rng_seed):
    """Per-trial reference of :func:`dyadlab.norms.jn_study`: trial t draws
    a, a level and a cube from its own stream, and its ratio at every p is
    ``jn_check(a, cube, p)``."""
    from dyadlab.norms import _trial_rng, jn_check
    worst = {}
    for t in range(trials):
        rng = _trial_rng(rng_seed, t)
        a = random_function(grid, rng)
        lvl = int(rng.integers(0, grid.N))
        cube = DyadicCube(lvl, grid.pos_from_flat(int(rng.integers(0, grid.n_cubes(lvl))), lvl))
        for p in ps:
            worst[p] = max(worst.get(p, 0.0), jn_check(a, cube, p))
    return worst


def localized_square_oracle(a, cubes):
    """Samples of the square function of ``a`` localized to the region
    ``cubes`` (one cube per variable): (sum_R <a, h_R>**2 chi_R / |R|)**(1/2)
    over the Haar functions h_R, tensors of one per variable, whose cube or
    rectangle R lies in the region, one h_R at a time; chi_R / |R| = h_R**2."""
    import itertools
    from functools import reduce
    per_var = [[haar_function(g, idx).samples for idx in all_cancellative_indices(g)
                if idx.cube.level >= cube.level
                and g.ancestor(idx.cube, idx.cube.level - cube.level) == cube]
               for g, cube in zip(a.space.grids, cubes, strict=True)]
    total = np.zeros(a.samples.shape)
    for hs in itertools.product(*per_var):
        h = reduce(np.multiply.outer, hs)
        total += (np.sum(a.samples * h) * a.cell_volume * h) ** 2
    return np.sqrt(total)
