import numpy as np
import pytest

from dyadlab import (DyadicCube, DyadicFunction, HaarIndex, haar_function)
from dyadlab.grids import grid_index


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


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


def dense_shift_matrix_oracle(S):
    """Literal triple sum over stored coefficients with sampled Haar functions.

    Independent of the coefficient-space fast path: every entry contributes
    a_IJK <., h_I> h_J via explicit quadrature outer products.
    """
    g = S.grid
    idx = grid_index(g)
    n = g.n_samples
    M = np.zeros((n, n))
    if S.cancellative:
        for kappa, block in enumerate(S.blocks):
            gi = idx.desc_groups(kappa, S.i)
            gj = idx.desc_groups(kappa, S.j)
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
        acoef = S.symbol_coefficients()
        non = (1,) * g.d
        for lvl in range(g.N):
            for m in range(g.n_cubes(lvl)):
                cube = DyadicCube(lvl, g.pos_from_flat(m, lvl))
                h1 = haar_function(g, HaarIndex(cube, non))
                for e in range(g.n_sig):
                    h = haar_function(g, HaarIndex(cube, g.int_sig(e)))
                    a = acoef[lvl][m, e]
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


def strictly_inside(grid, inner, outer):
    if inner.level <= outer.level:
        return False
    return grid.ancestor(inner, inner.level - outer.level) == outer


# ---------------------------------------------------------------------------
# Reference bi-parameter B kernels: the level-by-level loops, one gather per
# level (pair) of each B atom, rows rebuilt from sig_rows/ancestor_flat.


def _b_rows_oracle(g, a, lvl):
    """Rows of <b, h_(I^(k))> for the cubes I at ``lvl``."""
    idx = grid_index(g)
    return idx.sig_rows(lvl - a.k, a.sb)[idx.ancestor_flat(lvl, a.k)]


def bb_pair_oracle(pg, bC, Xe, a1, a2, out, weight):
    """B x B into ``out``: one pass per level pair (l1, l2); ``bC`` carries
    the trailing unit axes of ``Xe``."""
    g1, g2 = pg.grid1, pg.grid2
    rows1, rows2 = grid_index(g1).sig_rows, grid_index(g2).sig_rows
    pad = (1,) * (Xe.ndim - 2)
    for l1 in range(a1.k, g1.N):
        c1 = a1.beta_level(l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        for l2 in range(a2.k, g2.N):
            c2 = a2.beta_level(l2) * 2.0 ** ((l2 - a2.k) * g2.d / 2.0)
            c2 = np.reshape(c2, np.shape(c2) + pad)
            Bg = bC[np.ix_(_b_rows_oracle(g1, a1, l1), _b_rows_oracle(g2, a2, l2))]
            Xin = Xe[np.ix_(rows1(l1, a1.si), rows2(l2, a2.si))]
            out[np.ix_(rows1(l1, a1.so), rows2(l2, a2.so))] += (c1 * (Bg * Xin).T).T * c2


def bp_pair_oracle(pg, bC, Xe, a1, p2, sym2, out, weight):
    """B x P into ``out``: one strict-subcube scan per level of the B atom;
    ``bC`` and ``sym2`` carry the trailing unit axes of ``Xe``."""
    from dyadlab.paraproducts import strict_ancestor_sum, strict_subtree_sum
    g1, g2 = pg.grid1, pg.grid2
    rows1 = grid_index(g1).sig_rows
    n2 = g2.n_samples
    for l1 in range(a1.k, g1.N):
        Bg = bC[_b_rows_oracle(g1, a1, l1), :]
        c1 = a1.beta_level(l1) * (weight * 2.0 ** ((l1 - a1.k) * g1.d / 2.0))
        Xin = Xe[rows1(l1, a1.si), :n2]
        if not p2.adjoint:
            C = np.swapaxes(strict_ancestor_sum(g2, np.swapaxes(Bg * Xin, 0, 1)), 0, 1) \
                * sym2[None, :]
        else:
            C = Bg * np.swapaxes(
                strict_subtree_sum(g2, np.swapaxes(Xin * sym2[None, :], 0, 1)), 0, 1)
        out[rows1(l1, a1.so), :n2] += (C.T * c1).T
