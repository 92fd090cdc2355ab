from collections import Counter

import numpy as np
import pytest

from dyadlab import DyadicCube, GridSpec, HaarIndex
from dyadlab.grids import DepthError, InvalidIndexError, grid_index
from conftest import ancestor_scan_oracle, subtree_scan_oracle


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 3)
    with pytest.raises(ValueError):
        GridSpec(1, 0)
    with pytest.raises(ValueError):
        GridSpec(3, 9)  # memory budget
    with pytest.raises(ValueError):
        GridSpec(1, 3, omega=((1,),))  # wrong omega length
    with pytest.raises(ValueError):
        GridSpec(1, 2, omega=((2,), (0,)))


def test_zero_omega_normalizes_to_none():
    assert GridSpec(1, 3, omega=((0,), (0,), (0,))) == GridSpec(1, 3)


def test_cube_counts_and_volume():
    g = GridSpec(2, 3)
    assert g.n_samples == 64
    assert g.n_cubes(2) == 16
    assert g.volume(2) == 2.0 ** -4
    assert g.n_sig == 3


def test_ancestor_child_roundtrip():
    g = GridSpec(2, 3)
    cube = DyadicCube(2, (1, 2))
    assert g.ancestor(cube, 0) == cube
    assert g.ancestor(cube, 2) == DyadicCube(0, (0, 0))


def test_each_cube_has_unique_parent_and_2d_children():
    # every cube of a level above N is the parent of exactly 2**d cubes
    g = GridSpec(2, 3)
    for lvl in (1, 2, 3):
        parents = Counter(g.ancestor(DyadicCube(lvl, g.pos_from_flat(flat, lvl)), 1)
                          for flat in range(g.n_cubes(lvl)))
        assert len(parents) == g.n_cubes(lvl - 1)
        assert set(parents.values()) == {1 << g.d}


def test_ancestor_quarter_interval_example():
    # [1/4, 1/2) at level 2, k=2 -> [0, 1)
    g = GridSpec(1, 3)
    assert g.ancestor(DyadicCube(2, (1,)), 2) == DyadicCube(0, (0,))


def test_ancestor_out_of_range():
    g = GridSpec(1, 3)
    with pytest.raises(DepthError):
        g.ancestor(DyadicCube(1, (0,)), 2)
    with pytest.raises(InvalidIndexError):
        g.ancestor(DyadicCube(1, (5,)), 0)


def test_signature_encoding():
    g = GridSpec(3, 1)
    assert g.sig_int((0, 1, 0)) == 2
    assert g.int_sig(5) == (1, 0, 1)
    assert g.noncanc_int == 7
    assert not HaarIndex(DyadicCube(0, (0, 0, 0)), (1, 1, 1)).cancellative
    assert HaarIndex(DyadicCube(0, (0, 0, 0)), (1, 0, 1)).cancellative


def test_omega_ancestor_consistency():
    g = GridSpec(1, 3, omega=((1,), (0,), (1,)))
    idx = grid_index(g)
    for lvl in (1, 2, 3):
        anc = idx.ancestor_flat(lvl, 1)
        for flat in range(g.n_cubes(lvl)):
            cube = DyadicCube(lvl, g.pos_from_flat(flat, lvl))
            assert g.flat_pos(g.ancestor(cube, 1).pos, lvl - 1) == anc[flat]


def test_omega_cells_partition_each_level():
    g = GridSpec(1, 3, omega=((1,), (1,), (1,)))
    idx = grid_index(g)
    for lvl in range(g.N + 1):
        cells = idx.cells(lvl)
        assert sorted(cells.reshape(-1).tolist()) == list(range(g.n_samples))


def test_shift_from_omega():
    assert GridSpec(1, 2, omega=((0,), (1,))).shift == (1,)
    assert GridSpec(1, 3, omega=((1,), (0,), (1,))).shift == (5,)
    assert GridSpec(2, 2, omega=((1, 0), (1, 1))).shift == (3, 1)
    assert GridSpec(2, 3).shift == (0, 0)
    # omega -> shift is a bijection onto [0, 2**N)
    omegas = [tuple((b >> j & 1,) for j in range(3)) for b in range(8)]
    assert sorted(GridSpec(1, 3, omega=om).shift[0] for om in omegas) == list(range(8))
    # level-1 cube 0 covers cells shift + [0, 4), mod 8
    assert grid_index(GridSpec(1, 3, omega=((1,), (0,), (1,)))).cells(1)[0].tolist() \
        == [5, 6, 7, 0]


def test_shifted_level_offsets():
    # omega_2 = 1 shifts the level-1 partition by 2**-2 (one cell at N=2)
    idx = grid_index(GridSpec(1, 2, omega=((0,), (1,))))
    assert idx.cells(1).tolist() == [[1, 2], [3, 0]]
    assert sorted(idx.cells(2).ravel().tolist()) == [0, 1, 2, 3]  # finest cells never move


def test_desc_groups_cover_levels():
    g = GridSpec(2, 3)
    idx = grid_index(g)
    groups = idx.desc_groups(1, 2)
    assert groups.shape == (g.n_cubes(1), 16)
    assert sorted(groups.reshape(-1).tolist()) == list(range(g.n_cubes(3)))


def test_cube_axis_descendants_and_cubes():
    for d, N in ((1, 5), (2, 3), (3, 2)):
        g = GridSpec(d, N)
        idx = grid_index(g)
        for c in range(g.n_cubes_total):
            cube = g.cube_at(c)
            assert g.cube_range(cube.level).start + g.flat_pos(cube.pos, cube.level) == c
        for depth in range(N):
            table = idx.cube_descendants(depth)
            assert table.shape == (g.cube_range(N - 1 - depth).stop, g.n_cubes(depth))
            for kappa in range(N - depth):
                rows = table[g.cube_range(kappa)] - g.cube_range(kappa + depth).start
                assert np.array_equal(rows, idx.desc_groups(kappa, depth))
        assert idx.cube_descendants(1) is idx.cube_descendants(1)
        assert not idx.cube_descendants(1).flags.writeable
        for k in range(N):
            # the k-th ancestors of levels k..N-1, one memoized read-only table
            anc = idx.cube_ancestors(k)
            assert anc is idx.cube_ancestors(k) and not anc.flags.writeable
            assert [g.ancestor(g.cube_at(c), k) for c in range(g.cube_range(k).start,
                                                               g.n_cubes_total)] \
                == [g.cube_at(int(c)) for c in anc]


def test_level_offset_is_the_running_sum():
    for d, N in ((1, 8), (2, 5), (3, 4)):
        g = GridSpec(d, N)
        off = 1
        for level in range(N + 1):
            assert g.level_offset(level) == off
            off += g.n_cubes(level) * g.n_sig


_AXIS_GRIDS = [GridSpec(1, 5), GridSpec(2, 3), GridSpec(3, 2),
               GridSpec(1, 4, omega=((1,), (0,), (1,), (1,)))]


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=repr)
def test_cube_axis_layout(g):
    # the levels tile the axis in order, and cube_block reads each stacked row
    starts = [g.cube_range(lvl).start for lvl in range(g.N)] + [g.n_cubes_total]
    assert starts[0] == 0
    assert all(g.cube_range(lvl).stop == starts[lvl + 1] for lvl in range(g.N))
    stacked = np.arange(float(g.n_samples))
    blk = g.cube_block(stacked)
    assert blk.shape == (g.n_cubes_total, g.n_sig)
    for lvl in range(g.N):
        for flat in range(g.n_cubes(lvl)):
            cube = DyadicCube(lvl, g.pos_from_flat(flat, lvl))
            for e in range(g.n_sig):
                row = g.stacked_index(HaarIndex(cube, g.int_sig(e)))
                assert blk[g.cube_range(lvl).start + flat, e] == stacked[row]
                assert g.level_block(stacked, lvl)[flat, e] == stacked[row]
    weight = grid_index(g).cube_weight
    assert np.array_equal(weight, np.concatenate(
        [np.full(g.n_cubes(lvl), 1.0 / g.volume(lvl)) for lvl in range(g.N)]))
    with pytest.raises(ValueError):
        weight[0] = 2.0


@pytest.mark.parametrize("g", _AXIS_GRIDS, ids=repr)
@pytest.mark.parametrize("passive", [(), (3,), (2, 2)], ids=str)
def test_scans_match_the_per_level_lists(g, passive):
    idx = grid_index(g)
    values = np.random.default_rng(g.N).standard_normal((g.n_cubes_total,) + passive)
    per_level = [values[g.cube_range(lvl)] for lvl in range(g.N)]
    assert np.array_equal(idx.ancestor_scan(values),
                          np.concatenate(ancestor_scan_oracle(g, per_level)))
    assert np.array_equal(idx.subtree_scan(values),
                          np.concatenate(subtree_scan_oracle(g, per_level)))


@pytest.mark.parametrize("g, trials", [(GridSpec(3, 3), 4), (GridSpec(3, 4), 2),
                                       (GridSpec(2, 4), 3), (GridSpec(1, 12), 2)], ids=repr)
def test_stacked_scans_equal_their_single_columns(g, trials):
    # a d = 3 cube's 8 children are summed in one order for a column of a
    # stack and for the column alone
    idx = grid_index(g)
    values = np.random.default_rng(g.N).standard_normal((g.n_cubes_total, trials))
    for scan in (idx.subtree_scan, idx.ancestor_scan):
        stacked = scan(values)
        for t in range(trials):
            assert np.array_equal(stacked[:, t], scan(np.ascontiguousarray(values[:, t])))


def test_row_tables_are_read_only_inverses():
    g = GridSpec(2, 3)
    idx = grid_index(g)
    m = g.n_samples + g.n_cubes_total
    base, anc, _ = idx.bk_table(1)
    for k, sig in ((1, 0), (1, 2), (0, g.noncanc_int)):
        rows, inverse, b_rows = idx.bk_rows(k, sig)
        assert idx.bk_rows(k, sig)[0] is rows  # cached per (k, sig)
        if sig == g.noncanc_int:
            assert b_rows is None
            assert np.array_equal(rows, g.n_samples + np.arange(g.n_cubes_total))
        else:
            assert np.array_equal(rows, base + sig) and np.array_equal(b_rows, anc + sig)
        assert inverse.shape == (m,)
        assert np.array_equal(inverse[rows], np.arange(len(rows)))
        assert np.all(np.delete(inverse, rows) == len(rows))
        for arr in (rows, inverse) + ((b_rows,) if b_rows is not None else ()):
            with pytest.raises(ValueError):
                arr[0] = 0
    inverse = idx.descendant_inverse(1, 5)
    rows = (1 + idx.cube_descendants(1)[:5, :, None] * g.n_sig + np.arange(g.n_sig)).reshape(-1)
    assert np.array_equal(inverse[rows], np.arange(rows.size))
    assert np.all(np.delete(inverse, rows) == rows.size)
    for lvl in range(g.N + 1):
        owner = idx.cell_owner(lvl)
        assert np.array_equal(owner[idx.cells(lvl)],
                              np.repeat(np.arange(g.n_cubes(lvl)), idx.cells(lvl).shape[1])
                              .reshape(idx.cells(lvl).shape))
        with pytest.raises(ValueError):
            owner[0] = 0
