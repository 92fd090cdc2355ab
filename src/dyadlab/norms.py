"""BMO norms, square and maximal functions, and empirical boundedness studies.

Every norm and square function here reads one table of Carleson masses,
mu_b(I) = sum_sig <b, h_I^sig>**2 on the cube axis of :mod:`dyadlab.grids`
(``_cube_masses``) and mu_b(R) as one matrix over the cube axes of both
variables (``_rect_masses``); only these two square Haar coefficients.
The dyadic BMO norm is

    ||b||_bmo = sup_I ( |I|**(-1) sum_{J inside I} mu_b(J) )**(1/2)

(mean mode excluded). The rectangle BMO norm is the bi-parameter analogue
over dyadic rectangles. I' x J' lies in I x J when I' lies in I and J' in
J, so its inner sum is the 1-D subtree sum along each axis of the matrix in
turn. It lower-bounds the open-set product norm
sup_Omega |Omega|**(-1) sum_{R inside Omega} mu_b(R) (Chang-Fefferman),
which is computed here by exhaustive enumeration only at toy sizes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import DepthError, DyadicCube, GridSpec, grid_index
from .haar import (DyadicFunction, broadcast_level, cell_sums, contract, extend,
                   forward_stacked, inverse_stacked, pool_level)
from .paraproducts import BkOperator, _trailing, bk_stacked, p_stacked
from .biparam import (PAtom, ProductFunction, ProductGrid, _along, _lift, extend2,
                      forward2, forward2_stacked, inverse2_stacked, pair_apply)


# ---------------------------------------------------------------------------
# BMO norms.


def _cube_masses(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """Each cube's mass mu(I), summed over its signatures, along the cube
    axis: shape (n_cubes_total, *passive)."""
    return (grid.cube_block(stacked) ** 2).sum(axis=1)


def _rect_masses(pg: ProductGrid, C: np.ndarray) -> np.ndarray:
    """The (n_cubes_total1, n_cubes_total2, *passive) masses mu(R) of all
    rectangles R = I x J, summed over the variable-2 signatures, then over
    the variable-1 ones, in the same order whatever the passive axes."""
    g1, g2 = pg.grid1, pg.grid2
    t = C[1:g1.n_samples, 1:g2.n_samples].reshape(
        (g1.n_cubes_total, g1.n_sig, g2.n_cubes_total, g2.n_sig) + C.shape[2:])
    return (t ** 2).sum(axis=3).sum(axis=1)


def _column_max(x: np.ndarray, lead: int) -> np.ndarray:
    """Max over the ``lead`` leading axes of ``x``, one value per trailing
    column: reduced along the rows of a contiguous (columns, values) copy,
    which numpy does many times faster than across a narrow trailing axis."""
    cols = np.ascontiguousarray(x.reshape(math.prod(x.shape[:lead]), -1).T)
    return cols.max(axis=1).reshape(x.shape[lead:])


def dyadic_bmo_norm(b: DyadicFunction) -> float:
    """Dyadic BMO norm; invariant under adding constants, homogeneous of degree 1."""
    return float(_bmo_stacked(b.grid, forward_stacked(b.grid, b.samples)))


def _bmo_stacked(grid: GridSpec, stacked: np.ndarray) -> np.ndarray:
    """:func:`dyadic_bmo_norm` of every column of the stacked coefficients
    (n_samples, *passive) of b, shape ``passive``."""
    return _bmo_of_masses(grid, _cube_masses(grid, stacked))


def _bmo_of_masses(grid: GridSpec, mass: np.ndarray) -> np.ndarray:
    """:func:`_bmo_stacked` from the :func:`_cube_masses` of b."""
    idx = grid_index(grid)
    return np.sqrt(_column_max((mass + idx.subtree_scan(mass))
                               * _trailing(idx.cube_weight, mass), 1))


def rect_bmo_norm(b: ProductFunction) -> float:
    """Sup over dyadic rectangles of the normalized coefficient mass."""
    return float(_rect_bmo_stacked(b.pgrid, forward2(b)))


def _rect_bmo_stacked(pg: ProductGrid, C: np.ndarray) -> np.ndarray:
    """:func:`rect_bmo_norm` of every column of the stacked coefficients
    ``C`` (n1, n2, *passive) of b, shape ``passive``: the subtree sums (the
    root included) along axis 0, then along axis 1, give each rectangle's
    sum over the rectangles inside it."""
    g1, g2 = pg.grid1, pg.grid2
    mass = _rect_masses(pg, C)
    mass = mass + grid_index(g1).subtree_scan(mass)
    mass = mass + _along(1, grid_index(g2).subtree_scan, mass)
    weight = np.outer(grid_index(g1).cube_weight, grid_index(g2).cube_weight)
    return np.sqrt(_column_max(mass * _lift(weight, mass), 2))


def open_set_bmo_norm(b: ProductFunction) -> float:
    """Product BMO over arbitrary unions of cells; exponential, toy sizes only."""
    pg = b.pgrid
    g1, g2 = pg.grid1, pg.grid2
    n_cells = g1.n_samples * g2.n_samples
    if n_cells > 16:
        raise ValueError("open-set enumeration is exponential; use tiny grids")
    sq = _rect_masses(pg, forward2(b))
    rects = []  # (cell mask, coefficient mass)
    for l1 in range(g1.N):
        for l2 in range(g2.N):
            masses = sq[g1.cube_range(l1), g2.cube_range(l2)]
            cells1, cells2 = grid_index(g1).cells(l1), grid_index(g2).cells(l2)
            for m1 in range(g1.n_cubes(l1)):
                for m2 in range(g2.n_cubes(l2)):
                    mask = np.zeros((g1.n_samples, g2.n_samples), dtype=bool)
                    mask[np.ix_(cells1[m1], cells2[m2])] = True
                    rects.append((mask.reshape(-1), float(masses[m1, m2])))
    # row s - 1 is the open set whose cells are the set bits of s
    omega = ((np.arange(1, 1 << n_cells)[:, None] >> np.arange(n_cells)) & 1).astype(bool)
    mass = np.zeros(len(omega))
    for mask, m in rects:  # in rectangle order, as a running sum per set
        mass += np.where(omega[:, mask].all(axis=1), m, 0.0)
    vol = omega.sum(axis=1) * (g1.cell_volume * g2.cell_volume)
    return float(np.sqrt(np.max(mass / vol, where=mass > 0, initial=0.0)))


# ---------------------------------------------------------------------------
# Square functions.


def square_function(f, variant: str = "S", k: int = 0, var: int = 1):
    """Pointwise l2 aggregation of Haar coefficients.

    Variants: ``S`` (per cube), ``S_k`` (grouped by the k-th ancestor),
    ``SS`` (bi-parameter, per rectangle), ``hybrid_max_square`` (maximal in
    one variable of the partial pairings, square-aggregated in the other).
    """
    if variant in ("S", "S_k"):
        masses = _cube_masses(f.grid, forward_stacked(f.grid, f.samples))
        return DyadicFunction(f.grid, _square_Sk(f.grid, masses, k if variant == "S_k" else 0))
    if variant == "SS":
        pg = f.pgrid
        root = tuple(DyadicCube(0, (0,) * g.d) for g in (pg.grid1, pg.grid2))
        return ProductFunction(pg, _rect_square(pg, forward2(f), root))
    if variant == "hybrid_max_square":
        return _hybrid_max_square(f, var)
    raise ValueError(f"unknown square function variant {variant}")


def _inside(grid: GridSpec, cube: DyadicCube) -> np.ndarray:
    """Cube-axis indicator of the cubes inside ``cube``, itself included; a
    finest cell (level N) contains none."""
    grid.validate_cube(cube)
    mark = np.zeros(grid.n_cubes_total)
    if cube.level < grid.N:
        mark[grid.cube_range(cube.level).start + grid.flat_pos(cube.pos, cube.level)] = 1.0
    return mark + grid_index(grid).ancestor_scan(mark)


def _square_Sk(grid: GridSpec, masses: np.ndarray, k: int) -> np.ndarray:
    """Samples (n_samples, *passive) of S_k(f) from the :func:`_cube_masses`
    of f: each cube's mass is added to its k-th ancestor, weighted by the
    ancestor's |I|**(-1)."""
    if k >= grid.N:
        raise DepthError(f"k={k} outside the levels 0..{grid.N - 1} below the root")
    idx = grid_index(grid)
    grouped = np.zeros(masses.shape)
    np.add.at(grouped, idx.cube_ancestors(k), masses[grid.cube_range(k).start:])
    return np.sqrt(cell_sums(grid, grouped * _trailing(idx.cube_weight, grouped)))


def _rect_square(pg: ProductGrid, C: np.ndarray, region: tuple) -> np.ndarray:
    """Samples of the square function localized to ``region`` (a pair of
    cubes), (sum_{R inside region} mu(R) chi_R / |R|)**(1/2), from the
    stacked coefficients ``C``."""
    g1, g2 = pg.grid1, pg.grid2
    inside = np.outer(_inside(g1, region[0]), _inside(g2, region[1]))
    weight = np.outer(grid_index(g1).cube_weight, grid_index(g2).cube_weight)
    values = _rect_masses(pg, C) * inside * weight
    return np.sqrt(cell_sums(g1, cell_sums(g2, values.T).T))


def _hybrid_max_square(f: ProductFunction, var: int) -> ProductFunction:
    """Maximal function in ``var`` of partial pairings, squares in the other."""
    pg = f.pgrid
    if var == 1:
        g_max, g_sq = pg.grid1, pg.grid2
        samples = f.samples
    else:
        g_max, g_sq = pg.grid2, pg.grid1
        samples = f.samples.T
    pairings = forward_stacked(g_sq, samples.T)  # rows: var-sq stacked, cols: var-max cells
    mass = np.empty((g_sq.n_cubes_total, g_max.n_samples))
    for lvl in range(g_sq.N):  # per level: batched, numpy sums the cell means in another order
        m = _dyadic_max_samples(g_max, g_sq.level_block(pairings, lvl).T).T
        mass[g_sq.cube_range(lvl)] = (m ** 2).sum(axis=1)
    out = np.sqrt(cell_sums(g_sq, mass * grid_index(g_sq).cube_weight[:, None]))
    return ProductFunction(pg, out.T if var == 1 else out)


# ---------------------------------------------------------------------------
# Maximal functions.


def _dyadic_max_samples(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """max over dyadic ancestors of |cell averages|; passive axes supported."""
    out = np.abs(samples).astype(float) * 0.0
    for lvl in range(grid.N + 1):
        if lvl == grid.N:
            avg = np.abs(samples)
        else:
            avg = np.abs(broadcast_level(grid, lvl, pool_level(grid, lvl, samples)))
        out = np.maximum(out, avg)
    return out


def maximal_function(f, variant: str = "dyadic", p: float = 2.0):
    """Dyadic / strong (rectangle) maximal functions; ``vector_FS`` takes a list."""
    if variant == "dyadic":
        return DyadicFunction(f.grid, _dyadic_max_samples(f.grid, f.samples))
    if variant == "strong_rect":
        pg = f.pgrid
        g1, g2 = pg.grid1, pg.grid2
        best = np.zeros(pg.shape)
        for l1 in range(g1.N + 1):
            rows = f.samples if l1 == g1.N else broadcast_level(
                g1, l1, pool_level(g1, l1, f.samples))
            for l2 in range(g2.N + 1):
                avg = rows.T if l2 == g2.N else broadcast_level(
                    g2, l2, pool_level(g2, l2, rows.T))
                best = np.maximum(best, np.abs(avg.T))
        return ProductFunction(pg, best)
    if variant == "vector_FS":
        if not (1.0 < p <= 2.0):
            raise ValueError("vector variant needs p in (1, 2]")
        family = f
        grid = family[0].grid
        acc = np.zeros(grid.n_samples)
        for fi in family:
            acc += _dyadic_max_samples(grid, fi.samples) ** 2
        return DyadicFunction(grid, np.sqrt(acc))
    raise ValueError(f"unknown maximal function variant {variant}")


def _lp_norm(samples: np.ndarray, cell_volume: float, p: float) -> float:
    return _lp_norms(samples.reshape(1, -1), cell_volume, p)[0]


def _lp_norms(rows: np.ndarray, cell_volume: float, p: float) -> list:
    """L^p norm of every row of ``rows`` (columns, values), each summed as a
    lone array is. Only the nonzero entries are raised to the power (the
    vectorized pow is several times slower on zeros), and the root is taken
    per scalar: on an array it can round differently."""
    a = np.abs(rows)
    powered = np.power(a, p, out=np.zeros(a.shape), where=a > 0)
    return [float(total * cell_volume) ** (1.0 / p) for total in powered.sum(axis=1)]


def fs_check(family: list, p: float) -> float:
    """Vector-valued maximal inequality ratio for a family of functions."""
    grid = family[0].grid
    num = maximal_function(family, variant="vector_FS", p=min(p, 2.0))
    den = np.sqrt(sum(fi.samples ** 2 for fi in family))
    dn = _lp_norm(den, grid.cell_volume, p)
    if dn == 0.0:
        return 0.0
    return _lp_norm(num.samples, grid.cell_volume, p) / dn


def jn_profile(a, region) -> tuple:
    """The p-independent part of :func:`jn_check`: (localized square
    function samples, cell volume, bmo(a), |region|).

    ``jn_ratio(jn_profile(a, region), p)`` is ``jn_check(a, region, p)``;
    for several p the transform, region masks and BMO norm run once.
    """
    if isinstance(a, DyadicFunction):
        g = a.grid
        masses = _cube_masses(g, forward_stacked(g, a.samples))
        return (_region_square(g, masses, _inside(g, region)), g.cell_volume,
                float(_bmo_of_masses(g, masses)), g.volume(region.level))
    # rectangle case
    pg = a.pgrid
    g1, g2 = pg.grid1, pg.grid2
    C = forward2(a)
    return (_rect_square(pg, C, region), g1.cell_volume * g2.cell_volume,
            float(_rect_bmo_stacked(pg, C)),
            g1.volume(region[0].level) * g2.volume(region[1].level))


def _region_square(grid: GridSpec, masses: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Samples (n_samples, *passive) of the square function localized to a
    region, (sum_{J inside region} mu(J) chi_J / |J|)**(1/2), from the
    :func:`_cube_masses` of f and the cube-axis indicator ``inside`` of the
    cubes in the region (:func:`_inside`), one region per column."""
    weight = _trailing(grid_index(grid).cube_weight, masses)
    return np.sqrt(cell_sums(grid, masses * inside * weight))


def _check_exponent(p: float) -> None:
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")


def jn_ratio(profile: tuple, p: float) -> float:
    """The :func:`jn_check` ratio at exponent ``p`` from a :func:`jn_profile`."""
    _check_exponent(p)
    square, cell_volume, bmo, volume = profile
    if bmo == 0.0:
        return 0.0
    return _lp_norm(square, cell_volume, p) / (bmo * volume ** (1.0 / p))


def jn_check(a, region, p: float) -> float:
    """Localized square-function L^p mass against the BMO bound.

    ``region`` is a DyadicCube (one-parameter) or a pair of cubes (rectangle).
    Returns ||(sum_{J in region} <a,h_J>^2 chi_J/|J|)^(1/2)||_p divided by
    bmo(a) |region|^(1/p); at p = 2 the ratio is at most 1 exactly. For
    several p, take :func:`jn_profile` once and pass it to :func:`jn_ratio`.
    """
    return jn_ratio(jn_profile(a, region), p)


def jn_study(grid: GridSpec, ps, trials: int, rng_seed: int, counters: dict = None) -> dict:
    """Worst :func:`jn_check` ratio over random trials, {p: worst} for every p
    in ``ps``.

    Trial t draws a's samples, a level, then a cube of that level from
    ``_trial_rng(rng_seed, t)``; its ratio at every p is ``jn_check(a, cube,
    p)`` bit for bit. The trials run in blocks of max(1, 2**13 // n_samples),
    so memory does not grow with ``trials``. Each block takes one transform
    of its a stack, one table of masses for both the square function and the
    BMO norm, one ancestor scan of the region marks and one ``cell_sums``;
    the norms are taken per column. A ``counters`` dict receives
    {"trials", "blocks"}. ``trials`` must be at least 1.
    """
    _require_trials(trials)
    ps = list(dict.fromkeys(ps))
    for p in ps:
        _check_exponent(p)
    idx, n = grid_index(grid), grid.n_samples
    worst = dict.fromkeys(ps, 0.0)

    def run_block(ts: list) -> None:
        """Draw trials ``ts`` into one block and fold their ratios into
        ``worst``; the block's arrays are freed on return."""
        a = np.empty((n, len(ts)))
        mark = np.zeros((grid.n_cubes_total, len(ts)))
        volumes = []
        for col, t in enumerate(ts):
            rng = _trial_rng(rng_seed, t)
            a[:, col] = rng.standard_normal(n)
            lvl = int(rng.integers(0, grid.N))
            mark[grid.cube_range(lvl).start + int(rng.integers(0, grid.n_cubes(lvl))), col] = 1.0
            volumes.append(grid.volume(lvl))
        masses = _cube_masses(grid, forward_stacked(grid, a))
        square = _region_square(grid, masses, mark + idx.ancestor_scan(mark))
        bmo = _bmo_of_masses(grid, masses)
        rows = np.ascontiguousarray(square.T)
        for p in ps:
            for norm, b, volume in zip(_lp_norms(rows, grid.cell_volume, p), bmo, volumes):
                if b != 0.0:
                    worst[p] = max(worst[p], norm / (float(b) * volume ** (1.0 / p)))

    blocks = _in_blocks(range(trials), n, run_block)
    if counters is not None:
        counters.update(trials=trials, blocks=blocks)
    return worst


# ---------------------------------------------------------------------------
# Geometric weight schedule.


def geometric_constant(delta: float, cap: int) -> float:
    """sum_{i,j=0..cap} 2**(-max(i,j) delta/2) (1 + max(i,j)), cap-truncated."""
    if not (0.0 < delta <= 2.0 + 1e-12):
        raise ValueError("delta must lie in (0, 2]")
    m = np.arange(cap + 1)
    return float(np.sum((2 * m + 1) * (1 + m) * 2.0 ** (-m * delta / 2.0)))


def geometric_constant_closed_form(delta: float) -> float:
    """Closed form of the full series via sum (2m+1)(m+1) x**m, x = 2**(-delta/2)."""
    x = 2.0 ** (-delta / 2.0)
    s0 = 1.0 / (1.0 - x)
    s1 = x / (1.0 - x) ** 2
    s2 = x * (1.0 + x) / (1.0 - x) ** 3
    return 2.0 * s2 + 3.0 * s1 + s0


def geometric_constant_tail_bound(delta: float, cap: int) -> float:
    """Upper bound on the truncation error of :func:`geometric_constant`.

    With x = 2**(-delta/2) and m = cap + 1, the tail is the sum over n >= m
    of (2n+1)(n+1) x**n. Its first term is first = (2m+1)(m+1) x**m, and the
    ratio of consecutive terms, (2n+3)(n+2) / ((2n+1)(n+1)) * x, is at most
    (1 + 2/m)**2 x for every n >= m. The bound returned is therefore
    first / (1 - (1 + 2/m)**2 x) while that ratio is below 1, else ``inf``.
    """
    x = 2.0 ** (-delta / 2.0)
    m = cap + 1
    first = (2 * m + 1) * (m + 1) * x ** m
    ratio = (1 + 2.0 / m) ** 2 * x
    if ratio < 1.0:
        return first / (1.0 - ratio)
    return float("inf")


def geometric_cap_for(delta: float, tol: float = 1e-11, max_cap: int = 100000) -> int:
    """Smallest cap whose truncation error bound is below ``tol``."""
    cap = 8
    while cap < max_cap:
        if geometric_constant_tail_bound(delta, cap) < tol:
            return cap
        cap *= 2
    raise ValueError(f"no admissible cap below {max_cap} for delta={delta}")


# ---------------------------------------------------------------------------
# Norm reports and uniformity studies.


@dataclass(frozen=True)
class NormReport:
    """Measured ratio record for one operator kind and parameter choice."""

    kind: str
    trials: int
    max_ratio: float
    seed: int
    k: int = None
    l: int = None
    i: int = None
    j: int = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {"kind": self.kind, "k": self.k, "l": self.l, "i": self.i,
               "j": self.j, "trials": self.trials, "max_ratio": self.max_ratio,
               "seed": self.seed}
        if self.extra:
            obj["extra"] = self.extra
        return json.dumps(obj)


def reports_to_jsonl(reports: list) -> str:
    return "\n".join(r.to_json() for r in reports) + "\n"


def reports_to_csv(reports: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["kind", "k", "l", "i", "j", "trials", "max_ratio", "seed"])
    for r in reports:
        w.writerow([r.kind,
                    "" if r.k is None else r.k, "" if r.l is None else r.l,
                    "" if r.i is None else r.i, "" if r.j is None else r.j,
                    r.trials, repr(r.max_ratio), r.seed])
    return buf.getvalue()


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator of trial ``trial`` under master ``seed``; one stream per trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


# Samples in one stack of a trial block: 2**13 float64 values are 64 KiB,
# below glibc's default mmap threshold, so a study's memory stays flat in the
# number of trials.
_BLOCK_SAMPLES = 2 ** 13


def _in_blocks(items, samples: int, run) -> int:
    """Call ``run`` on consecutive blocks of ``items``, lists of at most
    max(1, _BLOCK_SAMPLES // samples) items, one item taking ``samples``
    samples of a stack; an item is drawn from the iterable only when its
    block's turn comes. Returns the number of blocks."""
    width, items, blocks = max(1, _BLOCK_SAMPLES // samples), iter(items), 0
    while block := list(itertools.islice(items, width)):
        run(block)
        blocks += 1
    return blocks


def _column_norms(x: np.ndarray, cell_volume: float) -> np.ndarray:
    """L2 norm of every trial column (last axis) of the samples ``x``: one
    reduction along the rows of a contiguous (columns, values) copy, which
    sums each column in the order a function's ``norm()`` sums its samples."""
    cols = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
    return np.sqrt((cols ** 2).sum(axis=1) * cell_volume)


def _require_trials(trials: int) -> None:
    """Refuse a study without trials: its sup would read 0 and pass vacuously."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def uniformity_study(kind: str, params: dict, trials: int, rng_seed: int,
                     grid: GridSpec = None, pgrid: ProductGrid = None,
                     counters: dict = None) -> list:
    """Max measured ratio ||op|| / (BMO factors * ||f||) per parameter value.

    Kinds: ``Bk`` (k range), ``Sk`` (square-function variant), ``Bkl``
    ((k,l) range), ``BPk``, ``PBl``, ``PP``, ``PP1``, ``P``.

    Trials run in blocks of max(1, 2**13 // samples per trial) trials, so
    no stack of a block holds more than 2**13 samples (64 KiB) and memory
    does not grow with ``trials``. Trial t draws b, f, then its P symbols
    or betas from ``_trial_rng(rng_seed, t)`` into column t of the block's
    stacks. Each stack is transformed once per block, and each (k, l) is
    one kernel call (the P symbols and the betas on the trailing axis) and
    one inverse transform per block. Norms and BMO denominators are taken per
    column and sum in each trial's own order, so no row depends on the
    block size. A ``counters`` dict receives {"trials", "combos", "blocks"}.
    ``trials`` must be at least 1.
    """
    _require_trials(trials)
    if kind in ("Bk", "Sk", "P"):
        grid = grid or GridSpec(1, params.get("N", 6 if kind == "P" else 8))
        # B_k and S_k need k <= N - 1, as in the bi-parameter kinds below
        kmax = min(params.get("kmax", 8 if kind == "Bk" else 6), grid.N - 1)
        combos = [(None, None)] if kind == "P" else [(k, None) for k in range(kmax + 1)]
        n = (grid.n_samples,)
        draws = {"Sk": {"f": n}, "P": {"b": n, "a": n, "f": n},
                 "Bk": {"b": n, "f": n, "beta": (grid.n_cubes_total,)}}[kind]
        volume = grid.cell_volume
    elif kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        pgrid = pgrid or ProductGrid(GridSpec(1, params.get("N1", 4)),
                                     GridSpec(1, params.get("N2", 4)))
        g1, g2 = pgrid.grid1, pgrid.grid2
        # B_k needs k <= N - 1 in its variable
        kmax = min(params.get("kmax", 2), g1.N - 1)
        lmax = min(params.get("lmax", 2), g2.N - 1)
        ks = range(kmax + 1) if kind in ("Bkl", "BPk") else [None]
        ls = range(lmax + 1) if kind in ("Bkl", "PBl") else [None]
        combos = [(k, l) for k in ks for l in ls]
        draws = {"b": pgrid.shape, "f": pgrid.shape}
        if kind == "Bkl":
            draws.update(beta1=(g1.n_cubes_total,), beta2=(g2.n_cubes_total,))
        if kind in ("PBl", "PP", "PP1"):
            draws["a1"] = (g1.n_samples,)
        if kind in ("BPk", "PP", "PP1"):
            draws["a2"] = (g2.n_samples,)
        volume = g1.cell_volume * g2.cell_volume
    else:
        raise ValueError(f"unknown study kind {kind}")

    def signs(x):
        """Betas from normal draws: +1 or -1, +1 with probability about 0.69."""
        return np.sign(x + 0.5)

    def unit(g, a):
        """The samples a / bmo(a), one trial per column."""
        return a * (1.0 / _bmo_stacked(g, forward_stacked(g, a)))

    def measure(s: dict) -> tuple:
        """(denominators, (k, l) -> output samples) of one block of trials,
        one column per trial."""
        if kind == "Sk":
            masses = _cube_masses(grid, forward_stacked(grid, s["f"]))
            return _column_norms(s["f"], volume), lambda k, l: _square_Sk(grid, masses, k)
        if kind == "P":
            bc, ac, xc = (forward_stacked(grid, s[x]) for x in "baf")
            denom = (_bmo_stacked(grid, bc) * _bmo_stacked(grid, ac)
                     * _column_norms(s["f"], volume))
            ac[0] = 0.0  # the symbol's mean row
            return denom, lambda k, l: inverse_stacked(grid, p_stacked(grid, bc, ac, xc))
        if kind == "Bk":
            bc = forward_stacked(grid, s["b"])
            xe = extend(grid, forward_stacked(grid, s["f"]))
            beta = signs(s["beta"])

            def bk(k, l):
                return inverse_stacked(grid, contract(grid, bk_stacked(
                    BkOperator(grid, k, beta=beta), bc, xe)))
            return _bmo_stacked(grid, bc) * _column_norms(s["f"], volume), bk
        bC = forward2_stacked(pgrid, s["b"])
        Xe = forward2_stacked(pgrid, s["f"])
        if kind not in ("PP", "PP1"):  # P x P reads no extended rows
            Xe = extend2(pgrid, Xe)
        denom = _rect_bmo_stacked(pgrid, bC) * _column_norms(s["f"], volume)
        # the betas, or the P symbols: each of BMO norm one, its mean row zeroed
        sym1 = sym2 = beta1 = beta2 = None
        if kind == "Bkl":
            beta1, beta2 = signs(s["beta1"]), signs(s["beta2"])
        if "a1" in s:
            sym1 = forward_stacked(g1, unit(g1, s["a1"]))
            sym1[0] = 0.0
        if "a2" in s:
            sym2 = forward_stacked(g2, unit(g2, s["a2"]))
            sym2[0] = 0.0

        def pair(k, l):
            atom1 = PAtom(adjoint=kind == "PP1") if k is None else BkOperator(g1, k, beta=beta1)
            atom2 = PAtom() if l is None else BkOperator(g2, l, beta=beta2)
            out = pair_apply(pgrid, bC, Xe, atom1, atom2, sym1, sym2)
            return inverse2_stacked(pgrid, out)
        return denom, pair

    best = dict.fromkeys(combos, 0.0)

    def run_block(ts: list) -> None:
        """Draw trials ``ts`` into one block and fold its ratios into ``best``;
        the block's arrays are freed on return, before the next is drawn."""
        stacks = {name: np.empty(shape + (len(ts),)) for name, shape in draws.items()}
        for col, t in enumerate(ts):
            rng = _trial_rng(rng_seed, t)
            for name, shape in draws.items():
                stacks[name][..., col] = rng.standard_normal(shape)
        denom, outputs = measure(stacks)
        for k, l in combos:
            for num, den in zip(_column_norms(outputs(k, l), volume), denom):
                if den > 0:
                    best[(k, l)] = max(best[(k, l)], float(num / den))

    blocks = _in_blocks(range(trials), math.prod(draws["f"]), run_block)
    if counters is not None:
        counters.update(trials=trials, combos=len(combos), blocks=blocks)
    return [NormReport(kind=kind, k=k, l=l, trials=trials, max_ratio=best[(k, l)],
                       seed=rng_seed) for (k, l) in combos]
