"""BMO norms, square and maximal functions, and empirical boundedness studies.

Every norm and square function here reads one table of Carleson masses
(``_masses``), the only code that squares Haar coefficients: mu_b(I) =
sum_sig <b, h_I^sig>**2 on the cube axis of :mod:`dyadlab.grids` for one
variable, and mu_b(R) over the cube axes of both variables for a rectangle
R = I x J. Each step runs along the ``grids`` of the space (a GridSpec or
a ProductGrid) one variable at a time, so one code serves both: S and SS
are one square function localized to the whole space, and the dyadic and
strong maximal functions one max over the level means of every variable
(``_max_samples``). A variant given the other function type raises
``ValueError``. The dyadic BMO norm is

    ||b||_bmo = sup_I ( |I|**(-1) sum_{J inside I} mu_b(J) )**(1/2)

(mean mode excluded). The rectangle BMO norm is the bi-parameter analogue
over dyadic rectangles. I' x J' lies in I x J when I' lies in I and J' in
J, so its inner sum is the 1-D subtree sum along each cube axis in turn.
It lower-bounds the open-set product norm
sup_Omega |Omega|**(-1) sum_{R inside Omega} mu_b(R) (Chang-Fefferman),
which is computed here by exhaustive enumeration only at toy sizes.

The John-Nirenberg ratio of a function a and a region Q,
||S_Q a||_p / (bmo(a) |Q|**(1/p)) with S_Q the square function localized
to Q, comes from one kernel (``_jn_ratios``) on a stack of columns:
:func:`jn_check` runs it on one column, :func:`jn_study` on each block of
trials. Every study takes its grid or product grid from its caller.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .grids import DepthError, DyadicCube, GridMismatchError, GridSpec, grid_index
from .haar import (DyadicFunction, _along, broadcast_level, cell_sums, extend_space,
                   forward_space, forward_stacked, inverse_space, pool_level)
from .paraproducts import BkOperator
from .biparam import PAtom, ProductFunction, ProductGrid, pair_apply


# ---------------------------------------------------------------------------
# BMO norms.


def _masses(space, stacked: np.ndarray) -> np.ndarray:
    """The masses mu(R) of every cube or rectangle R from the stacked
    coefficients (*shape, *passive) of ``space``, one cube axis per
    variable, (n_cubes_total1[, n_cubes_total2], *passive): summed over the
    last variable's signatures first, in the same order whatever the
    passive axes."""
    grids = space.grids
    cut = stacked[tuple(slice(1, g.n_samples) for g in grids)]
    t = cut.reshape(sum(((g.n_cubes_total, g.n_sig) for g in grids), ())
                    + stacked.shape[len(grids):]) ** 2
    for v in reversed(range(len(grids))):
        t = t.sum(axis=2 * v + 1)
    return t


def _weighted(space, values: np.ndarray) -> np.ndarray:
    """``values`` on the cube axes of ``space`` times |R|**(-1) of their
    cube or rectangle R, a power of two."""
    w = reduce(np.multiply.outer, [grid_index(g).cube_weight for g in space.grids])
    return values * w.reshape(w.shape + (1,) * (values.ndim - w.ndim))


def _column_max(x: np.ndarray, lead: int) -> np.ndarray:
    """Max over the ``lead`` leading axes of ``x``, one value per trailing
    column: reduced along the rows of a contiguous (columns, values) copy,
    which numpy does many times faster than across a narrow trailing axis."""
    cols = np.ascontiguousarray(x.reshape(math.prod(x.shape[:lead]), -1).T)
    return cols.max(axis=1).reshape(x.shape[lead:])


def dyadic_bmo_norm(b: DyadicFunction) -> float:
    """Dyadic BMO norm; invariant under adding constants, homogeneous of degree 1."""
    return float(_bmo_stacked(b.space, forward_space(b.space, b.samples)))


def rect_bmo_norm(b: ProductFunction) -> float:
    """Sup over dyadic rectangles of the normalized coefficient mass."""
    return float(_bmo_stacked(b.space, forward_space(b.space, b.samples)))


def _bmo_stacked(space, stacked: np.ndarray) -> np.ndarray:
    """:func:`dyadic_bmo_norm` or :func:`rect_bmo_norm` of every column of
    the stacked coefficients (*shape, *passive) of b, shape ``passive``."""
    return _bmo_of_masses(space, _masses(space, stacked))


def _bmo_of_masses(space, mass: np.ndarray) -> np.ndarray:
    """:func:`_bmo_stacked` from the :func:`_masses` of b: the subtree sums
    (the root included) along each cube axis in turn give each cube's or
    rectangle's sum over the ones inside it."""
    for v, g in enumerate(space.grids):
        mass = mass + _along(v, grid_index(g).subtree_scan, mass)
    return np.sqrt(_column_max(_weighted(space, mass), len(space.grids)))


def open_set_bmo_norm(b: ProductFunction) -> float:
    """Product BMO over arbitrary unions of cells; exponential, toy sizes only."""
    pg = b.pgrid
    g1, g2 = pg.two_grids("open_set_bmo_norm")
    n_cells = g1.n_samples * g2.n_samples
    if n_cells > 16:
        raise ValueError("open-set enumeration is exponential; use tiny grids")
    sq = _masses(pg, forward_space(pg, b.samples))
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
    vol = omega.sum(axis=1) * b.cell_volume
    return float(np.sqrt(np.max(mass / vol, where=mass > 0, initial=0.0)))


# ---------------------------------------------------------------------------
# Square functions.


# The function type each variant of square_function and maximal_function
# takes, for every member of a vector_FS family.
_NEEDS = {"S": DyadicFunction, "S_k": DyadicFunction, "dyadic": DyadicFunction,
          "vector_FS": DyadicFunction, "SS": ProductFunction,
          "strong_rect": ProductFunction}


def _require_type(f, variant: str) -> None:
    """Refuse ``f`` unless it is of the function type ``variant`` needs."""
    if not isinstance(f, _NEEDS[variant]):
        raise ValueError(f"variant {variant} needs a {_NEEDS[variant].__name__}, "
                         f"got {type(f).__name__}")


def square_function(f, variant: str = "S", k: int = 0):
    """Pointwise l2 aggregation of Haar coefficients.

    Variants: ``S`` (per cube) and ``S_k`` (grouped by the k-th ancestor,
    0 <= k <= N-1) of a DyadicFunction, ``SS`` (per rectangle) of a
    ProductFunction.
    """
    if variant not in ("S", "S_k", "SS"):
        raise ValueError(f"unknown square function variant {variant}")
    _require_type(f, variant)
    masses = _masses(f.space, forward_space(f.space, f.samples))
    if variant == "S_k":
        return DyadicFunction(f.grid, _square_Sk(f.grid, masses, k))
    # S and SS: every cube or rectangle lies inside the whole space
    return type(f)(f.space, _region_square(f.space, masses, 1.0))


def _inside(grid: GridSpec, cube: DyadicCube) -> np.ndarray:
    """Cube-axis indicator of the cubes inside ``cube``, itself included; a
    finest cell (level N) contains none."""
    grid.validate_cube(cube)
    mark = np.zeros(grid.n_cubes_total)
    if cube.level < grid.N:
        mark[grid.cube_range(cube.level).start + grid.flat_pos(cube.pos, cube.level)] = 1.0
    return mark + grid_index(grid).ancestor_scan(mark)


def _square_Sk(grid: GridSpec, masses: np.ndarray, k: int) -> np.ndarray:
    """Samples (n_samples, *passive) of S_k(f) from the :func:`_masses`
    of f: each cube's mass is added to its k-th ancestor, weighted by the
    ancestor's |I|**(-1)."""
    if not 0 <= k < grid.N:
        raise DepthError(f"k={k} outside the levels 0..{grid.N - 1} below the root")
    idx = grid_index(grid)
    grouped = np.zeros(masses.shape)
    np.add.at(grouped, idx.cube_ancestors(k), masses[grid.cube_range(k).start:])
    return np.sqrt(cell_sums(grid, _weighted(grid, grouped)))


# ---------------------------------------------------------------------------
# Maximal functions.


def _max_samples(space, samples: np.ndarray) -> np.ndarray:
    """Samples (*shape, *passive) of the dyadic maximal function on a
    GridSpec, or the strong maximal function on a ProductGrid: each cell's
    max over the cubes or rectangles that contain it, the cells themselves
    included, of |the mean of ``samples`` over them|. The means run one
    variable at a time, variable 1 first, at every level 0..N of each."""
    means = [samples]
    for v, g in enumerate(space.grids):
        means = [_along(v, lambda x: broadcast_level(g, lvl, pool_level(g, lvl, x)), m)
                 if lvl < g.N else m for m in means for lvl in range(g.N + 1)]
    return reduce(np.maximum, map(np.abs, means))


def maximal_function(f, variant: str = "dyadic", p: float = 2.0):
    """Dyadic / strong (rectangle) maximal functions; ``vector_FS`` takes a one-grid list."""
    if variant in ("dyadic", "strong_rect"):
        _require_type(f, variant)
        return type(f)(f.space, _max_samples(f.space, f.samples))
    if variant == "vector_FS":
        if not (1.0 < p <= 2.0):
            raise ValueError("vector variant needs p in (1, 2]")
        if not f:
            raise ValueError("a vector_FS family needs at least one function, got none")
        for fi in f:
            _require_type(fi, variant)
            if fi.grid != f[0].grid:
                raise GridMismatchError("the functions of a vector_FS family must share one grid")
        grid = f[0].grid
        return DyadicFunction(grid, np.sqrt(sum(_max_samples(grid, fi.samples) ** 2 for fi in f)))
    raise ValueError(f"unknown maximal function variant {variant}")


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
    num = maximal_function(family, variant="vector_FS", p=min(p, 2.0))
    den = np.sqrt(sum(fi.samples ** 2 for fi in family))
    nn, dn = _lp_norms(np.stack([num.samples, den]), num.cell_volume, p)
    return 0.0 if dn == 0.0 else nn / dn


def _region_square(space, masses: np.ndarray, inside) -> np.ndarray:
    """Samples (*shape, *passive) of the square function localized to a
    region, (sum_{R inside region} mu(R) chi_R / |R|)**(1/2), from the
    :func:`_masses` of f and the indicator ``inside`` on the cube axes of
    the cubes or rectangles in the region (:func:`_inside` per variable),
    one region per column. ``cell_sums`` runs along the last variable
    first."""
    values = _weighted(space, masses * inside)
    for v in reversed(range(len(space.grids))):
        values = _along(v, partial(cell_sums, space.grids[v]), values)
    return np.sqrt(values)


def _check_exponent(p: float) -> None:
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")


def _jn_ratios(space, samples: np.ndarray, inside: np.ndarray, volumes: list,
               ps: list) -> list:
    """The :func:`jn_check` ratios of a stack of functions: for each p in
    ``ps``, the list of the ratios at p of the columns of ``samples``
    (*shape, columns) on ``space``. Column c's region has the indicator
    ``inside[..., c]`` on the cube axes (:func:`_inside` per variable) and
    the volume ``volumes[c]``. One transform and one table of masses serve
    the square functions and the BMO norms; the norms are taken per column,
    so every column gets the bits it has alone."""
    masses = _masses(space, forward_space(space, samples))
    square = _region_square(space, masses, inside)
    bmo = _bmo_of_masses(space, masses)
    rows = np.ascontiguousarray(square.reshape(-1, square.shape[-1]).T)
    cell_volume = math.prod(g.cell_volume for g in space.grids)
    return [[norm / (float(b) * volume ** (1.0 / p)) if b != 0.0 else 0.0
             for norm, b, volume in zip(_lp_norms(rows, cell_volume, p), bmo, volumes)]
            for p in ps]


def jn_check(a, region, p: float) -> float:
    """Localized square-function L^p mass against the BMO bound.

    ``region`` is a DyadicCube (one-parameter) or a pair of cubes (rectangle).
    Returns ||(sum_{J in region} <a,h_J>^2 chi_J/|J|)^(1/2)||_p divided by
    bmo(a) |region|^(1/p); at p = 2 the ratio is at most 1 exactly.
    """
    space = a.space
    cubes = (region,) if isinstance(region, DyadicCube) else tuple(region)
    inside = reduce(np.multiply.outer, [
        _inside(g, cube) for g, cube in zip(space.grids, cubes, strict=True)])
    volume = math.prod(g.volume(cube.level) for g, cube in zip(space.grids, cubes))
    _check_exponent(p)
    ((ratio,),) = _jn_ratios(space, a.samples[..., None], inside[..., None], [volume], [p])
    return ratio


def jn_study(grid: GridSpec, ps, trials: int, rng_seed: int, counters: dict = None) -> dict:
    """Worst :func:`jn_check` ratio over random trials, {p: worst} for every p
    in ``ps``.

    Trial t draws a's samples, a level, then a cube of that level from
    ``_trial_rng(rng_seed, t)``; its ratio at every p is ``jn_check(a, cube,
    p)`` bit for bit. The trials run in blocks of max(1, 2**13 // n_samples),
    so memory does not grow with ``trials``. Each block is one
    :func:`_jn_ratios` call on its a stack, with one ancestor scan of the
    region marks. A ``counters`` dict receives {"trials", "blocks"}.
    ``trials`` must be at least 1, and ``ps`` must hold an exponent.
    """
    _require_at_least(1, trials=trials)
    ps = list(dict.fromkeys(ps))
    if not ps:
        raise ValueError("ps must hold at least one exponent, got none")
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
        ratios = _jn_ratios(grid, a, mark + idx.ancestor_scan(mark), volumes, ps)
        for p, block_ratios in zip(ps, ratios):
            worst[p] = max(worst[p], *block_ratios)

    blocks = _in_blocks(range(trials), n, run_block)
    if counters is not None:
        counters.update(trials=trials, blocks=blocks)
    return worst


# ---------------------------------------------------------------------------
# Geometric weight schedule.


def geometric_constant(delta: float, cap: int) -> float:
    """sum_{i,j=0..cap} 2**(-max(i,j) delta/2) (1 + max(i,j)), cap-truncated;
    a negative ``cap`` raises ValueError."""
    if not (0.0 < delta <= 2.0 + 1e-12):
        raise ValueError("delta must lie in (0, 2]")
    _require_at_least(0, cap=cap)
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
    A negative ``cap`` raises ValueError.
    """
    _require_at_least(0, cap=cap)
    x = 2.0 ** (-delta / 2.0)
    m = cap + 1
    first = (2 * m + 1) * (m + 1) * x ** m
    ratio = (1 + 2.0 / m) ** 2 * x
    if ratio < 1.0:
        return first / (1.0 - ratio)
    return float("inf")


def geometric_cap_for(delta: float) -> int:
    """Smallest cap of 8, 16, 32, ... below 100000 whose tail bound is below 1e-11."""
    cap = 8
    while cap < 100000:
        if geometric_constant_tail_bound(delta, cap) < 1e-11:
            return cap
        cap *= 2
    raise ValueError(f"no admissible cap below 100000 for delta={delta}")


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


def _trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of the trial named by ``key`` (its index, or its parameters
    and index) under master ``seed``; one stream per key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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


def _require_at_least(low: int, **counts: int) -> None:
    """Refuse a count below ``low``: a study without trials, or with a
    negative top parameter, runs over nothing and passes vacuously."""
    for name, value in counts.items():
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")


# The atoms of each study kind, one per variable: "B" is B_k with random
# betas, "B+" B_k with every beta +1, "P" the paraproduct and "P*" its
# adjoint. "S" is the square function S_k of the Sk kind, which is no atom.
STUDY_ATOMS = {"Bk": ("B",), "Sk": ("S",), "P": ("P",), "Bkl": ("B", "B"),
               "BPk": ("B+", "P"), "PBl": ("P", "B+"), "PP": ("P", "P"),
               "PP1": ("P*", "P")}


def uniformity_study(kind: str, space, trials: int, rng_seed: int, kmax: int = None,
                     lmax: int = None, counters: dict = None) -> list:
    """Max measured ratio ||op f|| / (bmo(b) ||f||) per parameter value, or
    ||S_k f|| / ||f|| for the Sk kind.

    ``STUDY_ATOMS[kind]`` holds one atom per variable, and the study follows
    from it. One atom runs on a GridSpec and two on a ProductGrid; ``space``
    is that grid or product grid, and one of the other type raises
    ``ValueError``. A B or S axis runs k (variable 1) or l (variable 2) from
    0 to ``kmax`` or ``lmax``, at most N - 1 of its variable, and to N - 1
    when None; a negative one raises ``ValueError``. A P axis has the one
    value None, whatever its top.

    Trials run in blocks of max(1, 2**13 // samples per trial) trials, so
    no stack of a block holds more than 2**13 samples (64 KiB) and memory
    does not grow with ``trials``. Trial t draws from ``_trial_rng(rng_seed,
    t)`` into column t of the block's stacks: b, then f (Sk draws f alone),
    then for each variable in turn its betas on a B axis or its symbol a on
    a P axis. Every symbol is scaled to BMO norm one, a / bmo(a), and stays
    out of the denominator. Each stack is transformed once per block, and
    each (k, l) of every kind but Sk is one
    :func:`~dyadlab.biparam.pair_apply` call (the symbols and the betas on
    the trailing axis) and one inverse transform per block. Norms and BMO
    denominators are taken per column and sum in each trial's own order, so
    no row depends on the block size. A ``counters`` dict receives
    {"trials", "combos", "blocks"}. ``trials`` must be at least 1.
    """
    _require_at_least(1, trials=trials)
    if kind not in STUDY_ATOMS:
        raise ValueError(f"unknown study kind {kind}")
    codes = STUDY_ATOMS[kind]
    one = len(codes) == 1
    need = GridSpec if one else ProductGrid
    if not isinstance(space, need):
        raise ValueError(f"study kind {kind} runs on a {need.__name__}, "
                         f"not a {type(space).__name__}")
    grids = space.grids if one else space.two_grids(f"study kind {kind}")
    ranges = [[None], [None]]  # of k and l; None on a P axis or a missing variable
    for v, (g, code, top) in enumerate(zip(grids, codes, (kmax, lmax))):
        if code[0] != "P":
            top = g.N - 1 if top is None else top
            _require_at_least(0, **{("kmax", "lmax")[v]: top})
            ranges[v] = range(min(top, g.N - 1) + 1)  # B_k and S_k need k <= N - 1
    combos = list(itertools.product(*ranges))
    cells = tuple(g.n_samples for g in grids)
    draws = {"f": cells} if codes == ("S",) else {"b": cells, "f": cells}
    draws.update({v: (g.n_cubes_total,) if code == "B" else (g.n_samples,)
                  for v, (g, code) in enumerate(zip(grids, codes)) if code in ("B", "P", "P*")})
    volume = math.prod(g.cell_volume for g in grids)

    def symbol(g, a):
        """The coefficients of a / bmo(a) per trial column, mean row zeroed."""
        c = forward_stacked(g, a * (1.0 / _bmo_stacked(g, forward_stacked(g, a))))
        c[0] = 0.0
        return c

    def measure(s: dict) -> tuple:
        """(denominators, (k, l) -> output samples) of one block of trials,
        one column per trial."""
        if codes == ("S",):
            masses = _masses(space, forward_stacked(space, s["f"]))
            return _column_norms(s["f"], volume), lambda k, l: _square_Sk(space, masses, k)
        bC = forward_space(space, s["b"])
        Xe = forward_space(space, s["f"])
        if any(code[0] == "B" for code in codes):  # P atoms read no extended rows
            Xe = extend_space(space, Xe)
        denom = _bmo_stacked(space, bC) * _column_norms(s["f"], volume)
        # betas from normal draws: +1 or -1, +1 with probability about 0.69
        betas = [np.sign(s[v] + 0.5) if code == "B" else None for v, code in enumerate(codes)]
        syms = [symbol(g, s[v]) if code[0] == "P" else None
                for v, (g, code) in enumerate(zip(grids, codes))]

        def apply(k, l):
            atoms = tuple(PAtom(adjoint=code == "P*") if code[0] == "P"
                          else BkOperator(g, kl, beta=beta)
                          for g, code, kl, beta in zip(grids, codes, (k, l), betas))
            return inverse_space(space, pair_apply(space, bC, Xe, atoms, syms))
        return denom, apply

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

    blocks = _in_blocks(range(trials), math.prod(cells), run_block)
    if counters is not None:
        counters.update(trials=trials, combos=len(combos), blocks=blocks)
    return [NormReport(kind=kind, k=k, l=l, trials=trials, max_ratio=best[(k, l)],
                       seed=rng_seed) for (k, l) in combos]
