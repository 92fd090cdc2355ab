"""BMO norms, square and maximal functions, and empirical boundedness studies.

The dyadic BMO norm is the sup over cubes of the normalized coefficient mass

    ||b||_bmo = sup_I ( |I|**(-1) sum_{J inside I, cancellative} <b,h_J>**2 )**(1/2)

(mean mode excluded). The rectangle BMO norm is the bi-parameter analogue
over dyadic rectangles; it lower-bounds the open-set product norm, which is
computed here by exhaustive enumeration only at toy sizes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .grids import DepthError, GridSpec, grid_index
from .haar import (DyadicFunction, broadcast_level, contract, extend,
                   forward_stacked, inverse_stacked, pool_level)
from .biparam import ProductFunction, ProductGrid, forward2, random_product_function


# ---------------------------------------------------------------------------
# BMO norms.


def _subtree_masses(grid: GridSpec, stacked: np.ndarray) -> list:
    """sum of squared cancellative coefficients over each cube's subtree."""
    own = [(grid.level_block(stacked, lvl) ** 2).sum(axis=1) for lvl in range(grid.N)]
    below = grid_index(grid).subtree_scan(own)
    return [o + s for o, s in zip(own, below)]


def dyadic_bmo_norm(b: DyadicFunction) -> float:
    """Dyadic BMO norm; invariant under adding constants, homogeneous of degree 1."""
    return _bmo_stacked(b.grid, forward_stacked(b.grid, b.samples))


def _bmo_stacked(grid: GridSpec, stacked: np.ndarray) -> float:
    """:func:`dyadic_bmo_norm` from the stacked coefficients of b."""
    masses = _subtree_masses(grid, stacked)
    best = 0.0
    for lvl in range(grid.N):
        best = max(best, float(np.max(masses[lvl])) * 2.0 ** (lvl * grid.d))
    return float(np.sqrt(best))


def rect_bmo_norm(b: ProductFunction) -> float:
    """Sup over dyadic rectangles of the normalized coefficient mass."""
    return _rect_bmo_stacked(b.pgrid, forward2(b))


def _rect_bmo_stacked(pg: ProductGrid, C: np.ndarray) -> float:
    """:func:`rect_bmo_norm` from the stacked coefficients ``C`` of b."""
    g1, g2 = pg.grid1, pg.grid2
    i1, i2 = grid_index(g1), grid_index(g2)
    # per-(level pair) squared coefficients summed over both signature axes
    sq = {}
    for l1 in range(g1.N):
        blk1 = g1.level_block(C, l1)  # (nc1, nsig1, n2tot)
        for l2 in range(g2.N):
            blk = g2.level_block(blk1.reshape(-1, C.shape[1]).T, l2)
            # blk: (nc2, nsig2, nc1*nsig1) -> sum sig axes
            t = blk.reshape(g2.n_cubes(l2), g2.n_sig, g1.n_cubes(l1), g1.n_sig)
            sq[(l1, l2)] = (t ** 2).sum(axis=(1, 3)).T  # (nc1, nc2)
    # double subtree accumulation, finest to coarsest in both variables
    acc = {}
    best = 0.0
    for l1 in range(g1.N - 1, -1, -1):
        for l2 in range(g2.N - 1, -1, -1):
            m = sq[(l1, l2)].copy()
            if l1 + 1 < g1.N:
                m += acc[(l1 + 1, l2)][i1.desc_groups(l1, 1)].sum(axis=1)
            if l2 + 1 < g2.N:
                m += acc[(l1, l2 + 1)].T[i2.desc_groups(l2, 1)].sum(axis=1).T
            if l1 + 1 < g1.N and l2 + 1 < g2.N:
                inner = acc[(l1 + 1, l2 + 1)][i1.desc_groups(l1, 1)].sum(axis=1)
                m -= inner.T[i2.desc_groups(l2, 1)].sum(axis=1).T
            acc[(l1, l2)] = m
            weight = 2.0 ** (l1 * g1.d + l2 * g2.d)
            best = max(best, float(np.max(m)) * weight)
    return float(np.sqrt(best))


def open_set_bmo_norm(b: ProductFunction) -> float:
    """Product BMO over arbitrary unions of cells; exponential, toy sizes only."""
    pg = b.pgrid
    g1, g2 = pg.grid1, pg.grid2
    n_cells = g1.n_samples * g2.n_samples
    if n_cells > 16:
        raise ValueError("open-set enumeration is exponential; use tiny grids")
    C = forward2(b)
    rects = []  # (cell mask, coefficient mass)
    for l1 in range(g1.N):
        cells1 = grid_index(g1).cells(l1)
        blk1 = g1.level_block(C, l1)
        for l2 in range(g2.N):
            cells2 = grid_index(g2).cells(l2)
            for m1 in range(g1.n_cubes(l1)):
                for m2 in range(g2.n_cubes(l2)):
                    mask = np.zeros((g1.n_samples, g2.n_samples), dtype=bool)
                    mask[np.ix_(cells1[m1], cells2[m2])] = True
                    t = g2.level_block(blk1[m1].T, l2)[m2]
                    rects.append((mask.reshape(-1), float((t ** 2).sum())))
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
    if variant == "S":
        return _square_S(f)
    if variant == "S_k":
        return _square_Sk(f, k)
    if variant == "SS":
        return _square_SS(f)
    if variant == "hybrid_max_square":
        return _hybrid_max_square(f, var)
    raise ValueError(f"unknown square function variant {variant}")


def _square_S(f: DyadicFunction) -> DyadicFunction:
    g = f.grid
    stacked = forward_stacked(g, f.samples)
    acc = np.zeros(g.n_samples)
    for lvl in range(g.N):
        mass = (g.level_block(stacked, lvl) ** 2).sum(axis=1)
        acc += broadcast_level(g, lvl, mass * 2.0 ** (lvl * g.d))
    return DyadicFunction(g, np.sqrt(acc))


def _square_Sk(f: DyadicFunction, k: int) -> DyadicFunction:
    g = f.grid
    if k >= g.N:
        raise DepthError(f"k={k} outside the levels 0..{g.N - 1} below the root")
    idx = grid_index(g)
    stacked = forward_stacked(g, f.samples)
    acc = np.zeros(g.n_samples)
    for lvl in range(k, g.N):
        mass = (g.level_block(stacked, lvl) ** 2).sum(axis=1)
        anc = idx.ancestor_flat(lvl, k)
        grouped = np.zeros(g.n_cubes(lvl - k))
        np.add.at(grouped, anc, mass)
        acc += broadcast_level(g, lvl - k, grouped * 2.0 ** ((lvl - k) * g.d))
    return DyadicFunction(g, np.sqrt(acc))


def _square_SS(f: ProductFunction) -> ProductFunction:
    pg = f.pgrid
    g1, g2 = pg.grid1, pg.grid2
    C = forward2(f)
    acc = np.zeros(pg.shape)
    for l1 in range(g1.N):
        blk1 = g1.level_block(C, l1)
        for l2 in range(g2.N):
            t = g2.level_block(blk1.reshape(-1, C.shape[1]).T, l2)
            t = t.reshape(g2.n_cubes(l2), g2.n_sig, g1.n_cubes(l1), g1.n_sig)
            mass = (t ** 2).sum(axis=(1, 3)).T * 2.0 ** (l1 * g1.d + l2 * g2.d)
            rows = broadcast_level(g1, l1, mass)
            acc += broadcast_level(g2, l2, rows.T).T
    return ProductFunction(pg, np.sqrt(acc))


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
    acc = np.zeros((g_sq.n_samples, g_max.n_samples))
    for lvl in range(g_sq.N):
        blk = g_sq.level_block(pairings, lvl)  # (ncubes, nsig, n_max_cells)
        m = np.zeros((g_sq.n_cubes(lvl), g_sq.n_sig, g_max.n_samples))
        for s in range(g_sq.n_sig):
            m[:, s] = _dyadic_max_samples(g_max, blk[:, s].T).T
        mass = (m ** 2).sum(axis=1) * 2.0 ** (lvl * g_sq.d)
        acc += broadcast_level(g_sq, lvl, mass)
    out = np.sqrt(acc)
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
    return float((np.sum(np.abs(samples) ** p) * cell_volume) ** (1.0 / p))


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
        cube = region
        stacked = forward_stacked(g, a.samples)
        idx = grid_index(g)
        flat0 = g.flat_pos(cube.pos, cube.level)
        acc = np.zeros(g.n_samples)
        for lvl in range(cube.level, g.N):
            inside = idx.ancestor_flat(lvl, lvl - cube.level) == flat0
            mass = (g.level_block(stacked, lvl) ** 2).sum(axis=1) * inside
            acc += broadcast_level(g, lvl, mass * 2.0 ** (lvl * g.d))
        return np.sqrt(acc), g.cell_volume, dyadic_bmo_norm(a), g.volume(cube.level)
    # rectangle case
    pg = a.pgrid
    g1, g2 = pg.grid1, pg.grid2
    cube1, cube2 = region
    C = forward2(a)
    i1, i2 = grid_index(g1), grid_index(g2)
    f10 = g1.flat_pos(cube1.pos, cube1.level)
    f20 = g2.flat_pos(cube2.pos, cube2.level)
    acc = np.zeros(pg.shape)
    for l1 in range(cube1.level, g1.N):
        in1 = i1.ancestor_flat(l1, l1 - cube1.level) == f10
        blk1 = g1.level_block(C, l1)
        for l2 in range(cube2.level, g2.N):
            in2 = i2.ancestor_flat(l2, l2 - cube2.level) == f20
            t = g2.level_block(blk1.reshape(-1, C.shape[1]).T, l2)
            t = t.reshape(g2.n_cubes(l2), g2.n_sig, g1.n_cubes(l1), g1.n_sig)
            mass = (t ** 2).sum(axis=(1, 3)).T * np.outer(in1, in2)
            mass = mass * 2.0 ** (l1 * g1.d + l2 * g2.d)
            rows = broadcast_level(g1, l1, mass)
            acc += broadcast_level(g2, l2, rows.T).T
    return (np.sqrt(acc), g1.cell_volume * g2.cell_volume, rect_bmo_norm(a),
            g1.volume(cube1.level) * g2.volume(cube2.level))


def jn_ratio(profile: tuple, p: float) -> float:
    """The :func:`jn_check` ratio at exponent ``p`` from a :func:`jn_profile`."""
    if not (1.0 < p < np.inf):
        raise ValueError("p must lie in (1, inf)")
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


def _random_signs(grid: GridSpec, rng) -> tuple:
    """Per-level betas, each +1 or -1 (+1 with probability about 0.69)."""
    return tuple(np.sign(rng.standard_normal(grid.n_cubes(lvl)) + 0.5)
                 for lvl in range(grid.N))


def uniformity_study(kind: str, params: dict, trials: int, rng_seed: int,
                     grid: GridSpec = None, pgrid: ProductGrid = None) -> list:
    """Max measured ratio ||op|| / (BMO factors * ||f||) per parameter value.

    Kinds: ``Bk`` (k range), ``Sk`` (square-function variant), ``Bkl``
    ((k,l) range), ``BPk``, ``PBl``, ``PP``, ``PP1``, ``P``.
    """
    from .paraproducts import BkOperator, apply_P, bk_stacked
    from .biparam import (BiparamOperatorSpec, biparam_operands, extend2,
                          inverse2, pair_apply, tensor_function)
    from .haar import random_function
    reports = []
    if kind == "Bk":
        grid = grid or GridSpec(1, params.get("N", 8))
        ks = range(params.get("kmax", 8) + 1)
        # every draw of a trial is independent of k, so each trial is drawn
        # and transformed once and measured against every k
        best = dict.fromkeys(ks, 0.0)
        for t in range(trials):
            rng = _trial_rng(rng_seed, t)
            b = random_function(grid, rng)
            f = random_function(grid, rng)
            beta = _random_signs(grid, rng)
            bc = forward_stacked(grid, b.samples)
            xe = extend(grid, forward_stacked(grid, f.samples))
            denom = _bmo_stacked(grid, bc) * f.norm()
            for k in ks:
                op = BkOperator(grid, k, beta=beta)
                if denom > 0:
                    out = inverse_stacked(grid, contract(grid, bk_stacked(op, bc, xe)))
                    best[k] = max(best[k], DyadicFunction(grid, out).norm() / denom)
        reports += [NormReport(kind="Bk", k=k, trials=trials, max_ratio=best[k],
                               seed=rng_seed) for k in ks]
    elif kind == "Sk":
        grid = grid or GridSpec(1, params.get("N", 8))
        for k in range(params.get("kmax", 6) + 1):
            best = 0.0
            for t in range(trials):
                rng = _trial_rng(rng_seed, t)
                f = random_function(grid, rng)
                best = max(best, square_function(f, "S_k", k=k).norm() / f.norm())
            reports.append(NormReport(kind="Sk", k=k, trials=trials,
                                      max_ratio=best, seed=rng_seed))
    elif kind == "P":
        grid = grid or GridSpec(1, params.get("N", 6))
        best = 0.0
        for t in range(trials):
            rng = _trial_rng(rng_seed, t)
            b = random_function(grid, rng)
            a = random_function(grid, rng)
            f = random_function(grid, rng)
            denom = dyadic_bmo_norm(b) * dyadic_bmo_norm(a) * f.norm()
            if denom > 0:
                best = max(best, apply_P(b, a, f).norm() / denom)
        reports.append(NormReport(kind="P", trials=trials, max_ratio=best,
                                  seed=rng_seed))
    elif kind in ("Bkl", "BPk", "PBl", "PP", "PP1"):
        pgrid = pgrid or ProductGrid(GridSpec(1, params.get("N1", 4)),
                                     GridSpec(1, params.get("N2", 4)))
        # B_k needs k <= N - 1 in its variable
        kmax = min(params.get("kmax", 2), pgrid.grid1.N - 1)
        lmax = min(params.get("lmax", 2), pgrid.grid2.N - 1)
        if kind == "Bkl":
            combos = [(k, l) for k in range(kmax + 1) for l in range(lmax + 1)]
        elif kind == "BPk":
            combos = [(k, None) for k in range(kmax + 1)]
        elif kind == "PBl":
            combos = [(None, l) for l in range(lmax + 1)]
        else:
            combos = [(None, None)]
        # every draw of a trial is independent of (k, l), so each trial is
        # drawn and transformed once and measured against all combos
        best = dict.fromkeys(combos, 0.0)
        for t in range(trials):
            rng = _trial_rng(rng_seed, t)
            b = random_product_function(pgrid, rng)
            f = random_product_function(pgrid, rng)
            bC = forward2(b)
            denom = _rect_bmo_stacked(pgrid, bC) * f.norm()
            if kind == "Bkl":
                fields = {"beta1": _random_signs(pgrid.grid1, rng),
                          "beta2": _random_signs(pgrid.grid2, rng)}
            elif kind == "BPk":
                a2 = random_function(pgrid.grid2, rng)
                fields = {"a2": a2 * (1.0 / dyadic_bmo_norm(a2))}
            elif kind == "PBl":
                a1 = random_function(pgrid.grid1, rng)
                fields = {"a1": a1 * (1.0 / dyadic_bmo_norm(a1))}
            else:
                a1 = random_function(pgrid.grid1, rng)
                a2 = random_function(pgrid.grid2, rng)
                fields = {"a": tensor_function(a1 * (1.0 / dyadic_bmo_norm(a1)),
                                               a2 * (1.0 / dyadic_bmo_norm(a2)))}
            if denom > 0:
                Xe = extend2(pgrid, forward2(f))
                for (k, l) in combos:
                    spec = BiparamOperatorSpec(kind, k=k or 0, l=l or 0, **fields)
                    out = pair_apply(pgrid, bC, Xe, *biparam_operands(spec, pgrid))
                    best[(k, l)] = max(best[(k, l)], inverse2(pgrid, out).norm() / denom)
        reports += [NormReport(kind=kind, k=k, l=l, trials=trials,
                               max_ratio=best[(k, l)], seed=rng_seed) for (k, l) in combos]
    else:
        raise ValueError(f"unknown study kind {kind}")
    return reports
