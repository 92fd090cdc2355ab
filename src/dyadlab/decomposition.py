"""Exact finite decompositions of multiplication commutators with dyadic shifts.

For a cancellative shift S of parameters (i, j), the commutator [M_b, S]
equals a finite signed sum of paraproduct terms

    B_k(b, S f)  for 0 <= k <= j      and      S(B_k(b, f))  for 0 <= k <= i,

where the k = 0 terms carry one noncancellative signature (they absorb the
averages over ancestors, torus mean mode included) and the k >= 1 terms are
martingale transforms whose +-1 beta sequences are sampled Haar-product
constants. For a noncancellative shift the list uses B_0 terms together with
the cube/subcube operator P (analysis orientation) or its adjoint (synthesis
orientation). The bi-parameter decomposition is the product of the
per-variable constructions; its terms combine a one-variable atom per
variable (a ``BkOperator`` on that variable's grid or a ``PAtom``) with
optional inner/outer shift compositions.

Everything here is exact linear algebra on the finite torus: the identity
``sum of terms == commutator`` holds to floating-point roundoff, which the
verification harness checks against independently evaluated commutators.

Both sides are linear in f, so evaluation runs on coefficient stacks with a
trailing trial axis: ``evaluate_stacked`` takes (n, T) arrays for one
parameter and (n1, n2, T) for two, and ``verify_identity`` puts all trials
in one stack, passing it once through the transforms, the direct
commutator (``multiplication_commutator_stacked`` /
``iterated_commutator_stacked``) and the term list. Each inner-shift input
is extended once (see :mod:`dyadlab.haar`), and the terms wrapped in the
same outer shift(s) sum into one extended buffer, which is contracted once
and passed through its shift composition once per evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grids import GridSpec, WrongKindError, grid_index
from .haar import (DyadicFunction, contract, extend, forward_stacked,
                   inverse_stacked)
from .paraproducts import (BkOperator, bk_stacked, p_stacked, pstar_stacked,
                           symbol_stacked)
from .biparam import (PAtom, ProductFunction, _swap, contract2, extend2,
                      forward2, forward2_stacked, inverse2, inverse2_stacked,
                      iterated_commutator_stacked, pair_apply)
from .shifts import ANALYSIS, ShiftOperator, multiplication_commutator_stacked
from .norms import _trial_rng, dyadic_bmo_norm, rect_bmo_norm


@dataclass(frozen=True)
class Term:
    """One summand of a decomposition.

    ``atom1``/``atom2`` are per-variable kernels (BkOperator or PAtom); ``inner*``
    applies that variable's shift to the input first, ``outer*`` wraps it
    around the output. One-parameter terms use variable 1 only.
    """

    weight: float
    kind: str
    provenance: str
    atom1: object
    atom2: object = None
    inner1: bool = False
    outer1: bool = False
    inner2: bool = False
    outer2: bool = False

    def describe(self) -> dict:
        out = {"weight": self.weight, "kind": self.kind,
               "provenance": self.provenance}
        for slot, atom in (("1", self.atom1), ("2", self.atom2)):
            if atom is None:
                continue
            if isinstance(atom, BkOperator):
                out[f"atom{slot}"] = {"type": "B", "k": atom.k, "sig_b": atom.sb,
                                      "sig_in": atom.si, "sig_out": atom.so}
            else:
                out[f"atom{slot}"] = {"type": "P", "adjoint": atom.adjoint}
        out["inner"] = [self.inner1, self.inner2]
        out["outer"] = [self.outer1, self.outer2]
        return out


@dataclass
class TermList:
    """Ordered decomposition terms bound to the symbol b and the shift(s)."""

    arity: int
    b: object
    shifts: tuple
    terms: list
    case: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.arity == 1:
            self._bc = forward_stacked(self.b.grid, self.b.samples)
        else:
            self._bc = forward2(self.b)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def drop(self, index: int) -> "TermList":
        """Copy with one term removed (harness sanity checks)."""
        terms = [t for n, t in enumerate(self.terms) if n != index]
        return TermList(self.arity, self.b, self.shifts, terms,
                        self.case, dict(self.meta))

    def to_json(self) -> str:
        obj = {"arity": self.arity, "case": self.case, "meta": self.meta,
               "terms": [t.describe() for t in self.terms],
               "b": json.loads(self.b.to_json()),
               "shifts": [json.loads(S.to_json()) for S in self.shifts]}
        return json.dumps(obj)


# ---------------------------------------------------------------------------
# Per-variable atom lists.


def _beta_from_sig(grid: GridSpec, k: int, sig_b: int):
    """Per-level +-1 sequences: the ancestor Haar sampled inside each cube."""
    if k == 0:
        return None
    idx = grid_index(grid)
    sig = grid.int_sig(sig_b)
    arrs = []
    for lvl in range(grid.N):
        if lvl < k:
            arrs.append(np.ones(grid.n_cubes(lvl)))
        else:
            arrs.append(idx.ancestor_haar_signs(lvl, k, sig))
    return tuple(arrs)


def _bk(grid: GridSpec, k: int, sb: int, si: int, so: int, beta=None) -> BkOperator:
    """B_k atom from integer signatures."""
    return BkOperator(grid, k, grid.int_sig(sb), grid.int_sig(si), grid.int_sig(so), beta)


def _cancellative_var_atoms(grid: GridSpec, i: int, j: int) -> list:
    """(weight, atom, inner, outer, provenance) for one cancellative variable;
    the b_mul (k <= j) and mul_S (k <= i) halves share their atoms."""
    non = grid.noncanc_int
    cancs = range(grid.n_sig)
    groups = [("tail", [_bk(grid, 0, eps, non, eps) for eps in cancs]),
              ("same_cube", [_bk(grid, 0, eps, eps2, non ^ (eps ^ eps2))
                             for eps in cancs for eps2 in cancs])]
    for k in range(1, max(i, j) + 1):
        betas = [_beta_from_sig(grid, k, eps) for eps in cancs]
        groups.append((f"depth_{k}", [_bk(grid, k, eps, eps2, eps2, betas[eps])
                                      for eps in cancs for eps2 in cancs]))
    out = []
    for weight, inner, half, depth in ((1.0, True, "b_mul", j), (-1.0, False, "mul_S", i)):
        for name, atoms in groups[:2 + depth]:
            out += [(weight, atom, inner, not inner, f"{half}:{name}") for atom in atoms]
    return out


def _noncancellative_var_atoms(grid: GridSpec, orientation: str) -> list:
    non = grid.noncanc_int
    cancs = range(grid.n_sig)
    out = []
    if orientation == ANALYSIS:
        for eps in cancs:
            for eps2 in cancs:
                out.append((1.0, _bk(grid, 0, eps, eps2, non ^ (eps ^ eps2)), True, False,
                            "b_mul:same_cube"))
        for eps in cancs:
            out.append((1.0, _bk(grid, 0, eps, non, eps), True, False, "b_mul:tail"))
        for eps in cancs:
            out.append((-1.0, _bk(grid, 0, eps, eps, non), False, True, "mul_S:same_cube"))
        out.append((1.0, PAtom(adjoint=False), False, False, "b_mul:diagonal"))
    else:
        for eps in cancs:
            out.append((1.0, _bk(grid, 0, eps, non, eps), True, False, "b_mul:tail"))
        for eps in cancs:
            for eps2 in cancs:
                out.append((-1.0, _bk(grid, 0, eps, non ^ (eps ^ eps2), eps2), False, True,
                            "mul_S:same_cube"))
        for eps in cancs:
            out.append((-1.0, _bk(grid, 0, eps, eps, non), False, True, "mul_S:tail"))
        out.append((-1.0, PAtom(adjoint=True), False, False, "b_mul:diagonal"))
    return out


def _var_atoms(grid: GridSpec, S: ShiftOperator) -> list:
    if S.cancellative:
        return _cancellative_var_atoms(grid, S.i, S.j)
    return _noncancellative_var_atoms(grid, S.orientation)


def _count_constant(grid: GridSpec, S: ShiftOperator) -> int:
    """Constant C of the count law |terms| <= C (1 + max(i,j)) per variable."""
    nsig = grid.n_sig
    if S.cancellative:
        return 2 * (nsig + nsig * nsig)
    return nsig * nsig + 2 * nsig + 1


# ---------------------------------------------------------------------------
# One-parameter decompositions.


def _one_param_terms(b: DyadicFunction, S: ShiftOperator, kinds: tuple) -> TermList:
    post_kind, pre_kind = kinds
    terms = []
    for weight, atom, inner, outer, prov in _var_atoms(b.grid, S):
        if isinstance(atom, PAtom):
            kind = "Pstar_term" if atom.adjoint else "P_term"
        else:
            kind = post_kind if inner or not outer else pre_kind
        terms.append(Term(weight, kind, prov, atom, inner1=inner, outer1=outer))
    case = "cancellative" if S.cancellative else f"noncancellative-{S.orientation}"
    C = _count_constant(b.grid, S)
    meta = {"term_count": len(terms), "count_constant": C,
            "count_bound": C * (1 + max(S.i, S.j)), "i": S.i, "j": S.j,
            "d": b.grid.d, "N": b.grid.N}
    return TermList(1, b, (S,), terms, case, meta)


def decompose_cancellative(b: DyadicFunction, S: ShiftOperator) -> TermList:
    """Term list with sum(terms)(f) = [M_b, S] f for every f, S cancellative."""
    if not S.cancellative:
        raise WrongKindError("decompose_cancellative needs a cancellative shift")
    if b.grid != S.grid:
        raise WrongKindError("b must live on the shift grid")
    return _one_param_terms(b, S, ("Bk_of_Sf", "S_of_Bk"))


def decompose_noncancellative(b: DyadicFunction, S: ShiftOperator) -> TermList:
    """Term list for a symbol-driven shift, either orientation."""
    if S.cancellative:
        raise WrongKindError("decompose_noncancellative needs a noncancellative shift")
    if b.grid != S.grid:
        raise WrongKindError("b must live on the shift grid")
    return _one_param_terms(b, S, ("B0_of_S00f", "S00_of_B0"))


def decompose(b: DyadicFunction, S: ShiftOperator) -> TermList:
    return decompose_cancellative(b, S) if S.cancellative \
        else decompose_noncancellative(b, S)


# ---------------------------------------------------------------------------
# Bi-parameter decomposition.


def _pair_kind(atom1, atom2, outer1, outer2) -> str:
    if isinstance(atom1, BkOperator) and isinstance(atom2, BkOperator):
        return "S_of_Bkl" if (outer1 or outer2) else "Bkl_of_Sf"
    if isinstance(atom1, BkOperator):
        return "BPk"
    if isinstance(atom2, BkOperator):
        return "PBl"
    key = (atom1.adjoint, atom2.adjoint)
    return {(False, False): "PP_term", (True, False): "PP1_term",
            (False, True): "PP2_term", (True, True): "PPstar_term"}[key]


def decompose_biparam(b: ProductFunction, S1: ShiftOperator,
                      S2: ShiftOperator) -> TermList:
    """Product of the per-variable constructions for [[M_b, S1], S2]."""
    pg = b.pgrid
    if S1.grid != pg.grid1:
        raise WrongKindError("S1 must act on variable 1 of b's product grid")
    if S2.grid != pg.grid2:
        raise WrongKindError("S2 must act on variable 2 of b's product grid")
    L1 = _var_atoms(pg.grid1, S1)
    L2 = _var_atoms(pg.grid2, S2)
    terms = []
    for w1, a1, in1, out1, prov1 in L1:
        for w2, a2, in2, out2, prov2 in L2:
            kind = _pair_kind(a1, a2, out1, out2)
            terms.append(Term(w1 * w2, kind, f"{prov1}|{prov2}", a1, a2,
                              inner1=in1, outer1=out1, inner2=in2, outer2=out2))
    C = _count_constant(pg.grid1, S1) * _count_constant(pg.grid2, S2)
    meta = {"term_count": len(terms), "count_constant": C,
            "count_bound": C * (1 + max(S1.i, S1.j)) * (1 + max(S2.i, S2.j)),
            "i1": S1.i, "j1": S1.j, "i2": S2.i, "j2": S2.j,
            "N1": pg.grid1.N, "N2": pg.grid2.N}
    case = f"biparam-{S1.kind}-{S2.kind}"
    return TermList(2, b, (S1, S2), terms, case, meta)


# ---------------------------------------------------------------------------
# Evaluation and verification.


def _evaluate_one_param(tl: TermList, x: np.ndarray) -> np.ndarray:
    g = tl.b.grid
    n = g.n_samples
    S = tl.shifts[0]
    # every term list reads both inputs and writes both outer-shift groups;
    # a group is one extended sum, contracted once, and S runs once on it
    inputs = {False: extend(g, x), True: extend(g, S.apply_stacked(x))}
    groups = {key: np.zeros(xe.shape) for key, xe in inputs.items()}
    sym = None if S.cancellative else symbol_stacked(S.symbol)
    for term in tl.terms:
        xin, acc = inputs[term.inner1], groups[term.outer1]
        if isinstance(term.atom1, PAtom):
            p = pstar_stacked if term.atom1.adjoint else p_stacked
            acc[:n] += term.weight * p(g, tl._bc, sym, xin[:n])
        else:
            acc += term.weight * bk_stacked(term.atom1, tl._bc, xin)
    return contract(g, groups[False]) + S.apply_stacked(contract(g, groups[True]))


def _evaluate_biparam(tl: TermList, x: np.ndarray) -> np.ndarray:
    pg = tl.b.pgrid
    S1, S2 = tl.shifts
    sym1 = None if S1.cancellative else symbol_stacked(S1.symbol)
    sym2 = None if S2.cancellative else symbol_stacked(S2.symbol)
    sym12 = None
    if sym1 is not None and sym2 is not None:
        sym12 = np.outer(sym1, sym2)
    # every term list reads all four inner-shift compositions of x (S2 runs
    # once, S1 twice) and writes all four outer-shift groups; a group is one
    # extended sum, contracted once before its shifts run
    s2x = _swap(S2.apply_stacked(_swap(x)))
    shifted = {(False, False): x, (False, True): s2x,
               (True, False): S1.apply_stacked(x), (True, True): S1.apply_stacked(s2x)}
    inputs = {key: extend2(pg, y) for key, y in shifted.items()}
    groups = {key: np.zeros(xe.shape) for key, xe in inputs.items()}
    for term in tl.terms:
        pair_apply(pg, tl._bc, inputs[(term.inner1, term.inner2)], term.atom1, term.atom2,
                   sym1=sym1, sym2=sym2, sym12=sym12, out=groups[(term.outer1, term.outer2)],
                   weight=term.weight)
    total = np.zeros(x.shape)
    for (o1, o2), acc in groups.items():
        y = contract2(pg, acc)
        if o1:
            y = S1.apply_stacked(y)
        if o2:
            y = _swap(S2.apply_stacked(_swap(y)))
        total += y
    return total


def evaluate_stacked(tl: TermList, x: np.ndarray) -> np.ndarray:
    """Sum of all terms on a coefficient stack with trailing passive axes.

    ``x`` is (n, *passive) for one parameter and (n1, n2, *passive) for two;
    each column is evaluated as by :func:`evaluate_terms`.
    """
    if tl.arity == 1:
        return _evaluate_one_param(tl, x)
    return _evaluate_biparam(tl, x)


def evaluate_terms(tl: TermList, f):
    """Sum of all terms applied to ``f`` (coefficient-space, one inverse at the end)."""
    if tl.arity == 1:
        g = tl.b.grid
        y = evaluate_stacked(tl, forward_stacked(g, f.samples))
        return DyadicFunction(g, inverse_stacked(g, y))
    pg = tl.b.pgrid
    return inverse2(pg, evaluate_stacked(tl, forward2(f)))


def _trial_samples(shape: tuple, rng_seed: int, trials: int) -> np.ndarray:
    """(*shape, trials) Gaussian samples; column t is trial t's own draw."""
    out = np.empty(shape + (trials,))
    for t in range(trials):
        out[..., t] = _trial_rng(rng_seed, t).standard_normal(shape)
    return out


def _max_residual(direct: np.ndarray, approx: np.ndarray, samples: np.ndarray,
                  scale: float, cell_volume: float) -> float:
    """Largest per-column ||direct - approx|| / (scale ||f||) over the trials."""

    def norm(col):
        # a contiguous column sums in the order the functions' norm() does
        return float(np.sqrt(np.sum(np.ascontiguousarray(col) ** 2) * cell_volume))

    diff = direct - approx
    max_res = 0.0
    for t in range(samples.shape[-1]):
        denom = scale * norm(samples[..., t])
        res = norm(diff[..., t])
        max_res = max(max_res, res / denom if denom > 0 else res)
    return max_res


def verify_identity(b, shifts, trials: int, rng_seed: int,
                    tol: float = 1e-9) -> dict:
    """Check sum(terms)(f) == commutator(f) on random inputs.

    Trial t draws f from ``_trial_rng(rng_seed, t)``; all trials run as the
    columns of one stack. Residuals are measured per trial relative to
    bmo(b) * ||f||. Returns the report dict {case, d, N, i, j, term_count,
    max_residual, pass, seed, trials}.
    """
    if isinstance(shifts, ShiftOperator):
        shifts = (shifts,)
    if len(shifts) == 1:
        S = shifts[0]
        tl = decompose(b, S)
        g = b.grid
        F = _trial_samples((g.n_samples,), rng_seed, trials)
        direct = multiplication_commutator_stacked(b, S, F)
        approx = inverse_stacked(g, evaluate_stacked(tl, forward_stacked(g, F)))
        max_res = _max_residual(direct, approx, F, dyadic_bmo_norm(b), g.cell_volume)
        report = {"case": tl.case, "d": g.d, "N": g.N, "i": S.i, "j": S.j,
                  "term_count": tl.term_count, "max_residual": max_res,
                  "pass": bool(max_res < tol), "seed": rng_seed, "trials": trials}
        return report
    S1, S2 = shifts
    tl = decompose_biparam(b, S1, S2)
    pg = b.pgrid
    F = _trial_samples(pg.shape, rng_seed, trials)
    direct = iterated_commutator_stacked(b, S1, S2, F)
    approx = inverse2_stacked(pg, evaluate_stacked(tl, forward2_stacked(pg, F)))
    cell_volume = pg.grid1.cell_volume * pg.grid2.cell_volume
    max_res = _max_residual(direct, approx, F, rect_bmo_norm(b), cell_volume)
    report = {"case": tl.case, "d": [pg.grid1.d, pg.grid2.d],
              "N": [pg.grid1.N, pg.grid2.N],
              "i": [S1.i, S2.i], "j": [S1.j, S2.j],
              "term_count": tl.term_count, "max_residual": max_res,
              "pass": bool(max_res < tol), "seed": rng_seed, "trials": trials}
    return report
