"""Exact finite decompositions of multiplication commutators with dyadic shifts.

For a cancellative shift S of parameters (i, j), the commutator [M_b, S]
equals a finite signed sum of paraproduct terms

    B_k(b, S f)  for 0 <= k <= j      and      S(B_k(b, f))  for 0 <= k <= i,

where the k = 0 terms carry one noncancellative signature (they absorb the
averages over ancestors, torus mean mode included) and the k >= 1 terms are
martingale transforms whose +-1 beta sequences are sampled Haar-product
constants. For a noncancellative shift the list uses B_0 terms together with
the cube/subcube operator P (analysis orientation) or its adjoint (synthesis
orientation). ``decompose(b, *shifts)`` takes one shift per variable of
b's grid or product grid and builds the product of the per-variable
constructions: a term holds per variable one atom (a ``BkOperator`` on
that variable's grid or a ``PAtom``) and whether the shift composes
inside or outside it.

Everything here is exact linear algebra on the finite torus: the identity
``sum of terms == commutator`` holds to floating-point roundoff, which the
verification harness checks against independently evaluated commutators.

Both sides are linear in f, so evaluation runs on coefficient stacks with a
trailing trial axis, (n, T) for one parameter and (n1, ..., nt, T) for t.
Outside the term kernels every step runs along the ``grids`` of the
list's space, one loop for every t.
``evaluate_stacked`` is one evaluator for any number t of variables and
for a block of cases, which sit on a case axis before the trial axis,
(n, C, T) or (n1, ..., nt, C, T); a single term list is a block of one. It stacks the 2^t
inner-shift compositions of the input on a key axis and extends them in
one call per variable (see :mod:`dyadlab.haar`), sums every term into the
extended buffer of its outer-shift group, and contracts all 2^t groups in
one call per variable before their shifts run. Each term carries the tuple
of its entries' keys, one per variable, and within one family (the shift
kinds and orientations) key order is list order. So the cases of a family
share one sweep, the union of their terms sorted by key: a term is one
:func:`~dyadlab.biparam.pair_apply` call with one atom and one symbol per
variable at every t (the 1-D kernel at t = 1; at t >= 2 a P-type pair is
two tree scans), with b, the symbols and the weights
on the case axis, weight 0 for a case that lacks the term. A single list is
a family of one on the same path. ``decompose`` assembles each list from
the B atom groups of :mod:`dyadlab.paraproducts` and its family's term
pool, both built once per grid (``grid_index(grid).memo``), so a term is
one object in every list of its family; the list binds b and transforms
it on first use. Each case's shifts run once per
variable and stage of a sweep, on every key that takes them at once (twice
per variable at t >= 2).
``verify_identity`` passes all trials of a block of cases once through the
transforms, the direct commutators and one term sweep, and transforms the
block's symbols once. Its one t = 1 branch transforms f and every b f
together for both the direct commutator and the sweep; at t >= 2 the
direct commutators are one :func:`~dyadlab.shifts.commutator_stacked` call
for the block.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .grids import GridMismatchError, GridSpec, WrongKindError, grid_index
from .haar import (SampledFunction, contract_space, extend_space,
                   forward_space, inverse_space)
from .paraproducts import BkOperator, _atom_group
from .biparam import PAtom, pair_apply
from .shifts import ANALYSIS, ShiftOperator, _each_case, commutator_stacked
from .norms import _bmo_stacked, _column_norms, _require_at_least, _trial_rng


@dataclass(frozen=True)
class Term:
    """One summand of a decomposition.

    ``atoms`` holds one kernel per variable (BkOperator or PAtom); ``inner``
    and ``outer`` hold one flag per variable, whether that variable's shift
    is applied to the input first or wrapped around the output. ``key``
    names the term in its family: the tuple of its entries' keys, one per
    variable (see :func:`_var_atoms`); the keys of a list ascend, and a
    term without a key cannot be swept.
    """

    weight: float
    kind: str
    provenance: str
    atoms: tuple
    inner: tuple
    outer: tuple
    key: object = field(default=None, compare=False)

    def describe(self) -> dict:
        """The released layout: ``atom1`` .. ``atom{t}``, one per variable,
        and one inner and one outer flag per variable, padded with False to
        two at one variable."""
        out = {"weight": self.weight, "kind": self.kind,
               "provenance": self.provenance}
        for v, atom in enumerate(self.atoms, 1):
            if isinstance(atom, BkOperator):
                out[f"atom{v}"] = {"type": "B", "k": atom.k, "sig_b": atom.sb,
                                   "sig_in": atom.si, "sig_out": atom.so}
            else:
                out[f"atom{v}"] = {"type": "P", "adjoint": atom.adjoint}
        pad = [False] * (2 - len(self.atoms))
        out["inner"] = list(self.inner) + pad
        out["outer"] = list(self.outer) + pad
        return out


@dataclass
class TermList:
    """Ordered decomposition terms bound to the symbol b and one shift per
    variable."""

    b: object
    shifts: tuple
    terms: list
    case: str
    meta: dict = field(default_factory=dict)

    @property
    def arity(self) -> int:
        """The number of variables, one shift each."""
        return len(self.shifts)

    @property
    def space(self):
        """The grid, or the product grid, that b lives on."""
        return self.b.space

    @cached_property
    def _bc(self) -> np.ndarray:
        """Stacked coefficients of b, transformed on first use; a block of
        :func:`verify_identity` sets them from one transform of its symbols."""
        return forward_space(self.space, self.b.samples)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def drop(self, index: int) -> "TermList":
        """Copy without the term at ``index``, a list index: -1 is the last
        term, and one out of range raises ``IndexError``."""
        terms = list(self.terms)
        del terms[index]
        return TermList(self.b, self.shifts, terms, self.case, dict(self.meta))

    def to_json(self) -> str:
        obj = {"arity": self.arity, "case": self.case, "meta": self.meta,
               "terms": [t.describe() for t in self.terms],
               "b": json.loads(self.b.to_json()),
               "shifts": [json.loads(S.to_json()) for S in self.shifts]}
        return json.dumps(obj)


# ---------------------------------------------------------------------------
# Per-variable atom lists.


def _cancellative_var_atoms(grid: GridSpec, i: int, j: int) -> list:
    """(key, weight, atom, inner, outer, provenance) for one cancellative
    variable; the b_mul (k <= j) and mul_S (k <= i) halves share their
    atoms. The key (half, group, atom) names an entry at every (i, j)."""
    groups = [("tail", _atom_group(grid, "tail")),
              ("same_cube", _atom_group(grid, "same_cube"))]
    groups += [(f"depth_{k}", _atom_group(grid, k)) for k in range(1, max(i, j) + 1)]
    out = []
    for h, (weight, inner, half, depth) in enumerate(((1.0, True, "b_mul", j),
                                                      (-1.0, False, "mul_S", i))):
        for g, (name, atoms) in enumerate(groups[:2 + depth]):
            out += [((h, g, a), weight, atom, inner, not inner, f"{half}:{name}")
                    for a, atom in enumerate(atoms)]
    return out


def _noncancellative_var_atoms(grid: GridSpec, orientation: str) -> list:
    """(key, weight, atom, inner, outer, provenance) for one noncancellative
    variable, the key an entry's index in its orientation's one list; an
    atom that two terms share is one object."""
    tail, diagonal = _atom_group(grid, "tail"), _atom_group(grid, "diagonal")
    out = []
    if orientation == ANALYSIS:
        out += [(1.0, atom, True, False, "b_mul:same_cube")
                for atom in _atom_group(grid, "same_cube")]
        out += [(1.0, atom, True, False, "b_mul:tail") for atom in tail]
        out += [(-1.0, atom, False, True, "mul_S:same_cube") for atom in diagonal]
        out.append((1.0, PAtom(adjoint=False), False, False, "b_mul:diagonal"))
    else:
        out += [(1.0, atom, True, False, "b_mul:tail") for atom in tail]
        out += [(-1.0, atom, False, True, "mul_S:same_cube")
                for atom in _atom_group(grid, "swapped")]
        out += [(-1.0, atom, False, True, "mul_S:tail") for atom in diagonal]
        out.append((-1.0, PAtom(adjoint=True), False, False, "b_mul:diagonal"))
    return [(n,) + entry for n, entry in enumerate(out)]


def _family(S: ShiftOperator) -> tuple:
    """A shift's family, (kind, orientation) with no orientation for a
    cancellative shift: the key of its term pool and of a sweep."""
    return (S.kind, None if S.cancellative else S.orientation)


def _var_atoms(S: ShiftOperator) -> list:
    """(key, weight, atom, inner, outer, provenance) per entry of the list
    of one variable, on S's grid; the key names an entry in every list of
    S's family (a noncancellative list is one list), and the keys of a list
    ascend in list order."""
    if S.cancellative:
        return _cancellative_var_atoms(S.grid, S.i, S.j)
    return _noncancellative_var_atoms(S.grid, S.orientation)


def _term_kind(shifts: tuple, atoms: tuple, inner: tuple, outer: tuple) -> str:
    """A term's kind in the released names: by its atoms, their P
    orientations and, for B_k atoms, where the shifts go."""
    is_bk = tuple(isinstance(atom, BkOperator) for atom in atoms)
    if len(atoms) == 1 and is_bk[0]:
        names = (("Bk_of_Sf", "S_of_Bk") if shifts[0].cancellative
                 else ("B0_of_S00f", "S00_of_B0"))
        return names[outer[0] and not inner[0]]
    if all(is_bk):
        return "S_of_Bkl" if any(outer) else "Bkl_of_Sf"
    if any(is_bk):
        return "BPk" if is_bk[0] else "PBl"
    # P atoms only: P_term, Pstar_term; PP_term, PP1_term, PP2_term, PPstar_term
    adjoint = [str(v) for v, atom in enumerate(atoms, 1) if atom.adjoint]
    tag = "star" if len(adjoint) == len(atoms) else "".join(adjoint)
    return "P" * len(atoms) + tag + "_term"


def _assemble(shifts: tuple) -> list:
    """The terms of one shift per variable: the product of the per-variable
    lists, the weights multiplied and the provenances joined by "|". Each
    term comes from its family's pool (``grid_index(grid).memo`` of the
    first grid), which builds it once per grid (grid pair) and key, so the
    lists of one family at every (i, j) hold the same objects."""
    grids = tuple(S.grid for S in shifts)
    pool = grid_index(grids[0]).memo(("term_pool",) + grids[1:] + tuple(map(_family, shifts)),
                                     dict)
    terms = []
    for entries in itertools.product(*map(_var_atoms, shifts)):
        key, weights, atoms, inner, outer, provs = zip(*entries)
        if key not in pool:
            pool[key] = Term(math.prod(weights), _term_kind(shifts, atoms, inner, outer),
                             "|".join(provs), atoms, inner, outer, key=key)
        terms.append(pool[key])
    return terms


def _count_constant(grid: GridSpec, S: ShiftOperator) -> int:
    """Constant C of the count law |terms| <= C (1 + max(i,j)) per variable."""
    nsig = grid.n_sig
    if S.cancellative:
        return 2 * (nsig + nsig * nsig)
    return nsig * nsig + 2 * nsig + 1


# ---------------------------------------------------------------------------
# Decompositions.


def decompose(b: SampledFunction, *shifts: ShiftOperator) -> TermList:
    """Term list with sum(terms)(f) = [M_b, S] f for every f, S of either
    kind; or, given one shift per variable of b's product grid,
    sum(terms)(f) = [[M_b, S1], S2] f, the product of the per-variable
    constructions."""
    grids = b.space.grids
    if len(shifts) != len(grids):
        raise WrongKindError(f"b has {len(grids)} variable(s), one shift each; got {len(shifts)}")
    for v, (S, g) in enumerate(zip(shifts, grids), 1):
        if S.grid != g:
            raise WrongKindError(f"shift {v} must act on the grid of variable {v} of b")
    C = math.prod(map(_count_constant, grids, shifts))
    meta = {"count_constant": C,
            "count_bound": C * math.prod(1 + max(S.i, S.j) for S in shifts)}
    if len(shifts) == 1:
        (S,), (g,) = shifts, grids
        case = "cancellative" if S.cancellative else f"noncancellative-{S.orientation}"
        meta.update(i=S.i, j=S.j, d=g.d, N=g.N)
    else:
        case = "-".join(["biparam"] + [S.kind for S in shifts])
        meta.update({f"{x}{v}": getattr(S, x) for v, S in enumerate(shifts, 1) for x in "ij"})
        meta.update({f"N{v}": g.N for v, g in enumerate(grids, 1)})
    return TermList(b, shifts, _assemble(shifts), case, meta)


# ---------------------------------------------------------------------------
# Evaluation and verification.


def _family_weights(tls: list) -> tuple:
    """The sweep of one family of cases: the union of the cases' terms in
    key order, which is list order within a family, and the (terms, cases)
    weights, a case's own weight where its list has the term and 0 where it
    lacks it. A case's keys must ascend, so that every accumulator adds a
    case's terms in the case's own order."""
    terms = {term.key: term for tl in tls for term in tl.terms}
    if None in terms:
        raise ValueError("a term without a key cannot be swept")
    place = {key: p for p, key in enumerate(sorted(terms))}
    weights = np.zeros((len(place), len(tls)))
    for c, tl in enumerate(tls):
        pos = [place[term.key] for term in tl.terms]
        if any(p >= q for p, q in zip(pos, pos[1:])):
            raise ValueError("the terms of a case are not an ordered subsequence "
                             "of their family's terms")
        weights[pos, c] = [term.weight for term in tl.terms]
    return tuple(terms[key] for key in place), weights


def evaluate_stacked(tls, x: np.ndarray, sx: np.ndarray = None,
                     counters: dict = None) -> np.ndarray:
    """Sum of all terms of a block of cases on coefficient stacks.

    ``tls`` is a sequence of C term lists of one arity t >= 1 on one grid
    or product grid, and ``x`` is (n1, ..., nt, C, *trials): column c of
    the case axis is case c's input. A single TermList is a block of one on
    ``x`` (n1, ..., nt, *passive), and returns that shape. Each column is
    evaluated as by :func:`evaluate_terms`. S_v acts along axis v, and
    each case's S_v runs once per variable and stage: the inner
    compositions are built from the last variable's down, each variable's
    shift applied once to every key built so far, side by side on a
    trailing axis; the outer groups that carry S_v take it the same way,
    variable 1 first. So each case applies every S_v twice. At t = 1 the
    caller may pass ``sx``,
    each case's S_c x, which it already has. The 2^t inner inputs and the
    2^t outer groups sit on a leading key axis, one contiguous block per
    key, so each variable takes one extend and one contract per block,
    which give every column of a stack the bits of its single-column
    transform.

    The cases of one family (the shift kinds and orientations) share one
    sweep, the union of their terms in key order (see
    :func:`_family_weights`; a list whose keys do not ascend raises
    ``ValueError``), and a single list is a family of one: each term is one
    ``pair_apply`` call on the family's columns, one atom and one symbol
    per variable at every t, its weight on the case axis, 0 for a case that
    lacks it. So each case keeps its own ``acc += w * term`` steps and their
    bits. A ``counters`` dict receives the kernel calls in ``term_calls``.
    """
    one = isinstance(tls, TermList)
    tls = [tls] if one else list(tls)
    t = tls[0].arity
    if one:
        x = x[(slice(None),) * t + (None,)]
    if x.shape[t:t + 1] != (len(tls),):
        raise ValueError(f"{len(tls)} term lists for a case axis of shape {x.shape}")
    space = tls[0].space
    trial = (1,) * (x.ndim - t - 1)
    shifts = [[tl.shifts[v] for tl in tls] for v in range(t)]

    def stage(v, ys):
        """Case c's S_v along variable v of column c of every array of
        ``ys``: the arrays side by side on a trailing axis, one application
        per case."""
        stack = ys[0][..., None] if len(ys) == 1 else np.stack(ys, axis=-1)
        out = _each_case(shifts[v], stack, t, v)
        return [out[..., k] for k in range(len(ys))]

    def on_cases(arrays):
        """Per-case arrays on a case axis, with unit trial axes; one case's
        array alone, the broadcast case of the kernels."""
        if len(arrays) == 1:
            return arrays[0]
        arr = np.stack(arrays, axis=-1)
        return arr.reshape(arr.shape + trial)

    if sx is not None:
        shifted = {(False,): x, (True,): sx}
    else:
        shifted = {(): x}
        for v in reversed(range(t)):
            applied = stage(v, list(shifted.values()))
            shifted = {**{(False,) + k: y for k, y in shifted.items()},
                       **{(True,) + k: y for k, y in zip(shifted, applied)}}
    keys = list(itertools.product((False, True), repeat=t))
    slot = {key: n for n, key in enumerate(keys)}
    inputs = extend_space(space, np.stack([shifted[key] for key in keys], axis=t))
    inputs = np.ascontiguousarray(np.moveaxis(inputs, t, 0))
    groups = np.zeros(inputs.shape)
    families = {}
    for c, tl in enumerate(tls):
        families.setdefault(tuple(map(_family, tl.shifts)), []).append(c)
    calls = 0
    for cols in families.values():
        # the family's columns: a view where they are contiguous, else a copy
        # whose sums are written back
        cut = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] == len(cols) - 1 else cols
        at = (slice(None),) * t + (cut,)
        fam = [tls[c] for c in cols]
        fin, acc = inputs[(slice(None),) + at], groups[(slice(None),) + at]
        fbc = on_cases([tl._bc for tl in fam])
        syms = [None if S.cancellative
                else on_cases([tl.shifts[v].stacked_symbol() for tl in fam])
                for v, S in enumerate(fam[0].shifts)]
        terms, weights = _family_weights(fam)
        for term, w in zip(terms, weights.reshape(weights.shape + trial)):
            pair_apply(space, fbc, fin[slot[term.inner]], term.atoms, syms,
                       out=acc[slot[term.outer]], weight=w)
        calls += len(terms)
        if not isinstance(cut, slice):
            groups[(slice(None),) + at] = acc
    groups = list(np.moveaxis(contract_space(space, np.moveaxis(groups, 0, t)), t, 0))
    for v in range(t):
        sel = [n for n, key in enumerate(keys) if key[v]]
        for n, y in zip(sel, stage(v, [groups[n] for n in sel])):
            groups[n] = y
    total = np.zeros(x.shape)
    for y in groups:
        total += y
    if counters is not None:
        counters["term_calls"] = counters.get("term_calls", 0) + calls
    return total[(slice(None),) * t + (0,)] if one else total


def evaluate_terms(tl: TermList, f):
    """Sum of all terms applied to ``f`` (coefficient-space, one inverse at
    the end); an ``f`` off ``tl``'s grid raises ``GridMismatchError``."""
    tl.b._check(f)
    y = evaluate_stacked(tl, forward_space(tl.space, f.samples))
    return type(tl.b)(tl.space, inverse_space(tl.space, y))


def _trial_samples(shape: tuple, rng_seed: int, trials: int) -> np.ndarray:
    """(*shape, trials) Gaussian samples; column t is trial t's own draw."""
    out = np.empty(shape + (trials,))
    for t in range(trials):
        out[..., t] = _trial_rng(rng_seed, t).standard_normal(shape)
    return out


@lru_cache(maxsize=1)
def _trial_inputs(shape: tuple, rng_seed: int, trials: int, cell_volume: float) -> tuple:
    """The :func:`_trial_samples` and their column norms, read-only. The last
    draw is kept, so a command that checks its cases in blocks draws and
    norms its inputs once."""
    samples = _trial_samples(shape, rng_seed, trials)
    norms = _column_norms(samples, cell_volume)
    samples.flags.writeable = norms.flags.writeable = False
    return samples, norms


def _max_residual(direct: np.ndarray, approx: np.ndarray, f_norms: np.ndarray,
                  scale: float, cell_volume: float) -> float:
    """Largest per-column ||direct - approx|| / (scale ||f||) over the trials."""
    max_res = 0.0
    for res, f_norm in zip(_column_norms(direct - approx, cell_volume), f_norms):
        denom = scale * f_norm
        max_res = max(max_res, float(res / denom if denom > 0 else res))
    return max_res


def verify_identity(b, shifts, trials: int, rng_seed: int, tol: float = 1e-9,
                    counters: dict = None):
    """Check sum(terms)(f) == commutator(f) on random inputs.

    ``b`` is one symbol and ``shifts`` its shift or one shift per variable
    (S1, ..., St), giving one report; or ``b`` is a sequence of C symbols on
    one grid and ``shifts`` a sequence of C shifts or shift tuples, giving a
    list of C reports, each equal bit for bit to its one-case call.

    Trial t draws f from ``_trial_rng(rng_seed, t)``, the same f in every
    case; all trials of all cases run as one stack. The C symbols share one
    transform, which gives every term list its coefficients of b and every
    case its residual scale. The term sums are one :func:`evaluate_stacked`
    sweep with the cases on its case axis, and share one transform out. At
    t = 1, f and every b_c f share one transform in, which also feeds the
    term sweep; S_c is applied once to [f | b_c f], whose S_c f is the
    sweep's inner input, and the shifted halves of every direct commutator
    share the transform out of the term sums. At t >= 2 the direct
    commutators of the block are one
    :func:`~dyadlab.shifts.commutator_stacked` call on the symbols' samples
    stack, with f shared by every case: at t = 2 three transforms each way,
    whatever the number of cases, plus one of f alone along variable 1, and
    S1 once and S2 twice per case. Residuals are measured per trial
    relative to bmo(b) * ||f|| (rectangle BMO for two or more parameters).
    A report is the dict {case, d, N, i, j, term_count, max_residual, pass,
    seed, trials}, with d, N, i, j as lists over the variables for two or
    more parameters. ``trials``
    must be at least 1. A ``counters`` dict receives the term-kernel calls
    of the sweep in ``term_calls``, added to any it holds.
    """
    _require_at_least(1, trials=trials)
    one = isinstance(b, SampledFunction)
    symbols, cases = ([b], [shifts]) if one else (list(b), list(shifts))
    if not symbols or len(symbols) != len(cases):
        raise ValueError(f"{len(symbols)} symbols for {len(cases)} shift cases")
    cases = [(S,) if isinstance(S, ShiftOperator) else tuple(S) for S in cases]
    t = len(cases[0])
    if any(len(S) != t for S in cases):
        raise ValueError("the cases of one call must have one arity")
    space = symbols[0].space
    if any(bc.space != space for bc in symbols):
        raise GridMismatchError("the cases of one call must share one grid")
    # the report's per-variable values: scalars at t = 1
    per_var = (lambda vals: vals[0]) if t == 1 else list
    tls = [decompose(bc, *S) for bc, S in zip(symbols, cases)]
    grids, shape, volume = space.grids, symbols[0].samples.shape, symbols[0].cell_volume
    # the symbols' coefficients, and from them the residual scales
    # dyadic_bmo_norm(b_c) or rect_bmo_norm(b_c)
    bsamples = np.stack([bc.samples for bc in symbols], axis=-1)
    bcs = forward_space(space, bsamples)
    for c, tl in enumerate(tls):
        tl._bc = bcs[..., c]
    scales = _bmo_stacked(space, bcs)
    F, f_norms = _trial_inputs(shape, rng_seed, trials, volume)
    C = len(tls)
    # the direct commutators: at t = 1 the halves S f and S(b f) of every
    # case go out with the term sums, after them on their own axis
    if t == 1:
        y = np.empty(shape + (C, 3, trials))
        x = forward_space(space, np.stack([F] + [bc.samples[:, None] * F for bc in symbols],
                                          axis=1))
        for c, (S,) in enumerate(cases):
            y[:, c, 1:] = S.apply_stacked(x[:, [0, c + 1]])
        xf, sx = x[:, :1], y[:, :, 1]
    else:
        y = np.empty(shape + (C, 1, trials))
        xf, sx = forward_space(space, F)[..., None, :], None
        direct = commutator_stacked(bsamples, list(zip(*cases)), np.expand_dims(F, t))
    y[..., 0, :] = evaluate_stacked(tls, np.broadcast_to(xf, shape + (C, trials)), sx=sx,
                                    counters=counters)
    y = inverse_space(space, y)
    if t == 1:
        direct = bsamples[:, :, None] * y[:, :, 1] - y[:, :, 2]
    reports = []
    for c, tl in enumerate(tls):
        max_res = _max_residual(direct[..., c, :], y[..., c, 0, :], f_norms,
                                float(scales[c]), volume)
        reports.append({
            "case": tl.case, "d": per_var([g.d for g in grids]),
            "N": per_var([g.N for g in grids]), "i": per_var([S.i for S in tl.shifts]),
            "j": per_var([S.j for S in tl.shifts]), "term_count": tl.term_count,
            "max_residual": max_res, "pass": bool(max_res < tol), "seed": rng_seed,
            "trials": trials})
    return reports[0] if one else reports
