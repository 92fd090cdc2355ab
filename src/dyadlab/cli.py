"""Command-line runner wiring configs, seeds, and report writers to the studies.

Subcommands: selftest, verify-decomp, norm-study, jn-check, mc-demo,
bound-study. Batch semantics: exit 0 when every enabled assertion passes,
1 on an assertion failure (the failing replay seed is printed), 2 on bad
usage. Reports are JSON with the resolved config embedded; timestamps live
in a separate ``meta`` field so report bodies are byte-identical across runs
with the same config and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from .grids import (DepthError, DyadicCube, GridSizeError, GridSpec, HaarIndex,
                    InvalidIndexError, WrongKindError)
from .haar import (DyadicFunction, haar_forward, haar_function, haar_inverse,
                   inner_product, random_function)
from .shifts import ANALYSIS, NONCANCELLATIVE, SYNTHESIS, random_shift
from .decomposition import verify_identity
from .norms import (STUDY_ATOMS, _in_blocks, geometric_cap_for, geometric_constant,
                    geometric_constant_closed_form,
                    geometric_constant_tail_bound, jn_study, reports_to_csv,
                    reports_to_jsonl, uniformity_study)
from .montecarlo import commutator_bound_study, mc_representation_demo
from .biparam import ProductFunction, ProductGrid
from . import __version__

USAGE_ERROR = 2


def _checked(convert, ok, name: str):
    """An argparse ``type``: ``convert``, then require ``ok``. Both failures
    raise ValueError, so config-file values take the same route as flags."""
    def parse(text):
        val = convert(text)
        if not ok(val):
            raise ValueError(f"{text!r} is not a {name} value")
        return val
    parse.__name__ = name  # argparse names the type in its usage error
    return parse


_POSITIVE = _checked(int, lambda v: v >= 1, "positive int")
_COUNT = _checked(int, lambda v: v >= 0, "nonnegative int")
_EXPONENT = _checked(float, lambda v: 1.0 < v < float("inf"), "exponent p in (1, inf)")
_DELTA = _checked(float, lambda v: 0.0 < v <= 2.0, "delta in (0, 2]")
_TOL = _checked(float, lambda v: 0.0 <= v < float("inf"), "finite tolerance >= 0")


def _outdir(args) -> str:
    out = args.out or os.environ.get("DYADLAB_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(args, name: str, config: dict, results, counters: dict = None) -> str:
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "version": __version__}
    if counters is not None:
        meta["counters"] = counters
    report = {"meta": meta, "config": config, "results": results}
    path = os.path.join(_outdir(args), f"{name}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def _resolved_config(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in ("func", "config") and v is not None}


def _usage(args, message: str) -> int:
    """Bad usage that parsing lets through: a one-line message, exit 2."""
    print(f"{args.command}: {message}", file=sys.stderr)
    return USAGE_ERROR


def _fail(seed, message: str) -> int:
    print(f"FAIL: {message}")
    print(f"replay seed: {seed}")
    return 1


# ---------------------------------------------------------------------------


def cmd_selftest(args) -> int:
    grid = GridSpec(args.d, args.N)
    rng = np.random.default_rng(args.seed)
    results = {}
    f = random_function(grid, rng)
    c = haar_forward(f)
    results["parseval_residual"] = abs(c.l2_norm_sq() - f.norm() ** 2) \
        / max(f.norm() ** 2, 1e-300)
    results["roundtrip_residual"] = (haar_inverse(c) - f).norm() / f.norm()
    worst = 0.0
    for _ in range(20):
        lvl = int(rng.integers(0, grid.N))
        flat = int(rng.integers(0, grid.n_cubes(lvl)))
        sig = grid.int_sig(int(rng.integers(0, grid.n_sig)))
        idx = HaarIndex(DyadicCube(lvl, grid.pos_from_flat(flat, lvl)), sig)
        h = haar_function(grid, idx)
        worst = max(worst, abs(inner_product(h, h) - 1.0))
        worst = max(worst, abs(haar_forward(h).coefficient(idx) - 1.0))
    results["orthonormality_residual"] = worst
    S = random_shift(grid, min(1, grid.N - 1), min(1, grid.N - 1), args.seed)
    g1 = random_function(grid, rng)
    g2 = random_function(grid, rng)
    results["adjoint_residual"] = abs(
        inner_product(S.apply(g1), g2) - inner_product(g1, S.adjoint().apply(g2)))
    tol = args.tol
    ok = all(v < tol for v in results.values())
    results["tolerance"] = tol
    results["pass"] = ok
    path = _write_report(args, "selftest", _resolved_config(args), results)
    print(f"selftest: parseval {results['parseval_residual']:.2e} "
          f"roundtrip {results['roundtrip_residual']:.2e} "
          f"orthonormality {results['orthonormality_residual']:.2e} "
          f"adjoint {results['adjoint_residual']:.2e} -> {path}")
    if not ok:
        return _fail(args.seed, "selftest residual above tolerance")
    return 0


def cmd_verify_decomp(args) -> int:
    if args.N2 is not None and not args.biparam:
        return _usage(args, "--N2 needs --biparam")
    rng = np.random.default_rng(args.seed)
    grids = (GridSpec(args.d, args.N),)
    if args.biparam:
        grids += (GridSpec(args.d, args.N2 or args.N),)
    space, function = (ProductGrid(*grids), ProductFunction) if args.biparam \
        else (grids[0], DyadicFunction)
    shape = tuple(g.n_samples for g in grids)
    n_samples = math.prod(shape)

    def cases():
        """(b, one shift per variable) of every case, drawn from ``rng`` in
        turn: b, then a shift of (i, j) at variable 1 and of (j, i) at
        variable 2. The noncancellative pair is drawn at one variable only."""
        draws = [(i, j, {}) for i in range(args.imax + 1) for j in range(args.jmax + 1)
                 if max(i, j) <= min(g.N for g in grids) - 1]
        if len(grids) == 1:
            draws += [(0, 0, {"kind": NONCANCELLATIVE, "orientation": ori})
                      for ori in (ANALYSIS, SYNTHESIS)]
        for i, j, shift_kw in draws:
            b = function(space, rng.standard_normal(shape))
            yield b, tuple(random_shift(g, *ij, rng, **shift_kw)
                           for g, ij in zip(grids, ((i, j), (j, i))))

    # the cases run in blocks of at most 2**13 samples per stack, each block
    # drawn from ``rng`` only when its turn comes
    reports, sweeps = [], {"term_calls": 0}

    def check(block):
        symbols, shifts = zip(*block)
        reports.extend(verify_identity(symbols, shifts, trials=args.trials,
                                       rng_seed=args.seed, tol=args.tol, counters=sweeps))
    blocks = _in_blocks(cases(), n_samples * args.trials, check)
    worst = max([0.0] + [rep["max_residual"] for rep in reports])
    failed = next((rep for rep in reports if not rep["pass"]), None)
    results = {"cases": reports, "max_residual": worst,
               "pass": failed is None}
    terms = sum(rep["term_count"] for rep in reports)
    counters = {"cases": len(reports), "trials": args.trials, "terms": terms,
                "term_evaluations": terms * args.trials, "blocks": blocks, **sweeps}
    path = _write_report(args, "verify-decomp", _resolved_config(args), results,
                         counters=counters)
    print(f"verify-decomp: {len(reports)} cases, max residual {worst:.3e} -> {path}")
    if failed is not None:
        return _fail(args.seed, f"identity residual {failed['max_residual']:.3e} "
                                f"in case {failed['case']}")
    return 0


def cmd_norm_study(args) -> int:
    codes = STUDY_ATOMS[args.kind]
    if args.N2 is not None and len(codes) == 1:
        return _usage(args, f"--N2 needs a two-variable --kind, not {args.kind}")
    # a top is given only for a B or S axis; the report config holds the
    # default tops of every kind
    for v, (top, default) in enumerate((("kmax", 8), ("lmax", 2))):
        if getattr(args, top) is None:
            setattr(args, top, default)
        elif v >= len(codes) or codes[v][0] == "P":
            return _usage(args, f"--{top} needs a B or S axis on variable {v + 1}, "
                                f"and --kind {args.kind} has none")
    space = GridSpec(1, args.N)
    if len(codes) == 2:
        space = ProductGrid(space, GridSpec(1, args.N2 or args.N))
    counters = {}
    reports = uniformity_study(args.kind, space, trials=args.trials, rng_seed=args.seed,
                               kmax=args.kmax, lmax=args.lmax, counters=counters)
    out = _outdir(args)
    base = os.path.join(out, f"norm-study-{args.kind}")
    with open(base + ".jsonl", "w") as fh:
        fh.write(reports_to_jsonl(reports))
    if args.format == "csv":
        with open(base + ".csv", "w") as fh:
            fh.write(reports_to_csv(reports))
    results = {"reports": [json.loads(r.to_json()) for r in reports],
               "max_ratio": max(r.max_ratio for r in reports)}
    _write_report(args, f"norm-study-{args.kind}", _resolved_config(args), results,
                  counters=counters)
    print(f"norm-study {args.kind}: max ratio {results['max_ratio']:.6f} -> {base}.jsonl")
    # the martingale bound ||op f|| <= bmo(b) ||f|| holds when every atom is a B_k
    if (all(atom[0] == "B" for atom in codes)
            and results["max_ratio"] > 1.0 + args.tol):
        return _fail(args.seed, "martingale bound exceeded")
    return 0


def cmd_jn_check(args) -> int:
    grid = GridSpec(args.d, args.N)
    counters = {}
    # the verdict reads p = 2 whether or not the ratios list it
    worst = jn_study(grid, [*args.p, 2.0], trials=args.trials, rng_seed=args.seed,
                     counters=counters)
    ratios = {p: worst[p] for p in args.p}
    ok = worst[2.0] <= 1.0 + 1e-12
    results = {"ratios": {str(p): v for p, v in ratios.items()}, "p2_at_most_one": ok}
    path = _write_report(args, "jn-check", _resolved_config(args), results,
                         counters=counters)
    print("jn-check: " + " ".join(f"p={p}: {v:.4f}" for p, v in sorted(ratios.items()))
          + f" -> {path}")
    if not ok:
        return _fail(args.seed, "jn ratio at p=2 exceeded 1")
    return 0


def cmd_mc_demo(args) -> int:
    if args.samples < 1:
        return _usage(args, f"--samples must be at least 1, got {args.samples}")
    base = GridSpec(1, args.N)
    rep = mc_representation_demo(base, args.samples, args.seed)
    results = {k: v for k, v in rep.items()
               if k not in ("mean_matrix", "stderr_matrix", "counters")}
    if args.format == "csv":
        path = os.path.join(_outdir(args), "mc-demo-matrix.csv")
        with open(path, "w") as fh:
            fh.write("row,col,mean,stderr\n")
            M, SE = rep["mean_matrix"], rep["stderr_matrix"]
            for r in range(M.shape[0]):
                for c in range(M.shape[1]):
                    fh.write(f"{r},{c},{float(M[r, c])!r},{float(SE[r, c])!r}\n")
    path = _write_report(args, "mc-demo", _resolved_config(args), results,
                         counters=rep["counters"])
    ok = rep["toeplitz"]["pass"] and rep["antisymmetry"]["pass"] \
        and rep["single_omega_not_toeplitz"]
    print(f"mc-demo: toeplitz max_z {rep['toeplitz']['max_z']:.2f} "
          f"antisym max_z {rep['antisymmetry']['max_z']:.2f} "
          f"single/avg dev {rep['single_omega_max_dev']:.3f}/"
          f"{rep['averaged_max_dev']:.4f} -> {path}")
    if not ok:
        return _fail(args.seed, "averaged-shift statistics outside tolerance")
    return 0


def cmd_bound_study(args) -> int:
    grid = GridSpec(args.d, args.N)
    counters = {}
    rep = commutator_bound_study(args.delta, args.imax, args.jmax, trials=args.trials,
                                 rng_seed=args.seed, grid=grid, counters=counters)
    geo_closed = geometric_constant_closed_form(args.delta)
    cap = geometric_cap_for(args.delta)
    geo_trunc = geometric_constant(args.delta, cap)
    rep["geometric_constant_cap"] = cap
    rep["geometric_constant_truncated"] = geo_trunc
    rep["geometric_constant_closed_form"] = geo_closed
    rep["geometric_truncation_bound"] = geometric_constant_tail_bound(args.delta, cap)
    rep["geometric_crosscheck_residual"] = abs(geo_trunc - geo_closed)
    results = dict(rep)
    results["reports"] = [json.loads(r.to_json()) for r in rep["reports"]]
    with open(os.path.join(_outdir(args), "bound-study.jsonl"), "w") as fh:
        fh.write(reports_to_jsonl(rep["reports"]))
    path = _write_report(args, "bound-study", _resolved_config(args), results,
                         counters=counters)
    print(f"bound-study: max ratio {rep['max_ratio']:.4f}, weighted total "
          f"{rep['weighted_total']:.4f}, geometric constant {geo_trunc:.6f} -> {path}")
    if rep["geometric_crosscheck_residual"] > 1e-10:
        return _fail(args.seed, "geometric constant cross-check failed")
    if not rep["bound_ok"]:
        return _fail(args.seed, "weighted total exceeded the geometric bound")
    return 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, formats: tuple = ("json",)):
    """The flags of every command; ``formats`` are the report formats it writes."""
    p.add_argument("--seed", type=_COUNT, default=7)
    p.add_argument("--out", type=str, default=None,
                   help="output directory (default: $DYADLAB_OUTDIR or .)")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file; command-line flags override it")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every :func:`main`
    call: parsing reads it and leaves it unchanged."""
    # flags are spelt in full: a config file fills in every flag the
    # command line does not name, and a prefix names none
    parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = parser(prog="dyadlab", description="dyadic shift / commutator laboratory")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=parser)

    p = sub.add_parser("selftest", help="orthonormality/Parseval/adjoint suite")
    p.add_argument("--d", type=_POSITIVE, default=1)
    p.add_argument("--N", type=_POSITIVE, default=6)
    p.add_argument("--tol", type=_TOL, default=1e-11)
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("verify-decomp", help="commutator decomposition identity suite")
    p.add_argument("--d", type=_POSITIVE, default=1)
    p.add_argument("--N", type=_POSITIVE, default=6)
    p.add_argument("--N2", type=_POSITIVE, default=None, help="variable-2 depth (biparam)")
    p.add_argument("--imax", type=_COUNT, default=4)
    p.add_argument("--jmax", type=_COUNT, default=4)
    p.add_argument("--trials", type=_POSITIVE, default=100)
    p.add_argument("--tol", type=_TOL, default=1e-9)
    p.add_argument("--biparam", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify_decomp)

    p = sub.add_parser("norm-study", help="uniformity and ratio sweeps")
    p.add_argument("--kind", default="Bk", choices=tuple(STUDY_ATOMS))
    p.add_argument("--N", type=_POSITIVE, default=9)
    p.add_argument("--N2", type=_POSITIVE, default=None)
    p.add_argument("--kmax", type=_COUNT, default=None,
                   help="top k of a B or S axis on variable 1 (default 8)")
    p.add_argument("--lmax", type=_COUNT, default=None,
                   help="top l of a B axis on variable 2 (default 2)")
    p.add_argument("--trials", type=_POSITIVE, default=50)
    p.add_argument("--tol", type=_TOL, default=1e-12)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(func=cmd_norm_study)

    p = sub.add_parser("jn-check", help="localized square-function ratios")
    p.add_argument("--d", type=_POSITIVE, default=1)
    p.add_argument("--N", type=_POSITIVE, default=6)
    p.add_argument("--p", type=_EXPONENT, nargs="+", default=(1.25, 1.5, 2.0, 3.0))
    p.add_argument("--trials", type=_POSITIVE, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_jn_check)

    p = sub.add_parser("mc-demo", help="random-grid averaging demonstration")
    p.add_argument("--N", type=_POSITIVE, default=6)
    p.add_argument("--samples", type=int, default=10000)
    _add_common(p, formats=("json", "csv"))
    p.set_defaults(func=cmd_mc_demo)

    p = sub.add_parser("bound-study", help="commutator norms vs geometric schedule")
    p.add_argument("--d", type=_POSITIVE, default=1)
    p.add_argument("--N", type=_POSITIVE, default=6)
    p.add_argument("--delta", type=_DELTA, default=1.0)
    p.add_argument("--imax", type=_COUNT, default=4)
    p.add_argument("--jmax", type=_COUNT, default=4)
    p.add_argument("--trials", type=_POSITIVE, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_bound_study)
    return ap


def _config_value(action: argparse.Action, val):
    """Convert a config-file value as its flag converts command-line text."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise ValueError(f"expected true or false, got {val!r}")
        return val
    if action.nargs in ("+", "*"):
        if not isinstance(val, list):
            raise ValueError(f"expected a list, got {val!r}")
        return [_config_item(action, v) for v in val]
    return _config_item(action, val)


def _config_item(action: argparse.Action, val):
    if val is None or isinstance(val, (list, dict)):
        raise ValueError(f"expected a single value, got {val!r}")
    out = action.type(str(val)) if action.type else str(val)
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"{out!r} is not one of {', '.join(map(str, action.choices))}")
    return out


def _apply_config_file(ap: argparse.ArgumentParser, args: argparse.Namespace,
                       argv: list) -> argparse.Namespace:
    """Config-file values fill in flags the user did not pass explicitly.

    Raises ValueError when the file holds no JSON object, when a key names
    no flag of the command, or (naming the key) when a value fails its
    flag's type or choices.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"expected a JSON object, got {type(cfg).__name__}")
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                for a in argv if a.startswith("--")}
    subparsers = next(a for a in ap._actions if a.dest == "command")
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            raise ValueError(f"{key}: {args.command} has no such flag")
        if attr not in explicit:
            try:
                setattr(args, attr, _config_value(actions[attr], val))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        args = _apply_config_file(ap, args, argv)
    except (OSError, ValueError) as exc:
        print(f"bad config file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (DepthError, GridSizeError, InvalidIndexError, WrongKindError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
