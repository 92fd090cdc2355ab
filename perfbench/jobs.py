"""A worker's pass: run CLI jobs in process, check their reports, trace layers.

Imported by worker.py only after its timed import of dyadlab.cli. dyadlab and
numpy are imported inside the functions that use them, so this module and its
tests load without the program.
"""

import json
import os
import platform
import resource
import shutil
import sys
import time

from reference import SAMPLE_S, Sampler, reference_s
from reports import body_digest, max_residual, problems, work_units
from spans import Tracer, layer_times, rebind, time_under
from workloads import SMOKE, WORKLOADS

# Relative to the checkout root (the worker's working directory), so report
# configs, which embed --out, read the same in every checkout.
OUT = ".perfbench_out"


def run_job(cli, argv: list, out: str) -> dict:
    """Run one CLI job and check every report it wrote."""
    job = {"argv": argv, "problems": [], "digests": {}, "units": 0,
           "report_bytes": 0, "reports": {}}
    try:
        code = cli.main(argv + ["--out", out])
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        job["problems"].append(f"{type(exc).__name__}: {exc}")
        return job
    if code != 0:
        job["problems"].append(f"exit code {code}")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    for name in names:
        path = os.path.join(out, name)
        job["report_bytes"] += os.path.getsize(path)
        if not name.endswith(".json"):
            continue
        with open(path) as fh:
            report = json.load(fh)
        job["reports"][name] = report
        job["problems"] += [f"{name}: {p}" for p in problems(report)]
        job["digests"][name] = body_digest(report)
        job["units"] += work_units(report)
    if not job["digests"]:
        job["problems"].append("no report written")
    return job


def install_tracer(tracer: Tracer) -> None:
    """Spans around the public entry points of each dyadlab module."""
    from dyadlab import (biparam, cli, decomposition, haar, montecarlo, norms,
                         paraproducts, shifts)
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "dyadlab" or name.startswith("dyadlab.")]

    def count_terms(args, kwargs):
        tracer.count("terms", len(args[0].terms))

    def count_p_bytes(args, kwargs):
        # the dense P/P* product reads the n x n strict_matrix once
        tracer.count("p_bytes", 8 * args[0].n_samples ** 2)

    layers = [
        ("haar.transform", [haar.forward_stacked, haar.inverse_stacked,
                            haar.scaling_levels, haar.fold_noncancellative], None),
        ("shifts.commutator", [shifts.multiplication_commutator], None),
        ("paraproducts.bk", [paraproducts.bk_stacked], None),
        ("paraproducts.p", [paraproducts.p_stacked, paraproducts.pstar_stacked],
         count_p_bytes),
        ("biparam.pair", [biparam.pair_apply], None),
        ("biparam.commutator", [biparam.iterated_commutator], None),
        ("decomposition.verify", [decomposition.verify_identity], None),
        ("decomposition.evaluate", [decomposition.evaluate_terms], count_terms),
        ("norms.bmo", [norms.dyadic_bmo_norm, norms.rect_bmo_norm], None),
        ("norms.study", [norms.uniformity_study], None),
        ("montecarlo.average", [montecarlo.average_operator], None),
        ("cli", [cli.main], None),
    ]
    for name, fns, on_call in layers:
        for fn in fns:
            rebind(modules, fn, tracer.wrap(name, fn, on_call))
    for cls, attr, name in ((shifts.ShiftOperator, "apply_stacked", "shifts.apply"),
                            (shifts.LinearOperatorHandle, "matrix",
                             "montecarlo.sample")):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    # A Monte Carlo sample is the builder call plus its matrix() (above).
    make_builder = montecarlo.hilbert_pattern_builder
    rebind(modules, make_builder,
           lambda base: tracer.wrap("montecarlo.sample", make_builder(base)))


def layer_metrics(tracer: Tracer, jobs: list) -> dict:
    """Per-layer figures of one traced pass; every one present, 0 where the
    layer did not run."""
    from dyadlab.grids import grid_index
    times = layer_times(tracer.spans)

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    direct = time_under(tracer.spans, ("shifts.commutator", "biparam.commutator"),
                        "decomposition.verify")
    evaluate = time_under(tracer.spans, ("decomposition.evaluate",),
                          "decomposition.verify")
    reports = [r for job in jobs for r in job["reports"].values()]
    stats = [r["results"]["stats"] for r in reports if "stats" in r["results"]]
    sampled = sum(s["samples"] for s in stats)
    transforms = calls("haar.transform")
    cache = grid_index.cache_info()
    return {
        "haar.transform.calls": transforms,
        "haar.transform.self_s": self_s("haar.transform"),
        "haar.transform.us_per_call":
            1e6 * self_s("haar.transform") / transforms if transforms else 0.0,
        "shifts.apply.calls": calls("shifts.apply"),
        "shifts.apply.self_s": self_s("shifts.apply"),
        "shifts.commutator.self_s": self_s("shifts.commutator"),
        "paraproducts.bk.calls": calls("paraproducts.bk"),
        "paraproducts.bk.self_s": self_s("paraproducts.bk"),
        "paraproducts.p.calls": calls("paraproducts.p"),
        "paraproducts.p.self_s": self_s("paraproducts.p"),
        "paraproducts.p.bytes_computed": tracer.counts.get("p_bytes", 0),
        "biparam.pair.calls": calls("biparam.pair"),
        "biparam.pair.self_s": self_s("biparam.pair"),
        "biparam.commutator.self_s": self_s("biparam.commutator"),
        "decomposition.evaluate.calls": calls("decomposition.evaluate"),
        "decomposition.evaluate.self_s": self_s("decomposition.evaluate"),
        "decomposition.terms_evaluated": tracer.counts.get("terms", 0),
        "decomposition.cost_ratio": evaluate / direct if direct else 0.0,
        "decomposition.max_residual": max(map(max_residual, reports), default=0.0),
        "norms.bmo.calls": calls("norms.bmo"),
        "norms.bmo.self_s": self_s("norms.bmo"),
        "norms.study.self_s": self_s("norms.study"),
        "montecarlo.sample.self_s": self_s("montecarlo.sample"),
        "montecarlo.average.self_s": self_s("montecarlo.average"),
        "montecarlo.used_ratio":
            sum(s["used"] for s in stats) / sampled if sampled else 0.0,
        "grids.index.hits": cache.hits,
        "grids.index.misses": cache.misses,
        "cli.self_s": self_s("cli"),
        "cli.report_bytes": sum(job["report_bytes"] for job in jobs),
    }


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_workload(cli, workload: str, seed: int, trace: bool) -> dict:
    jobs = WORKLOADS[workload]
    outs = [os.path.join(OUT, "jobs", str(n)) for n in range(len(jobs))]
    shutil.rmtree(os.path.join(OUT, "jobs"), ignore_errors=True)
    tracer = None
    if trace:
        tracer = Tracer()
        install_tracer(tracer)
    # The reference runs before the first job, after each job and during
    # each job, never inside a job's time; not during a traced job, whose
    # spans would count the sampling in the layers' self times.
    done, job_s, job_refs = [], [], []
    ref = reference_s()
    for job, out in zip(jobs, outs):
        with Sampler(0 if trace else SAMPLE_S) as during:
            t0 = time.perf_counter()
            done.append(run_job(cli, job + ["--seed", str(seed)], out))
            elapsed = time.perf_counter() - t0
        job_s.append(elapsed - during.paused)
        after = reference_s()
        job_refs.append([ref, *during.refs, after])
        ref = after
    result = {
        "job_s": job_s,
        "job_refs": job_refs,
        "units": sum(job["units"] for job in done),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [{k: job[k] for k in ("argv", "problems", "digests")}
                 for job in done],
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, done)
    return result


def run_smoke(cli) -> list:
    """Each subcommand once at its defaults; records exit code or exception."""
    out = os.path.join(OUT, "smoke")
    records = []
    for argv in SMOKE:
        record = {"argv": argv}
        try:
            record["exit"] = cli.main(argv + ["--out", out])
        except Exception as exc:  # recorded: the smoke pass reports crashes
            record["exit"] = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def main(cli, setup_s: float, argv: list) -> int:
    reference_s()  # warm-up: the first call in a fresh interpreter runs slow
    result = {"setup_s": setup_s, "setup_ref_s": reference_s()}
    if argv == ["smoke"]:
        result["smoke"] = run_smoke(cli)
    elif argv != ["setup"]:
        workload, seed, trace = argv
        result.update(run_workload(cli, workload, int(seed), trace == "1"))
    print(json.dumps(result))
    return 0
