"""dyadlab benchmark: fixed lists of CLI jobs per workload, run end to end.

    python3 perfbench/run.py --workload decomp1 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; it benchmarks the checkout's ``src/``.
Each pass over a workload's jobs (see workloads.py) runs in a fresh
interpreter (worker.py), in process through ``dyadlab.cli.main``, with the
jobs' ``--seed`` set to ``--seed``. Every report a job writes is checked: a
job fails on an exception, a nonzero exit, a report ``pass`` that is not
true, or a residual at or above 1e-9. Every pass of one seed must also write
byte-identical report bodies (reports without ``meta``).

``--trace 0`` repeats passes for about ``--seconds`` seconds and reports
medians of the end-to-end metrics. ``--trace 1`` runs one plain and one
traced pass of the same seed, fails if their report bodies differ, reports
the per-layer metrics of the traced pass and the tracing overhead, and runs
the CLI-defaults smoke pass (every subcommand once at its defaults, exit
codes recorded; reported, not counted as workload failures).

``setup_s``, ``wall_s`` and ``trials_per_s`` are stated at a nominal
machine speed (see reference.py): each job time is divided by the mean
time of a fixed reference computation run in the same process before, after
and every 0.2 s during the job (the sampling time is not counted), and each
start-up by the reference right after it. This takes out the drift of a
shared host, which moves plain wall times by tens of percent from one minute
to the next. ``wall_s`` is the sum over the workload's jobs of each job's
median over the passes; plain medians are in the details line.

The second-to-last line of output holds details (machine, BLAS, failures,
report digests, smoke results); the last line is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from reference import at_nominal  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread everywhere: at most nproc on any machine and the same in
# every run (the dense P product at N=12 is a BLAS matrix-vector product).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker(*argv) -> dict:
    """Run worker.py in a fresh interpreter and return its result object."""
    cmd = [sys.executable, WORKER, *map(str, argv)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {argv} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def failures(passes: list) -> list:
    """One entry per failed job: its problems, or report bodies that differ
    from the first pass of the same seed."""
    found = []
    first = passes[0]["jobs"]
    for n, p in enumerate(passes):
        for job, ref in zip(p["jobs"], first):
            why = list(job["problems"])
            if job["digests"] != ref["digests"]:
                why.append("report bodies differ from pass 0")
            if why:
                found.append({"pass": n, "argv": job["argv"], "problems": why})
    return found


def metric_units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def nominal_jobs(p: dict) -> list:
    """A pass's job times at nominal speed, each against the reference
    times measured before, during and after it."""
    return [at_nominal(t, refs) for t, refs in zip(p["job_s"], p["job_refs"])]


def end_to_end(workload: str, seed: int, seconds: float, start: float):
    passes = []
    while True:
        passes.append(worker(workload, seed, 0))
        spent = time.monotonic() - start
        if spent * (len(passes) + 1) / len(passes) > seconds:
            break
    setup_runs = passes + [worker("setup")
                           for _ in range(SETUP_SAMPLES - len(passes))]
    failed = failures(passes)
    attempted = sum(len(p["jobs"]) for p in passes)
    # Per job, the median over passes of its time at nominal speed.
    jobs_s = [statistics.median(col) for col in zip(*map(nominal_jobs, passes))]
    metrics = {
        "setup_s": statistics.median(at_nominal(p["setup_s"], [p["setup_ref_s"]])
                                     for p in setup_runs),
        "wall_s": sum(jobs_s),
        "trials_per_s": statistics.median(p["units"] for p in passes) / sum(jobs_s),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "pass_ratio": (attempted - len(failed)) / attempted,
    }
    return passes, failed, metrics, {
        "jobs_s_at_nominal": jobs_s,
        "raw_setup_s": statistics.median(p["setup_s"] for p in setup_runs),
        "raw_wall_s": statistics.median(sum(p["job_s"]) for p in passes),
        "ref_s": statistics.median(r for p in passes for refs in p["job_refs"]
                                   for r in refs)}


def per_layer(workload: str, seed: int):
    plain = worker(workload, seed, 0)
    traced = worker(workload, seed, 1)
    passes = [plain, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = sum(nominal_jobs(traced)) - sum(nominal_jobs(plain))
    smoke = worker("smoke")["smoke"]
    extra = {"smoke": smoke,
             "smoke_failures": sum(1 for r in smoke if r["exit"] != 0)}
    return passes, failures(passes), metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        worker("setup")  # fails fast without the program; compiles bytecode
        if args.trace:
            passes, failed, metrics, extra = per_layer(args.workload, args.seed)
        else:
            passes, failed, metrics, extra = end_to_end(
                args.workload, args.seed, args.seconds, start)
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "disagree with BENCHMARK.json")
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(p["jobs"]) for p in passes)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(passes), "elapsed_s": time.monotonic() - start,
               "env": passes[0]["env"], "failures": failed,
               "digests": [job["digests"] for job in passes[0]["jobs"]], **extra}
    print(json.dumps(details))
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
