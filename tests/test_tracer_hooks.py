"""The benchmark's tracer patches program functions by name; keep them there.

``perfbench/jobs.py::install_tracer`` wraps about twenty functions and
methods of the package. A rename would otherwise surface only in a traced
benchmark run, so this test installs the tracer in a fresh interpreter (the
patches cannot leak into other tests) and runs a few tiny jobs through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
src, bench, out, argvs = sys.argv[1:]
sys.path[:0] = [src, bench]
import dyadlab.cli as cli
import jobs
from spans import Tracer, layer_times
tracer = Tracer()
jobs.install_tracer(tracer)
problems = [jobs.run_job(cli, argv, f"{out}/{n}")["problems"]
            for n, argv in enumerate(json.loads(argvs))]
print(json.dumps({"problems": problems, "layers": sorted(layer_times(tracer.spans))}))
"""

JOBS = [
    ["verify-decomp", "--N", "3", "--imax", "1", "--jmax", "1", "--trials", "1"],
    ["verify-decomp", "--biparam", "--N", "3", "--imax", "1", "--jmax", "1",
     "--trials", "1"],
    ["norm-study", "--kind", "PP1", "--N", "3", "--trials", "1"],
    ["mc-demo", "--N", "4", "--samples", "600", "--seed", "9"],
]


def test_traced_jobs_run_and_pass(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path), json.dumps(JOBS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == [[] for _ in JOBS]
    # the wrapped functions are still on the jobs' call paths
    assert {"cli", "haar.transform", "paraproducts.bk", "paraproducts.p", "biparam.pair",
            "decomposition.verify", "shifts.apply", "norms.study",
            "montecarlo.sample"} <= set(result["layers"])
