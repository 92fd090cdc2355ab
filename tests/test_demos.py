import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


DEMOS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
