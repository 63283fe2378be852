"""The benchmark's probes still find every name they patch.

``perfbench/probes.py:install`` wraps functions and methods by name
(the engines' ``run_gemm``, each engine module's ``dense_gemm``, ...).
A rename in ``src/`` breaks only the traced benchmark run, so install
the probes here, in a fresh interpreter, and require a clean exit.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_probes_install_in_a_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import probes; probes.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
