"""Every example script must run clean end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_present():
    # Quickstart plus at least two domain scenarios (deliverable b).
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"
    # numpy scalars print as ``np.int8(5)``; examples print plain numbers.
    for numpy_repr in ("np.int", "np.float"):
        assert numpy_repr not in proc.stdout, (
            f"{script} printed a numpy scalar repr:\n{proc.stdout}")
