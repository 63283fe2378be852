"""Tests for the start-up, SA-SMT, census and DSE sections of the
hot-path profiler."""

import importlib.util
import pathlib
import re

import repro
from repro.models.specs import LayerKind, LayerSpec

_SPEC = importlib.util.spec_from_file_location(
    "profile_hotpaths",
    pathlib.Path(__file__).resolve().parents[2]
    / "tools" / "profile_hotpaths.py",
)
ph = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ph)


def test_import_lines_after_the_marker_fold_per_module():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       900 |        900 | numpy",
        ph._MARK,
        "import time:       300 |        300 |     repro.arch.events",
        "import time:       200 |        500 |   repro.arch",
        "import time:        10 |        510 | repro.arch.events",
    ])
    assert ph._import_self_times(stderr) == [
        ("repro.arch.events", 310, 510), ("repro.arch", 200, 500)]


def test_startup_report_itemizes_the_artifact_path(monkeypatch):
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", str(src))
    report = ph.startup_report(top=200)
    modules = {line.split()[-1] for line in report.splitlines()[5:]}
    assert "repro.eval.runner" in modules
    assert "repro.design.dse" in modules
    assert "numpy" not in modules
    assert "repro.train" not in modules
    assert "dataclass creation: " in report


def test_smt_report_splits_both_batch_shapes():
    lines = ph.smt_report(repeats=1).splitlines()
    assert lines[1].startswith("analytic fig11   28 points:")
    assert lines[2].startswith("alexnet           5 points:")
    assert all(" = draws " in line and " + lockstep " in line
               for line in lines[1:])


def test_dse_report_splits_both_keyspaces():
    lines = ph.dse_report(repeats=1).splitlines()
    assert lines[1].startswith("default    2712 points:")
    assert lines[2].startswith("wide      32544 points:")
    assert all(" space " in line and " + evaluate " in line
               and " + frontier " in line for line in lines[1:3])
    assert len(lines) == 4
    assert re.fullmatch(r"import repro\.design\.dse: +\d+\.\d ms in a fresh "
                        r"interpreter after the other artifact imports "
                        r"\(bytecode writing (on|off)\)", lines[3])


def test_census_report_prints_time_and_traced_peak():
    layer = LayerSpec("L", LayerKind.CONV, m=64, k=200, n=32, w_nnz=4,
                      a_nnz=8, weight_density=0.5, act_density=0.5)
    assert re.fullmatch(r"spec_census 64x200x32: \d+\.\d ms, traced peak "
                        r"\d+\.\d\d MB \(retained \d+\.\d\d MB\)",
                        ph.census_report(layer, repeats=1))
