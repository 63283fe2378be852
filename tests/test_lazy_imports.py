"""The package ``__init__``s load only what an artifact run uses.

Names off that path are re-exported lazily (PEP 562 ``__getattr__`` /
``__dir__``): every public name still resolves, star-imports and lists
as before, and a run that never asks for one never loads its module.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

LAZY_PACKAGES = ["repro", "repro.arch", "repro.core", "repro.accel",
                 "repro.eval", "repro.workloads", "repro.design"]

#: What an artifact run imports, and what it must not pull in with it.
ARTIFACT_IMPORTS = ["repro.eval.runner", "repro.eval.experiments",
                    "repro.eval.resultcache", "repro.models",
                    "repro.design.dse"]
OFF_THE_PATH = [
    "repro.train", "repro.serve",
    "repro.eval.ablations", "repro.eval.roofline", "repro.design.rtlgen",
    "repro.core.serialize",
    "repro.arch.tpe", "repro.arch.datapath", "repro.arch.dap_hw",
    "multiprocessing", "concurrent.futures", "numpy.random",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyReExports:
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name

    def test_star_import_binds_every_public_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_dir_lists_every_public_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


def test_lazy_name_is_the_defining_module_object():
    from repro.arch.dap_hw import DAPHardware
    from repro.core.serialize import pack

    assert repro.arch.DAPHardware is DAPHardware
    assert repro.core.pack is pack


def test_submodule_import_through_the_package_still_works():
    from repro.arch import tpe

    assert tpe.TensorPE is repro.arch.TensorPE


def test_artifact_imports_leave_unused_modules_unloaded():
    """In a fresh interpreter, the imports of an artifact run (runner,
    experiments, result cache, model specs, the DSE) load none of the
    modules only other entry points use, nor the process-pool stack."""
    code = (
        "import sys\n"
        f"for name in {ARTIFACT_IMPORTS!r}:\n"
        "    __import__(name)\n"
        f"print([m for m in {OFF_THE_PATH!r} if m in sys.modules])\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
