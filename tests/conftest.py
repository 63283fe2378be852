"""Test-suite isolation for the on-disk functional-result cache.

CLI-level tests exercise ``repro experiment ... --functional`` and
``repro serve``, which default to the user-level cache directory
(``$REPRO_CACHE_DIR`` / ``~/.cache/repro/results``). Point the default
at a throwaway directory before any repro module resolves it, so the
suite neither reads stale user-cache entries (which could mask a
simulator change the salt failed to catch) nor litters the user's home
directory. Tests that need cache behavior construct explicit
:class:`repro.eval.resultcache.ResultCache` instances on ``tmp_path``.
"""

import os
import tempfile

import pytest

os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-test-cache-")
# A REPRO_FAULTS leaking in from the caller's shell would arm fault
# injection for the entire suite (repro.faults reads it at import).
os.environ.pop("REPRO_FAULTS", None)


@pytest.fixture(autouse=True)
def _fault_injection_hygiene():
    """No test may leave the process-wide fault registry armed — a
    leaked registry would crash or corrupt every test that follows."""
    yield
    from repro import faults

    faults.reset()
