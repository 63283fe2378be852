"""Test-suite isolation for the on-disk functional-result cache.

CLI-level tests exercise ``repro experiment ... --functional``, which
defaults to the user-level cache directory
(``$REPRO_CACHE_DIR`` / ``~/.cache/repro/results``). Point the default
at a throwaway directory before any repro module resolves it, so the
suite neither reads stale user-cache entries (which could mask a
simulator change the salt failed to catch) nor litters the user's home
directory. Tests that need cache behavior construct explicit
:class:`repro.eval.resultcache.ResultCache` instances on ``tmp_path``.
The directory is removed when the interpreter exits.
"""

import atexit
import os
import shutil
import tempfile

os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-test-cache-")
atexit.register(shutil.rmtree, os.environ["REPRO_CACHE_DIR"],
                ignore_errors=True)
