"""Lazy package re-exports (PEP 562).

A package ``__init__`` imports eagerly only the submodules an artifact
run uses, and re-exports the rest of its public names through
:func:`lazy_exports`, so ``from repro.<pkg> import name`` keeps working
while a run that never asks for ``name`` never loads (or, without
cached bytecode, compiles) its module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, names: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return a package's ``(__getattr__, __dir__)`` pair.

    ``names`` maps each lazily re-exported name to the submodule of
    ``package`` that defines it. The first lookup imports the submodule
    and binds the value in the package, so later lookups are plain
    attribute reads. Any other name raises :class:`AttributeError`,
    which also lets ``from package import submodule`` fall through to
    the import system.
    """

    def __getattr__(name: str):
        module = names.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__
