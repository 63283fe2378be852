"""Deterministic, seeded fault injection for chaos testing.

Off by default and *free* when off: every injection point guards on a
single module-global ``None`` check (benchmarked in
``benchmarks/bench_fault_overhead.py``, regression-gated like the
tracer's disabled path). Enable with::

    REPRO_FAULTS="claim_fail:p=0.05,cache_corrupt:p=0.02,http_error:p=0.01"

or programmatically via :func:`configure`. Each element is
``name[:k=v]*``; a bare ``seed=N`` element seeds the whole registry
(default 0). Per-fault keys:

- ``p``    — firing probability per eligible occurrence (default 1.0).
- ``n``    — maximum fires per distinct key (default 1), so retries of
             the same work eventually succeed *within one process*. A
             re-spawned process starts fresh counters, which is exactly
             the crash-loop a poison job produces — the queue's
             quarantine path, not a harness artifact.

Decisions are deterministic: whether occurrence ``n`` of fault ``name``
on ``key`` fires is a pure function of ``(seed, name, key, n)`` (SHA-256
mapped to [0, 1) and compared against ``p``), so a chaos run replays
bit-identically under the same seed and call sequence.

Faults and their injection sites:

=================== ============== =====================================
fault               site           effect when it fires
=================== ============== =====================================
``cache_corrupt``   cache_write    entry bytes garbled before the
                                   atomic write — a persistent bad
                                   entry for the read-side quarantine.
``cache_read_flip`` cache_read     entry bytes garbled after the read —
                                   transient corruption; the on-disk
                                   file is actually fine.
``claim_fail``      queue_claim    raises :class:`InjectedFault` from
                                   the scheduler's claim step.
``http_error``      http_handler   raises :class:`InjectedFault` from
                                   the request handler (mapped to 500).
=================== ============== =====================================

Call sites pass a *stable* key (result-cache payload key, job
fingerprint, request path) so decisions survive re-ordering of
unrelated work.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "ENV_VAR", "FAULTS", "SITES", "InjectedFault", "FaultSpec",
    "FaultRegistry", "parse_faults", "configure", "configure_from_env",
    "reset", "active", "inject", "mangle",
]

ENV_VAR = "REPRO_FAULTS"

# name -> (site, kind). Kind "raise" fires through inject();
# "corrupt" fires through mangle().
FAULTS: Mapping[str, Tuple[str, str]] = {
    "cache_corrupt": ("cache_write", "corrupt"),
    "cache_read_flip": ("cache_read", "corrupt"),
    "claim_fail": ("queue_claim", "raise"),
    "http_error": ("http_handler", "raise"),
}

SITES = tuple(sorted({site for site, _ in FAULTS.values()}))


class InjectedFault(RuntimeError):
    """A fault fired at an injection point (kind="raise")."""

    def __init__(self, name: str, site: str, key: str) -> None:
        super().__init__(f"injected fault {name} at {site} (key={key})")
        self.fault = name
        self.site = site
        self.key = key


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: probability + per-key fire budget."""

    name: str
    p: float = 1.0
    max_fires: int = 1

    def __post_init__(self) -> None:
        if self.name not in FAULTS:
            known = ", ".join(sorted(FAULTS))
            raise ValueError(f"unknown fault {self.name!r} (known: {known})")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault {self.name}: p must be in [0, 1], "
                             f"got {self.p}")
        if self.max_fires < 1:
            raise ValueError(f"fault {self.name}: n must be >= 1, "
                             f"got {self.max_fires}")

    @property
    def site(self) -> str:
        return FAULTS[self.name][0]

    @property
    def kind(self) -> str:
        return FAULTS[self.name][1]


def parse_faults(text: str) -> Tuple[int, Tuple[FaultSpec, ...]]:
    """``(seed, specs)`` from the ``REPRO_FAULTS`` syntax.

    Strict like ``serve.jobs.parse_request``: unknown fault names and
    unknown per-fault keys raise ``ValueError`` so a typo cannot
    silently disable the chaos run it was meant to configure.
    """
    seed = 0
    specs = []
    seen = set()
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            continue
        if item.startswith("seed="):
            seed = int(item[len("seed="):], 10)
            continue
        parts = item.split(":")
        name = parts[0].strip()
        kwargs: Dict[str, float] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(
                    f"fault option {part!r} in {item!r} is not k=v")
            k, v = part.split("=", 1)
            k = k.strip()
            if k not in ("p", "n"):
                raise ValueError(
                    f"unknown fault option {k!r} in {item!r} "
                    "(known: p, n)")
            kwargs[k] = float(v)
        spec = FaultSpec(
            name=name,
            p=kwargs.get("p", 1.0),
            max_fires=int(kwargs.get("n", 1)),
        )
        if name in seen:
            raise ValueError(f"fault {name!r} configured twice")
        seen.add(name)
        specs.append(spec)
    return seed, tuple(specs)


@dataclass
class FaultRegistry:
    """Holds the configured faults plus per-(fault, key) fire counters.

    Thread-safe: the scheduler thread, HTTP handler threads and the
    in-process test harness all consult one registry.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    _by_site: Dict[str, Tuple[FaultSpec, ...]] = field(init=False)
    _occurrences: Dict[Tuple[str, str], int] = field(init=False)
    _fired: Dict[str, int] = field(init=False)
    _lock: threading.Lock = field(init=False)

    def __post_init__(self) -> None:
        by_site: Dict[str, list] = {}
        for spec in self.specs:
            by_site.setdefault(spec.site, []).append(spec)
        self._by_site = {s: tuple(v) for s, v in by_site.items()}
        self._occurrences = {}
        self._fired = {}
        self._lock = threading.Lock()

    # -- decision machinery ------------------------------------------

    @staticmethod
    def _uniform(seed: int, name: str, key: str, occurrence: int) -> float:
        digest = hashlib.sha256(
            f"{seed}|{name}|{key}|{occurrence}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def _fires(self, spec: FaultSpec, key: str) -> bool:
        with self._lock:
            ident = (spec.name, key)
            n = self._occurrences.get(ident, 0)
            self._occurrences[ident] = n + 1
            if n >= spec.max_fires and spec.p >= 1.0:
                return False
            # Budget counts *fires*, not occurrences: with p < 1 an
            # occurrence that rolls a miss does not consume budget.
            fired_so_far = sum(
                1 for i in range(n)
                if self._uniform(self.seed, spec.name, key, i) < spec.p)
            if fired_so_far >= spec.max_fires:
                return False
            if self._uniform(self.seed, spec.name, key, n) < spec.p:
                self._fired[spec.name] = self._fired.get(spec.name, 0) + 1
                return True
            return False

    # -- injection points --------------------------------------------

    def inject(self, site: str, key: str) -> None:
        for spec in self._by_site.get(site, ()):
            if spec.kind == "raise" and self._fires(spec, key):
                raise InjectedFault(spec.name, site, key)

    def mangle(self, site: str, key: str, data: bytes) -> bytes:
        for spec in self._by_site.get(site, ()):
            if spec.kind != "corrupt":
                continue
            if self._fires(spec, key):
                # Keep the length, garble the content: json parsing
                # fails loudly, size accounting stays plausible.
                data = b"\x00CORRUPT\x00" + data[9:] if len(data) > 9 \
                    else b"\x00CORRUPT\x00"
        return data

    def counts(self) -> Dict[str, int]:
        """Fires so far, by fault name (chaos-suite assertions)."""
        with self._lock:
            return dict(self._fired)


# -- module-level fast path ------------------------------------------

_REGISTRY: Optional[FaultRegistry] = None


def configure(text: Optional[str]) -> Optional[FaultRegistry]:
    """Install a registry from a ``REPRO_FAULTS``-syntax string.

    ``None`` or an empty string uninstalls (the free path). Returns the
    installed registry so tests can assert on ``counts()``.
    """
    global _REGISTRY
    if not text:
        _REGISTRY = None
        return None
    seed, specs = parse_faults(text)
    _REGISTRY = FaultRegistry(seed=seed, specs=specs)
    return _REGISTRY


def configure_from_env() -> Optional[FaultRegistry]:
    return configure(os.environ.get(ENV_VAR))


def reset() -> None:
    global _REGISTRY
    _REGISTRY = None


def active() -> Optional[FaultRegistry]:
    return _REGISTRY


def inject(site: str, key: str) -> None:
    """Injection point for raise faults. Near-free when no registry is
    installed (one global load + None check)."""
    if _REGISTRY is None:
        return
    _REGISTRY.inject(site, key)


def mangle(site: str, key: str, data: bytes) -> bytes:
    """Injection point for corruption faults; returns ``data`` possibly
    garbled. Near-free when no registry is installed."""
    if _REGISTRY is None:
        return data
    return _REGISTRY.mangle(site, key, data)


# Arm from REPRO_FAULTS at import, so the CLI and a served instance
# started under it are armed without plumbing.
configure_from_env()
