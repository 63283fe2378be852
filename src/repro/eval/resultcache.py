"""Content-addressed on-disk cache for functional-simulation results.

Full-size functional runs re-simulate the same (layer, accelerator,
seed) points over and over: fig11, fig12, xval and the roofline sweeps
all share AlexNet conv layers, and every re-invocation starts from
scratch. This module gives the functional tier the evaluation-cache
structure real simulator infrastructure uses (Timeloop/Accelergy-style
caches keyed on config hashes): each simulated layer's *measured*
``(compute_cycles, EventCounts)`` payload is frozen to disk under a
content hash of everything that determines it —

- the layer spec (GEMM shape, DBB bounds, densities, window),
- the accelerator design point (class, functional simulator config,
  per-layer GEMM knobs, technology node),
- the energy cost model and the memory-channel/staging configuration,
- the operand-synthesis seed and the quick-mode row cap,
- a code-version salt (:data:`CODE_VERSION` — bump it whenever a
  simulator's event accounting changes, or stale entries would silently
  survive the change).

Only cycle simulations are cached. A closed-form analytic evaluation
costs less than its own key, so the analytic tier (the DSE sweep,
analytic serve requests) recomputes it every time and can never serve
a stale entry.

Payloads are cached *pre-finalization* (before the memory-hierarchy
profile and energy pricing run), which is exactly what the parallel
runner's workers return; finalization re-runs on every consumption, so
a cached result is bit-equal to a cold simulation by construction
(asserted in ``tests/eval/test_runner.py``). Entries are small JSON
files (a few hundred bytes each), written atomically, evicted oldest
first once the directory exceeds ``max_bytes``. A corrupt or truncated
entry reads as a miss — but a *counted* one: the bad file moves to the
``corrupt/`` subdirectory (so it can never be re-hit, and stays around
for forensics), ``result_cache.corrupt`` increments, and the lifetime
sidecar accumulates the count across runs. ``repro cache
stats|clear|prune`` manages the default cache from the CLI.

The default location is ``$REPRO_CACHE_DIR`` (falling back to
``~/.cache/repro/results``); set ``REPRO_RESULT_CACHE=0`` to disable
the default cache entirely (explicit :class:`ResultCache` instances
still work — the test suite uses tmpdir caches).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional, Tuple

from repro import faults
from repro.arch.events import EventCounts
from repro.obs import metrics as obs_metrics

__all__ = ["CODE_VERSION", "CORRUPT_SUBDIR", "ResultCache",
           "combine_keys", "default_result_cache", "payload_key"]

#: Lifetime-stats sidecar filename. Deliberately *not* ``*.json`` so
#: the entry glob (and byte accounting / eviction) never sees it.
STATS_SIDECAR = "stats.meta"

#: Quarantine subdirectory for corrupt entries. The entry glob is
#: non-recursive, so quarantined files are invisible to get/prune —
#: a bad entry can never be re-hit, re-counted or "evicted" as if it
#: were data.
CORRUPT_SUBDIR = "corrupt"

#: Version salt folded into every cache key. Bump whenever any
#: functional simulator's event accounting or operand synthesis
#: changes, so stale entries can never masquerade as fresh results.
#: A change to the key schema itself (a field added to or dropped from
#: the fingerprint blob) needs no bump: old entries simply miss.
CODE_VERSION = "census-v1"

DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _canonical(obj):
    """Recursively normalize ``obj`` into JSON-stable primitives.

    Dataclasses flatten to ``[class-name, sorted field dict]``, enums to
    their values, floats through ``repr`` (distinguishes 0.1 from
    0.1000000001 without platform drift). Anything unknown falls back to
    ``repr`` — stable for the config objects this module fingerprints.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: _canonical(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)}]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, _canonical(obj.value)]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def payload_key(accel, layer, seed: int = 0,
                max_m: Optional[int] = None) -> str:
    """Content hash of everything that determines one layer's simulation
    payload (see the module docstring for the component list).

    Module-level so callers without a cache — the parallel runner's
    in-batch dedupe under ``--no-result-cache``, the serve request
    fingerprint — fingerprint tasks the exact same way the cache does.
    """
    try:
        sim_config = _canonical(accel.functional_sim_config())
        gemm_kwargs = _canonical(accel._functional_gemm_kwargs(layer))
    except NotImplementedError:
        # A model without a cycle simulator (S2TA-WA) still needs a
        # fingerprint for analytic serve requests; the class name plus
        # the design-point fields below pin its configuration.
        sim_config = None
        gemm_kwargs = None
    fingerprint = {
        "code_version": CODE_VERSION,
        "accel_class": type(accel).__qualname__,
        "accel_name": accel.name,
        "tech": accel.tech,
        "sim_config": sim_config,
        "gemm_kwargs": gemm_kwargs,
        "costs": _canonical(accel.costs),
        "dram": _canonical(accel.memory.dram),
        "sram": _canonical(accel.memory.sram),
        "layer": _canonical(layer),
        "seed": int(seed),
        "max_m": None if max_m is None else int(max_m),
    }
    blob = json.dumps(fingerprint, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def combine_keys(keys, extra=None) -> str:
    """Order-sensitive content hash over per-layer payload keys.

    The request-level fingerprint of the serve subsystem
    (:mod:`repro.serve`): a whole-job identity is the ordered sequence
    of its layer-task fingerprints (each already covering layer spec,
    accelerator/memory/energy config, seed, quick cap and the
    :data:`CODE_VERSION` salt) plus any ``extra`` request-level context
    (model name, conv-only flag, tier) canonicalized the same way the
    payload keys are. Two requests share a fingerprint iff every
    simulation *and* finalization input matches — which is exactly when
    the scheduler may serve one simulation to both.
    """
    digest = hashlib.sha256()
    if extra is not None:
        blob = json.dumps(_canonical(extra), sort_keys=True,
                          separators=(",", ":"))
        digest.update(blob.encode())
        digest.update(b"\x00")
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of simulated-layer payloads.

    One entry = one ``(compute_cycles, EventCounts)`` pair, the
    pre-finalization output of
    :meth:`repro.accel.base.AcceleratorModel.simulate_layer_functional`.
    ``get`` returns a *fresh* :class:`EventCounts` per call — callers
    (finalization) mutate the counters, so entries must never alias.
    """

    def __init__(self, path, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        # Counts already folded into the on-disk lifetime sidecar, so
        # repeated persist_stats() calls only add the new delta.
        self._persisted = {"hits": 0, "misses": 0, "puts": 0,
                           "evictions": 0, "corrupt": 0}
        # Running size estimate so ``put`` does not re-scan the whole
        # directory per insert: seeded by one scan on the first put,
        # advanced per entry, re-anchored whenever eviction runs.
        # Concurrent writers make any in-process total approximate;
        # eviction is best-effort by design.
        self._approx_bytes: Optional[int] = None

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.path / f"{key}.json"

    # ------------------------------------------------------------- #
    # get / put
    # ------------------------------------------------------------- #

    def get(self, key: str) -> Optional[Tuple[int, EventCounts]]:
        """The cached payload, or ``None`` on miss / corrupt entry.

        A file that exists but fails to parse is *corruption*, not a
        plain miss: it is counted separately (``result_cache.corrupt``
        metric, ``corrupt`` in the lifetime sidecar) and quarantined to
        the ``corrupt/`` subdirectory so the next lookup of the same
        key re-simulates instead of re-hitting the bad bytes. Either
        way the caller sees ``None`` and the engine recomputes — a
        corrupt entry can degrade performance, never correctness.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            obs_metrics.default_registry().counter(
                "result_cache.misses").inc()
            return None
        raw = faults.mangle("cache_read", key, raw)
        try:
            payload = json.loads(raw)
            compute_cycles = payload["compute_cycles"]
            events = EventCounts(**payload["events"])
        except (ValueError, TypeError, KeyError):
            self._quarantine_entry(path)
            self.corrupt += 1
            self.misses += 1
            registry = obs_metrics.default_registry()
            registry.counter("result_cache.corrupt").inc()
            registry.counter("result_cache.misses").inc()
            return None
        self.hits += 1
        obs_metrics.default_registry().counter("result_cache.hits").inc()
        return int(compute_cycles), events

    def _quarantine_entry(self, path: pathlib.Path) -> None:
        """Move a corrupt entry to ``corrupt/`` (best-effort: a
        concurrent reader may have moved it first; an unwritable store
        falls back to deleting the bad file — leaving it in place to be
        re-hit forever is the one unacceptable outcome)."""
        target_dir = self.path / CORRUPT_SUBDIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def put(self, key: str, compute_cycles: int,
            events: EventCounts) -> None:
        """Freeze one payload (atomic write, then size-cap eviction)."""
        self.path.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({
            "code_version": CODE_VERSION,
            "compute_cycles": int(compute_cycles),
            "events": events.as_dict(),
        }, sort_keys=True)
        # Chaos-suite injection point: a fired cache_corrupt fault
        # garbles the entry on its way to disk, exercising the
        # read-side quarantine end to end.
        blob = faults.mangle("cache_write", key, blob.encode()).decode(
            "utf-8", errors="replace")
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        entry = self._entry_path(key)
        # An overwritten entry's bytes leave the store when os.replace
        # lands, so they must leave the running estimate too — otherwise
        # repeated re-puts of the same keys inflate it until eviction
        # triggers on a store that is nowhere near the cap.
        try:
            replaced_bytes = entry.stat().st_size
        except OSError:
            replaced_bytes = 0
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, entry)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        obs_metrics.default_registry().counter("result_cache.puts").inc()
        obs_metrics.default_registry().counter(
            "result_cache.bytes_written").inc(len(blob))
        if self._approx_bytes is None:
            self._approx_bytes = sum(size for _, size, _ in self._entries())
        else:
            self._approx_bytes += len(blob) - replaced_bytes
        if self._approx_bytes > self.max_bytes:
            self.prune(self.max_bytes)

    # ------------------------------------------------------------- #
    # maintenance
    # ------------------------------------------------------------- #

    def _entries(self):
        if not self.path.is_dir():
            return []
        out = []
        for path in self.path.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def stats(self) -> Dict[str, int]:
        entries = self._entries()
        lifetime = self.lifetime_stats()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "lifetime_hits": lifetime["hits"] + self.hits
            - self._persisted["hits"],
            "lifetime_misses": lifetime["misses"] + self.misses
            - self._persisted["misses"],
            "lifetime_corrupt": lifetime["corrupt"] + self.corrupt
            - self._persisted["corrupt"],
        }

    # ------------------------------------------------------------- #
    # lifetime stats (cross-run, cross-process)
    # ------------------------------------------------------------- #

    def _sidecar_path(self) -> pathlib.Path:
        return self.path / STATS_SIDECAR

    def lifetime_stats(self) -> Dict[str, int]:
        """Totals persisted across runs/processes (zeros when absent).

        Before PR 8 these counts were unrecoverable: each process (and
        each pool run) started its in-memory counters at zero and threw
        them away on exit. The sidecar accumulates them instead.
        """
        base = {"hits": 0, "misses": 0, "puts": 0, "evictions": 0,
                "corrupt": 0}
        try:
            data = json.loads(self._sidecar_path().read_text())
        except (OSError, ValueError):
            return base
        for key in base:
            value = data.get(key)
            if isinstance(value, int) and value >= 0:
                base[key] = value
        return base

    def persist_stats(self) -> None:
        """Fold this instance's not-yet-persisted counter deltas into
        the on-disk lifetime sidecar (atomic replace; the cross-process
        read-modify-write is best-effort, like eviction)."""
        current = {"hits": self.hits, "misses": self.misses,
                   "puts": self.puts, "evictions": self.evictions,
                   "corrupt": self.corrupt}
        delta = {key: current[key] - self._persisted[key]
                 for key in current}
        if not any(delta.values()):
            return
        totals = self.lifetime_stats()
        for key, value in delta.items():
            totals[key] += value
        self.path.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(totals, handle, sort_keys=True)
            os.replace(tmp, self._sidecar_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._persisted = current

    def prune(self, max_bytes: int) -> int:
        """Evict oldest entries until the store fits ``max_bytes``;
        returns the number of entries removed."""
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        entries = sorted(self._entries(), key=lambda e: e[2])
        total = sum(size for _, size, _ in entries)
        removed = 0
        for path, size, _ in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self._approx_bytes = total
        self.evictions += removed
        obs_metrics.default_registry().counter(
            "result_cache.evictions").inc(removed)
        return removed

    def clear(self) -> int:
        """Remove every entry (and the lifetime-stats sidecar);
        returns the number of entries removed."""
        removed = 0
        for path, _, _ in self._entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        corrupt_dir = self.path / CORRUPT_SUBDIR
        if corrupt_dir.is_dir():
            for path in corrupt_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            self._sidecar_path().unlink()
        except OSError:
            pass
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.corrupt = 0
        self._persisted = {"hits": 0, "misses": 0, "puts": 0,
                           "evictions": 0, "corrupt": 0}
        self._approx_bytes = 0
        return removed


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or the user-level default location."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "results"


def default_result_cache() -> Optional[ResultCache]:
    """The process-default on-disk cache (what the CLI uses), or
    ``None`` when ``REPRO_RESULT_CACHE=0`` disables it."""
    if os.environ.get("REPRO_RESULT_CACHE", "1") == "0":
        return None
    return ResultCache(default_cache_dir())
