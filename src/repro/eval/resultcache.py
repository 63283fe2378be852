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
- a source salt (:func:`code_salt`): a sha256 over the bytes of every
  module that simulates, synthesizes or prices a layer, so any edit to
  them retires every stored entry without anyone remembering to bump
  a version.

The key is hashed in two stages (:func:`payload_key`). Stage one
digests an accelerator: the salt, its class, name, tech node,
simulator config, costs, DRAM and SRAM. Stage two digests one task:
that accelerator digest, the accelerator's per-layer GEMM knobs, the
canonical layer, the seed and the row cap. A batch passes one memo
dict to every key, so each accelerator is digested and each layer
canonicalized once per batch instead of once per task.

Only cycle simulations are cached. A closed-form analytic evaluation
costs less than its own key, so the analytic tier (the DSE sweep,
analytic serve requests) recomputes it every time and can never serve
a stale entry.

Payloads are cached *pre-finalization* (before the memory-hierarchy
profile and energy pricing run), which is exactly what the runner's
simulations return; finalization re-runs on every consumption, so
a cached result is bit-equal to a cold simulation by construction
(asserted in ``tests/eval/test_runner.py``). The store is a plain
directory of ``<key>.json`` files (a few hundred bytes each), each
written atomically; nothing evicts them — delete the directory to
reclaim the space (``make cache-clear``). A corrupt, truncated or
malformed entry reads as a miss — but a *counted* one: the bad file
moves to the ``corrupt/`` subdirectory (so it can never be re-hit, and
stays around for forensics) and ``result_cache.corrupt`` increments.

The default location is ``$REPRO_CACHE_DIR`` (falling back to
``~/.cache/repro/results``); set ``REPRO_RESULT_CACHE=0`` to disable
the default cache entirely (explicit :class:`ResultCache` instances
still work — the test suite uses tmpdir caches).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Optional, Tuple

from repro import faults
from repro.arch.events import EventCounts
from repro.obs import metrics as obs_metrics

__all__ = ["CORRUPT_SUBDIR", "SALT_SOURCES", "ResultCache", "code_salt",
           "combine_keys", "default_result_cache", "payload_key"]

#: Quarantine subdirectory for corrupt entries. Entry lookups never
#: descend into it, so a bad entry can never be re-hit.
CORRUPT_SUBDIR = "corrupt"

#: The package root the salt sources are relative to.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Everything whose bytes can change a payload: the simulators and
#: accelerator models, the sparsity/GEMM core, the energy model, the
#: layer specs, operand synthesis and this module's entry format.
#: Directories contribute every ``*.py`` beneath them.
SALT_SOURCES = ("arch", "accel", "core", "energy", "models/specs.py",
                "workloads/from_spec.py", "eval/resultcache.py")

_EVENT_FIELDS = frozenset(f.name for f in dataclasses.fields(EventCounts))


@functools.lru_cache(maxsize=None)
def code_salt() -> str:
    """sha256 over the path and bytes of every :data:`SALT_SOURCES`
    file, folded into every key. Computed on the first key, not at
    import, and once per process."""
    files = []
    for source in SALT_SOURCES:
        path = _PACKAGE_ROOT / source
        files.extend(path.rglob("*.py") if path.is_dir() else [path])
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


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


def _dumps(obj) -> str:
    """Canonical compact JSON of ``obj`` (see :func:`_canonical`)."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"))


def _accelerator_digest(accel) -> Tuple[str, bool]:
    """Stage one of :func:`payload_key`: sha256 over the source salt and
    everything about ``accel`` that no layer changes (class, name,
    tech node, simulator config, energy costs, DRAM and SRAM), plus
    whether ``accel`` has a cycle simulator at all."""
    try:
        sim_config = _canonical(accel.functional_sim_config())
        functional = True
    except NotImplementedError:
        # A model without a cycle simulator (S2TA-WA) still needs a
        # fingerprint for analytic serve requests; the class name plus
        # the design-point fields below pin its configuration.
        sim_config = None
        functional = False
    blob = _dumps({
        "code_salt": code_salt(),
        "accel_class": type(accel).__qualname__,
        "accel_name": accel.name,
        "tech": accel.tech,
        "sim_config": sim_config,
        "costs": accel.costs,
        "dram": accel.memory.dram,
        "sram": accel.memory.sram,
    })
    return hashlib.sha256(blob.encode()).hexdigest(), functional


def _memoized(memo: dict, obj, compute):
    """``compute(obj)``, once per instance per ``memo``. Entries key on
    ``id(obj)`` and hold ``obj`` itself, so the id cannot be reused by
    another object while the memo lives; equal-but-distinct instances
    (``1`` vs ``1.0`` fields) never share an entry."""
    entry = memo.get(id(obj))
    if entry is None:
        entry = memo[id(obj)] = (obj, compute(obj))
    return entry[1]


def payload_key(accel, layer, seed: int = 0,
                max_m: Optional[int] = None,
                memo: Optional[dict] = None) -> str:
    """Content hash of everything that determines one layer's simulation
    payload (see the module docstring for the component list).

    Two stages: :func:`_accelerator_digest` hashes the accelerator, and
    the key is a sha256 over that digest, the accelerator's per-layer
    GEMM knobs, the canonical layer, ``seed`` and ``max_m``. ``memo``
    is an optional caller-owned dict that lives for one batch: it
    caches each accelerator instance's digest and each layer
    instance's canonical JSON, so a batch hashes every accelerator and
    layer once. Without it every part is computed afresh; the key is
    the same either way. A memo must not outlive a batch — it does not
    notice an accelerator mutated after its first key.

    Module-level so callers without a cache — the runner's in-batch
    dedupe under ``--no-result-cache``, the serve request
    fingerprint — fingerprint tasks the exact same way the cache does.
    """
    if memo is None:
        memo = {}
    accel_digest, functional = _memoized(memo, accel, _accelerator_digest)
    gemm_kwargs = (_dumps(accel._functional_gemm_kwargs(layer))
                   if functional else "null")
    blob = (f'["{accel_digest}",{gemm_kwargs},'
            f'{_memoized(memo, layer, _dumps)},{int(seed)},'
            f'{"null" if max_m is None else int(max_m)}]')
    return hashlib.sha256(blob.encode()).hexdigest()


def combine_keys(keys, extra=None) -> str:
    """Order-sensitive content hash over per-layer payload keys.

    The request-level fingerprint of the serve subsystem
    (:mod:`repro.serve`): a whole-job identity is the ordered sequence
    of its layer-task fingerprints (each already covering layer spec,
    accelerator/memory/energy config, seed, quick cap and the
    :func:`code_salt`) plus any ``extra`` request-level context
    (model name, conv-only flag, tier) canonicalized the same way the
    payload keys are. Two requests share a fingerprint iff every
    simulation *and* finalization input matches — which is exactly when
    the scheduler may serve one simulation to both.
    """
    digest = hashlib.sha256()
    if extra is not None:
        digest.update(_dumps(extra).encode())
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

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.path / f"{key}.json"

    def get(self, key: str) -> Optional[Tuple[int, EventCounts]]:
        """The cached payload, or ``None`` on miss / corrupt entry.

        A file that exists but does not hold an integer
        ``compute_cycles`` and integer counters named after
        :class:`EventCounts` fields is *corruption*, not a plain miss:
        it is counted separately (``result_cache.corrupt`` metric) and
        quarantined to the ``corrupt/`` subdirectory so the next lookup
        of the same key re-simulates instead of re-hitting the bad
        bytes. Either way the caller sees ``None`` and the engine
        recomputes — a corrupt entry can degrade performance, never
        correctness.
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
            counts = payload["events"]
            # ``type(...) is int`` also rejects bools (a JSON true).
            if not (type(compute_cycles) is int
                    and counts.keys() <= _EVENT_FIELDS
                    and all(type(v) is int for v in counts.values())):
                raise ValueError(f"malformed cache entry {path.name}")
            events = EventCounts(**counts)
        except (ValueError, TypeError, KeyError, AttributeError):
            self._quarantine_entry(path)
            self.corrupt += 1
            self.misses += 1
            registry = obs_metrics.default_registry()
            registry.counter("result_cache.corrupt").inc()
            registry.counter("result_cache.misses").inc()
            return None
        self.hits += 1
        obs_metrics.default_registry().counter("result_cache.hits").inc()
        return compute_cycles, events

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
        """Freeze one payload (atomic write)."""
        self.path.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({
            "compute_cycles": int(compute_cycles),
            "events": events.as_dict(),
        }, sort_keys=True)
        # Chaos-suite injection point: a fired cache_corrupt fault
        # garbles the entry on its way to disk, exercising the
        # read-side quarantine end to end.
        blob = faults.mangle("cache_write", key, blob.encode()).decode(
            "utf-8", errors="replace")
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp, self._entry_path(key))
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


def default_result_cache() -> Optional[ResultCache]:
    """The process-default on-disk cache (what the CLI uses) at
    ``$REPRO_CACHE_DIR``, else ``~/.cache/repro/results``; ``None``
    when ``REPRO_RESULT_CACHE=0`` disables it."""
    if os.environ.get("REPRO_RESULT_CACHE", "1") == "0":
        return None
    return ResultCache(os.environ.get("REPRO_CACHE_DIR") or (
        pathlib.Path.home() / ".cache" / "repro" / "results"))
