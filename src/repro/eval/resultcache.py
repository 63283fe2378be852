"""Content-addressed on-disk cache for functional-simulation results.

Fig11, fig12 and xval re-simulate the same (layer, accelerator,
seed) points. Like Timeloop/Accelergy-style caches keyed on config
hashes, each simulated layer's *measured* ``(compute_cycles,
EventCounts)`` payload is frozen to disk under a content hash
(:func:`payload_key`, hashed in two stages) of everything that
determines it —

- the layer spec (GEMM shape, DBB bounds, densities, window),
- the accelerator design point (class, functional simulator config,
  per-layer GEMM knobs, technology node),
- the energy cost model and the memory-channel/staging configuration,
- the operand-synthesis seed,
- a source salt (:func:`code_salt`): a sha256 over the bytes of every
  module that simulates, synthesizes or prices a layer, so any edit to
  them retires every stored entry without anyone remembering to bump
  a version.

Only cycle simulations are cached: a closed-form analytic evaluation
costs less than its own key, so the analytic tier (the DSE sweep and
the analytic artifacts) recomputes it and never serves a stale entry.
Payloads are cached *pre-finalization* (before the memory profile and
energy pricing), exactly what the runner's simulations return, and
finalization re-runs on every consumption, so a cached result is
bit-equal to a cold simulation (``tests/eval/test_runner.py``).

The store is one append-only JSON-lines log per source salt,
``<dir>/<code_salt()[:16]>.jsonl`` (so a process never reads a log its
sources cannot hit), one ``{"compute_cycles", "events", "key"}`` record
per line. A runner batch appends its records in one ``os.write`` on an
``O_APPEND`` descriptor, from a fresh line (a torn final record spoils
only itself). An instance reads and validates the whole log on its
first ``get`` after construction or an append; a key stored twice reads
as its later record. Nothing evicts: a salt's log grows by a few
hundred bytes per record until ``make cache-clear``. A record that
fails validation is never served: the load that finds it counts it in
``result_cache.corrupt`` and rewrites the log atomically without it,
moving the line to :data:`CORRUPT_LOG`.

The default location is ``$REPRO_CACHE_DIR``, else
``~/.cache/repro/results``; ``REPRO_RESULT_CACHE=0`` disables the
default cache (explicit :class:`ResultCache` instances still work).
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

from repro.arch.events import EventCounts
from repro.obs import metrics as obs_metrics

__all__ = ["CORRUPT_LOG", "SALT_SOURCES", "ResultCache", "code_salt",
           "default_result_cache", "payload_key"]

#: Quarantine log, next to the salt logs: the lines that failed
#: validation, which no lookup ever reads.
CORRUPT_LOG = "corrupt.jsonl"

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


def _accelerator_digest(accel) -> str:
    """Stage one of :func:`payload_key`: sha256 over the source salt and
    everything about ``accel`` that no layer changes (class, name,
    tech node, simulator config, energy costs, DRAM and SRAM). A model
    without a cycle simulator (S2TA-WA) raises ``NotImplementedError``
    here, as its simulation would."""
    blob = _dumps({
        "code_salt": code_salt(),
        "accel_class": type(accel).__qualname__,
        "accel_name": accel.name,
        "tech": accel.tech,
        "sim_config": accel.functional_sim_config(),
        "costs": accel.costs,
        "dram": accel.memory.dram,
        "sram": accel.memory.sram,
    })
    return hashlib.sha256(blob.encode()).hexdigest()


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
                memo: Optional[dict] = None) -> str:
    """Content hash of everything that determines one layer's simulation
    payload (see the module docstring for the component list).

    Two stages: :func:`_accelerator_digest` hashes the accelerator, and
    the key is a sha256 over that digest, the accelerator's per-layer
    GEMM knobs, the canonical layer and ``seed``. ``memo`` is an
    optional caller-owned dict that lives for one batch: it
    caches each accelerator instance's digest and each layer
    instance's canonical JSON, so a batch hashes every accelerator and
    layer once. Without it every part is computed afresh; the key is
    the same either way. A memo must not outlive a batch — it does not
    notice an accelerator mutated after its first key.

    Module-level so the runner's in-batch dedupe under
    ``--no-result-cache`` fingerprints tasks the exact same way the
    cache does.
    """
    if memo is None:
        memo = {}
    accel_digest = _memoized(memo, accel, _accelerator_digest)
    gemm_kwargs = _dumps(accel._functional_gemm_kwargs(layer))
    blob = (f'["{accel_digest}",{gemm_kwargs},'
            f'{_memoized(memo, layer, _dumps)},{int(seed)}]')
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of simulated-layer payloads.

    One record = one ``(compute_cycles, EventCounts)`` pair, the
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
        self._records = None

    @property
    def log_path(self) -> pathlib.Path:
        """The log of this process's source salt."""
        return self.path / f"{code_salt()[:16]}.jsonl"

    def get(self, key: str) -> Optional[Tuple[int, EventCounts]]:
        """The cached payload, or ``None`` on a miss."""
        if self._records is None:
            self._records = self._load()
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            obs_metrics.default_registry().counter("result_cache.misses").inc()
            return None
        self.hits += 1
        obs_metrics.default_registry().counter("result_cache.hits").inc()
        return record[0], EventCounts(**record[1])

    def _load(self) -> dict:
        """Every valid record of the log by key; a key's later record
        wins. A line without a string ``key``, an integer
        ``compute_cycles`` and integer counters named after
        :class:`EventCounts` fields counts as corrupt and moves to
        :data:`CORRUPT_LOG` (best-effort: on an unwritable store it
        stays, never served, and counts again on the next load)."""
        try:
            lines = self.log_path.read_bytes().split(b"\n")
        except OSError:
            return {}
        records, good, bad = {}, [], []
        for line in filter(None, lines):
            try:
                record = json.loads(line)
                key = record["key"]
                compute_cycles = record["compute_cycles"]
                counts = record["events"]
                # ``type(...) is int`` also rejects bools (a JSON true).
                if not (type(key) is str and type(compute_cycles) is int
                        and counts.keys() <= _EVENT_FIELDS
                        and all(type(v) is int for v in counts.values())):
                    raise ValueError("malformed cache record")
            except (ValueError, TypeError, KeyError, AttributeError):
                bad.append(line + b"\n")
                continue
            records[key] = compute_cycles, counts
            good.append(line + b"\n")
        if bad:
            self.corrupt += len(bad)
            obs_metrics.default_registry().counter(
                "result_cache.corrupt").inc(len(bad))
            try:
                with open(self.path / CORRUPT_LOG, "ab") as handle:
                    handle.write(b"".join(bad))
                fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(b"".join(good))
                os.replace(tmp, self.log_path)
            except OSError:
                pass
        return records

    def append(self, records) -> None:
        """Append ``(key, compute_cycles, events)`` records to the log
        in one write, starting on a fresh line; zero counters are left
        out (they read back as :class:`EventCounts` defaults)."""
        lines = [json.dumps({"compute_cycles": int(compute_cycles),
                             "events": {name: value for name, value
                                        in events.as_dict().items() if value},
                             "key": key}, separators=(",", ":"))
                 for key, compute_cycles, events in records]
        if not lines:
            return
        data = ("\n" + "\n".join(lines) + "\n").encode()
        self.path.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._records = None
        self.puts += len(lines)
        registry = obs_metrics.default_registry()
        registry.counter("result_cache.puts").inc(len(lines))
        registry.counter("result_cache.bytes_written").inc(len(data))

    def put(self, key: str, compute_cycles: int,
            events: EventCounts) -> None:
        """Append one payload (a batch of one)."""
        self.append([(key, compute_cycles, events)])


def default_result_cache() -> Optional[ResultCache]:
    """The process-default on-disk cache (what the CLI uses) at
    ``$REPRO_CACHE_DIR``, else ``~/.cache/repro/results``; ``None``
    when ``REPRO_RESULT_CACHE=0`` disables it."""
    if os.environ.get("REPRO_RESULT_CACHE", "1") == "0":
        return None
    return ResultCache(os.environ.get("REPRO_CACHE_DIR") or (
        pathlib.Path.home() / ".cache" / "repro" / "results"))
