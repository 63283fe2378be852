"""Span/event tracer emitting Chrome trace-event JSON.

One :class:`Tracer` serves one process: it appends trace events as JSON
lines to a per-process *shard* file (line-buffered, so a ``fork``-ed
pool worker never inherits half-written buffers) and the parent's
:class:`TraceSession` merges every shard into a single Chrome
trace-event artifact — ``{"traceEvents": [...]}`` — that Perfetto and
``chrome://tracing`` open directly, with one track per process (the
parent plus every pool worker).

Clock discipline: a tracer samples the **injected** ``clock`` callable
it was constructed with (default :func:`time.perf_counter_ns` —
``CLOCK_MONOTONIC``, comparable across fork-started processes on the
same host) exactly once per event. Nothing in this module reaches for
an ambient wall clock in a hot loop, and tests inject fake clocks for
deterministic timestamps.

Disabled-mode contract: when no tracer is installed, :func:`span` is a
module-global ``None`` check returning one shared no-op context
manager — no allocation, no clock read, no string formatting.
``benchmarks/bench_obs_overhead.py`` freezes that cost (<< 1% of any
experiment's wall-clock at per-layer span granularity); the hot
*inner* loops (per-tile simulation) are deliberately never
instrumented.

Event schema (pinned in ``tests/obs/test_trace.py``): every record
carries ``name``/``cat``/``ph``/``ts``/``pid``/``tid``; ``ph`` is
``"B"``/``"E"`` for span begin/end (always emitted as a matched pair
by the context manager), ``"i"`` for instants and ``"M"`` for the
process-name metadata. ``ts`` is integer microseconds. Optional
``args`` ride on ``B`` (the span's keyword arguments), on ``E`` (what
:meth:`_Span.annotate` added before the span ended) and on instants.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import shutil
import threading
import time
from typing import Callable, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_ENV",
    "Tracer",
    "TraceSession",
    "span",
    "instant",
    "traced",
    "tracing_enabled",
    "current_tracer",
    "active_shard_dir",
    "start_tracing",
    "stop_tracing",
    "reset_for_worker",
]

#: Environment variable the CLI honors as the default ``--trace FILE``.
TRACE_ENV = "REPRO_TRACE"

#: Bumped whenever the emitted event schema changes field names or
#: semantics (tests pin the schema against this).
SCHEMA_VERSION = 1


class _NullSpan:
    """Shared no-op context manager — the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def annotate(self, **args) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live begin/end pair bound to one tracer."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_end_args")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[dict]):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._end_args = None

    def __enter__(self):
        self._tracer._emit("B", self._name, self._cat, self._args)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._emit("E", self._name, self._cat, self._end_args)
        return False

    def annotate(self, **args) -> None:
        """Args known only when the span ends; they ride on its ``E``
        event, which trace viewers merge into the slice's args."""
        self._end_args = args


class Tracer:
    """Appends this process's trace events to one JSONL shard file."""

    def __init__(self, shard_path, clock: Callable[[], int] = None,
                 process_label: str = "repro"):
        self.shard_path = pathlib.Path(shard_path)
        self._clock = clock if clock is not None else time.perf_counter_ns
        self.pid = os.getpid()
        self.events_emitted = 0
        self._lock = threading.Lock()
        # Line-buffered: each event flushes as one complete line, so a
        # fork sees an empty buffer and a killed worker loses at most
        # its final partial line (the merge tolerates that).
        self._file = open(self.shard_path, "a", buffering=1,
                          encoding="utf-8")
        self._emit("M", "process_name", "__metadata",
                   {"name": process_label})

    # ------------------------------------------------------------- #

    def _emit(self, ph: str, name: str, cat: str,
              args: Optional[dict]) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": self._clock() // 1000,  # integer microseconds
            "pid": self.pid,
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        line = json.dumps(event, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if not self._file.closed:
                self._file.write(line + "\n")
                self.events_emitted += 1

    def span(self, name: str, cat: str = "repro", **args) -> _Span:
        """Context manager emitting a matched B/E pair around its body."""
        return _Span(self, name, cat, args or None)

    def instant(self, name: str, cat: str = "repro", **args) -> None:
        self._emit("i", name, cat, args or None)

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class TraceSession:
    """Parent-side lifecycle: shard directory, parent tracer, merge.

    ``out_path`` names the final Chrome-trace JSON; shards accumulate
    under ``<out_path>.shards/`` until :meth:`finalize` merges them and
    removes the directory. Worker processes join the session through
    :func:`reset_for_worker` (called by the pool initializer with
    :func:`active_shard_dir`).
    """

    def __init__(self, out_path, clock: Callable[[], int] = None):
        self.out_path = pathlib.Path(out_path)
        if self.out_path.parent and not self.out_path.parent.exists():
            self.out_path.parent.mkdir(parents=True, exist_ok=True)
        self.shard_dir = pathlib.Path(str(self.out_path) + ".shards")
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        # A crashed earlier session must not leak its shards into ours.
        for stale in self.shard_dir.glob("*.jsonl"):
            stale.unlink()
        self._clock = clock
        self.tracer = Tracer(
            self.shard_dir / f"parent-{os.getpid()}.jsonl",
            clock=clock, process_label="repro")

    def read_events(self) -> List[dict]:
        """Parse every shard's events (tolerating a truncated tail)."""
        events: List[dict] = []
        for shard in sorted(self.shard_dir.glob("*.jsonl")):
            for line in shard.read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue  # half-written final line of a dead worker
        return events

    def finalize(self) -> pathlib.Path:
        """Merge all shards into the Chrome-trace artifact and clean up.

        Events sort by timestamp; Python's stable sort preserves each
        shard's emit order for equal timestamps, so B/E pairs on one
        track never invert.
        """
        self.tracer.close()
        events = self.read_events()
        events.sort(key=lambda e: e.get("ts", 0))
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs",
                          "schemaVersion": SCHEMA_VERSION},
        }
        self.out_path.write_text(
            json.dumps(payload, separators=(",", ":")) + "\n",
            encoding="utf-8")
        shutil.rmtree(self.shard_dir, ignore_errors=True)
        return self.out_path


# ----------------------------------------------------------------- #
# module-global state (one tracer per process)
# ----------------------------------------------------------------- #

_TRACER: Optional[Tracer] = None
_SESSION: Optional[TraceSession] = None


def tracing_enabled() -> bool:
    """True when a tracer is installed in this process."""
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, cat: str = "repro", **args):
    """A span against the installed tracer, or the shared no-op when
    tracing is disabled — the guard every instrumentation point uses."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, **args)


def instant(name: str, cat: str = "repro", **args) -> None:
    tracer = _TRACER
    if tracer is not None:
        tracer.instant(name, cat, **args)


def traced(name: str, cat: str = "repro"):
    """Decorator form of :func:`span` for whole-function spans (the
    experiment runners); adds one guard check per call when disabled."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _TRACER
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name, cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def active_shard_dir() -> Optional[str]:
    """The running session's shard directory (what the pool initializer
    forwards to workers), or ``None`` when tracing is off."""
    return None if _SESSION is None else str(_SESSION.shard_dir)


def start_tracing(out_path, clock: Callable[[], int] = None
                  ) -> TraceSession:
    """Install a session + parent tracer for this process."""
    global _TRACER, _SESSION
    if _SESSION is not None:
        raise RuntimeError(
            f"a trace session is already active "
            f"(writing {_SESSION.out_path})")
    _SESSION = TraceSession(out_path, clock=clock)
    _TRACER = _SESSION.tracer
    return _SESSION


def stop_tracing() -> Optional[pathlib.Path]:
    """Finalize the active session (merge shards, write the artifact);
    returns the artifact path, or ``None`` when tracing was off."""
    global _TRACER, _SESSION
    if _SESSION is None:
        return None
    session, _SESSION, _TRACER = _SESSION, None, None
    return session.finalize()


def reset_for_worker(shard_dir: Optional[str]) -> None:
    """Pool-worker initializer hook.

    A ``fork``-started worker inherits the parent's module globals —
    including an open tracer whose shard must stay the parent's alone.
    This drops the inherited state and, when the session is tracing,
    opens this worker's own shard so its spans land on a separate
    pid track in the merged artifact.
    """
    global _TRACER, _SESSION
    _SESSION = None
    if _TRACER is not None:
        # Close the inherited handle (line buffering means there is
        # nothing of the parent's left to flush from this copy).
        _TRACER.close()
        _TRACER = None
    if shard_dir:
        pid = os.getpid()
        _TRACER = Tracer(
            pathlib.Path(shard_dir) / f"worker-{pid}.jsonl",
            process_label=f"repro pool worker {pid}")
