"""Span/event tracer emitting Chrome trace-event JSON.

One :class:`Tracer` serves one process: it keeps its trace events in
memory (under a lock — the service emits spans from several threads),
and :meth:`TraceSession.finalize` writes them as a single Chrome
trace-event artifact — ``{"traceEvents": [...]}`` — that Perfetto and
``chrome://tracing`` open directly, one track per thread.

Clock discipline: a tracer samples the **injected** ``clock`` callable
it was constructed with (default :func:`time.perf_counter_ns`)
exactly once per event. Nothing in this module reaches for
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
    "start_tracing",
    "stop_tracing",
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
    """Collects this process's trace events in memory."""

    def __init__(self, clock: Callable[[], int] = None):
        self._clock = clock if clock is not None else time.perf_counter_ns
        self.pid = os.getpid()
        self.events: List[dict] = []
        self._lock = threading.Lock()
        self._emit("M", "process_name", "__metadata", {"name": "repro"})

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
        with self._lock:
            self.events.append(event)

    def span(self, name: str, cat: str = "repro", **args) -> _Span:
        """Context manager emitting a matched B/E pair around its body."""
        return _Span(self, name, cat, args or None)

    def instant(self, name: str, cat: str = "repro", **args) -> None:
        self._emit("i", name, cat, args or None)


class TraceSession:
    """One traced run: the process's tracer and the artifact it writes.

    ``out_path`` names the Chrome-trace JSON that :meth:`finalize`
    writes.
    """

    def __init__(self, out_path, clock: Callable[[], int] = None):
        self.out_path = pathlib.Path(out_path)
        if self.out_path.parent and not self.out_path.parent.exists():
            self.out_path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer(clock=clock)

    def finalize(self) -> pathlib.Path:
        """Write the Chrome-trace artifact.

        Events sort by timestamp; Python's stable sort preserves emit
        order for equal timestamps, so B/E pairs on one track never
        invert.
        """
        with self.tracer._lock:
            events = sorted(self.tracer.events, key=lambda e: e["ts"])
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs",
                          "schemaVersion": SCHEMA_VERSION},
        }
        self.out_path.write_text(
            json.dumps(payload, separators=(",", ":")) + "\n",
            encoding="utf-8")
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


def start_tracing(out_path, clock: Callable[[], int] = None
                  ) -> TraceSession:
    """Install a session and its tracer for this process."""
    global _TRACER, _SESSION
    if _SESSION is not None:
        raise RuntimeError(
            f"a trace session is already active "
            f"(writing {_SESSION.out_path})")
    _SESSION = TraceSession(out_path, clock=clock)
    _TRACER = _SESSION.tracer
    return _SESSION


def stop_tracing() -> Optional[pathlib.Path]:
    """Finalize the active session (write the artifact); returns the
    artifact path, or ``None`` when tracing was off."""
    global _TRACER, _SESSION
    if _SESSION is None:
        return None
    session, _SESSION, _TRACER = _SESSION, None, None
    return session.finalize()
