"""Zero-dependency observability layer: tracing, metrics, logging.

The windows into where wall-clock and energy-model time go, shared by
every command:

- :mod:`repro.obs.trace` — a span/event tracer with injected monotonic
  clocks emitting Chrome trace-event JSON (open the artifact in
  Perfetto / ``chrome://tracing``). Spans nest experiment -> model ->
  layer -> (synthesize, simulate, memory-walk, finalize). Off by
  default, and provably free when off: the disabled path is one
  module-global load and a shared no-op context manager (frozen by
  ``benchmarks/bench_obs_overhead.py``).
- :mod:`repro.obs.metrics` — a process-local registry of counters
  and histograms: the runner's batch telemetry (operand syntheses,
  per-task compute time, dedupe) and the result cache's hits and
  misses.
- :mod:`repro.obs.logs` — the shared standard-library ``logging``
  configuration behind the CLI's ``-v``/``-q`` flags and the
  benchmark/tool diagnostics.
- :mod:`repro.obs.summarize` — ``repro trace summarize FILE``: top-k
  spans, per-phase (category) attribution and per-track coverage, so
  "where did the time go" is a one-command diagnosis.

Instrumentation points import this package only at module load (no
per-call imports in hot loops) and guard every emission on
:func:`repro.obs.trace.tracing_enabled`, so the bit-exact hot paths
are unchanged when tracing is off — the golden pins cannot move, and
no cached payload goes stale because event accounting never changes.
"""

from repro.obs import logs, metrics, trace  # noqa: F401
from repro.obs.logs import configure_logging, get_logger  # noqa: F401
from repro.obs.metrics import MetricsRegistry, default_registry  # noqa: F401
from repro.obs.trace import (  # noqa: F401
    TraceSession,
    Tracer,
    span,
    start_tracing,
    stop_tracing,
    tracing_enabled,
)

__all__ = [
    "configure_logging",
    "get_logger",
    "MetricsRegistry",
    "default_registry",
    "TraceSession",
    "Tracer",
    "span",
    "start_tracing",
    "stop_tracing",
    "tracing_enabled",
]
