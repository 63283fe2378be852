"""Process-local metrics registry: counters, gauges, histograms.

The runner records its task timings and synthesis counts into the
process-wide :func:`default_registry`; the CLI renders it as a summary
table (``--metrics``) and dumps the JSON form next to artifacts
(``--metrics-out``). Everything is plain dicts of
numbers so the dump round-trips through ``json`` with no custom
encoders; the field layout is pinned in ``tests/obs/test_metrics.py``.

Counters only go up (``inc``); gauges hold the last ``set`` value and
take ``inc``/``dec`` deltas for level-style quantities; histograms keep
count/sum/min/max plus fixed buckets so distributions such as the
per-task compute time survive without storing every observation.

The serve subsystem (:mod:`repro.serve`) registers the service-level
family under the ``serve.`` prefix — ``serve.jobs_submitted`` /
``serve.jobs_completed`` / ``serve.jobs_failed`` /
``serve.jobs_requeued`` counters, ``serve.dedupe_hits`` (submit-time
*and* in-batch request dedupe), ``serve.batches``,
``serve.queue_depth`` / ``serve.jobs_running`` gauges and the
``serve.job_wall_ns`` latency histogram — next to the existing
``runner.`` / ``result_cache.`` families, so one
``GET /metrics`` snapshot reconciles service work against engine work
(asserted in ``tests/serve/test_service.py``).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
]

#: Default histogram bucket upper bounds (inclusive), in the unit of
#: whatever is observed; chosen to resolve both task counts (small
#: integers) and nanosecond durations (wide range) tolerably.
DEFAULT_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 1_000, 10_000, 100_000,
    1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
    10_000_000_000,
)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        self.value += amount

    def as_dict(self):
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-value gauge. ``inc``/``dec`` adjust the held value by a
    delta — what level-style gauges (queue depth, in-flight jobs) need
    when no single site knows the absolute value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta

    def dec(self, delta: float = 1.0) -> None:
        self.value -= delta

    def as_dict(self):
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self):
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # Sparse bucket map keeps the JSON small: only non-empty
            # buckets appear, keyed by their (stringified) upper bound.
            "buckets": {
                ("inf" if i == len(self.buckets) else str(self.buckets[i])):
                    n
                for i, n in enumerate(self.bucket_counts) if n
            },
        }


class MetricsRegistry:
    """Thread-safe named collection of counters, gauges and histograms.

    Names are dotted paths (``runner.tasks``, ``result_cache.hits``);
    the first segment groups the rendered table. Getter methods create
    on first use so instrumentation points never pre-register.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is {type(metric).__name__}, "
                    f"not {cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    # --------------------------------------------------------------- #
    # export / import
    # --------------------------------------------------------------- #

    def as_dict(self) -> dict:
        """JSON-ready snapshot, sorted by metric name."""
        with self._lock:
            return {name: self._metrics[name].as_dict()
                    for name in sorted(self._metrics)}

    def json_payload(self) -> dict:
        """The schema-stamped JSON document ``dump_json`` writes —
        also what the serve API's ``GET /metrics`` returns, so offline
        dumps and the live endpoint share one pinned shape."""
        return {"schema": "repro.obs.metrics/v1",
                "metrics": self.as_dict()}

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.json_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render(self) -> str:
        """Fixed-width summary table grouped by dotted-name prefix."""
        snap = self.as_dict()
        if not snap:
            return "metrics: (empty)"
        lines: List[str] = ["metrics"]
        width = max(len(name) for name in snap)
        last_group = None
        for name, data in snap.items():
            group = name.split(".", 1)[0]
            if group != last_group:
                if last_group is not None:
                    lines.append("")
                last_group = group
            if data["type"] == "histogram":
                value = (f"count={data['count']} mean={data['mean']:.1f} "
                         f"min={data['min']} max={data['max']}")
            else:
                value = data["value"]
                if isinstance(value, float) and value == int(value):
                    value = int(value)
            lines.append(f"  {name:<{width}} : {value}")
        return "\n".join(lines)


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumentation points write into."""
    return _DEFAULT


def reset_default_registry() -> None:
    """Clear the process-wide registry (tests)."""
    _DEFAULT.reset()
