"""Trace integrity: the span/event tracer (:mod:`repro.obs.trace`).

The contracts the PR-8 acceptance criteria pin:

- every span emits a matched B/E pair with valid pid/tid and correct
  nesting (a child's B/E falls inside its parent's on the same track);
- the written trace round-trips through ``json.loads`` with **stable
  field names** (the Chrome trace-event schema, pinned verbatim in
  :class:`TestSchemaPin` — breaking it breaks saved Perfetto
  workflows);
- disabled tracing is a no-op: the shared null span, no allocation per
  call site, no files touched.
"""

import json
import os
import threading

import pytest

from repro.obs.trace import (
    SCHEMA_VERSION,
    Tracer,
    span,
    start_tracing,
    stop_tracing,
    traced,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with tracing disabled."""
    stop_tracing()
    yield
    stop_tracing()


class FakeClock:
    """Deterministic injectable clock (ns), advancing 1 ms per call."""

    def __init__(self, start_ns: int = 0, step_ns: int = 1_000_000):
        self.now = start_ns
        self.step = step_ns

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def _events(tracer: Tracer):
    """The tracer's events as they serialize."""
    return json.loads(json.dumps(tracer.events))


class TestSchemaPin:
    """The emitted event schema, field by field. Changing any name or
    type here is a trace-format break: bump SCHEMA_VERSION and update
    docs/observability.md alongside this test."""

    def test_schema_version(self):
        assert SCHEMA_VERSION == 1

    def test_span_event_fields(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", "phase", detail=3):
            pass
        meta, begin, end = _events(tracer)
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert set(begin) == {"name", "cat", "ph", "ts", "pid", "tid",
                              "args"}
        assert set(end) == {"name", "cat", "ph", "ts", "pid", "tid"}
        assert begin["ph"] == "B" and end["ph"] == "E"
        assert begin["name"] == end["name"] == "work"
        assert begin["cat"] == end["cat"] == "phase"
        assert begin["args"] == {"detail": 3}
        # Injected clock: 1 ms per sample, emitted as integer µs.
        assert isinstance(begin["ts"], int)
        assert end["ts"] - begin["ts"] == 1_000

    def test_annotate_rides_on_the_end_event(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", "phase", tasks=3) as span:
            span.annotate(hits=2)
        _, begin, end = _events(tracer)
        assert begin["args"] == {"tasks": 3}
        assert end["args"] == {"hits": 2}

    def test_pid_tid_are_real(self, tmp_path):
        tracer = Tracer()
        with tracer.span("w"):
            pass
        events = _events(tracer)
        assert all(e["pid"] == os.getpid() for e in events)
        assert all(e["tid"] == threading.get_native_id() for e in events)


class TestSpanIntegrity:
    def test_every_span_has_matched_begin_end(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        events = _events(tracer)
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 5
        assert [b["name"] for b in begins] == [e["name"] for e in ends]

    def test_nesting_order(self, tmp_path):
        """A child's B/E pair falls strictly inside its parent's."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        phases = [(e["name"], e["ph"]) for e in _events(tracer)
                  if e["ph"] in "BE"]
        assert phases == [("outer", "B"), ("inner", "B"),
                          ("inner", "E"), ("outer", "E")]

    def test_exception_still_closes_span(self, tmp_path):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        events = _events(tracer)
        assert [e["ph"] for e in events if e["name"] == "doomed"] \
            == ["B", "E"]


class TestDisabledPath:
    def test_span_is_shared_noop(self):
        assert not tracing_enabled()
        a = span("x", "y", arg=1)
        b = span("z")
        assert a is b  # the shared singleton — no per-call allocation
        with a as entered:
            entered.annotate(hits=1)  # a no-op, so callers need no guard

    def test_traced_decorator_passthrough(self):
        calls = []

        @traced("f", "test")
        def f(x):
            calls.append(x)
            return x * 2

        assert f(21) == 42
        assert calls == [21]


class TestSession:
    def test_trace_round_trips(self, tmp_path):
        """A session writes one artifact that round-trips through
        ``json.loads``, with the process-name metadata, sorted by
        ``ts``, and leaves nothing else next to it."""
        out = tmp_path / "trace.json"
        start_tracing(out, clock=FakeClock())
        with span("experiment", "experiment"):
            with span("conv1", "layer"):
                pass
        path = stop_tracing()
        assert path == out
        assert sorted(tmp_path.iterdir()) == [out]
        payload = json.loads(out.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        assert payload["otherData"]["schemaVersion"] == SCHEMA_VERSION
        events = payload["traceEvents"]
        assert {e["pid"] for e in events} == {os.getpid()}
        assert [(e["name"], e["args"]) for e in events if e["ph"] == "M"] \
            == [("process_name", {"name": "repro"})]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        assert [(e["name"], e["ph"]) for e in events if e["ph"] in "BE"] \
            == [("experiment", "B"), ("conv1", "B"), ("conv1", "E"),
                ("experiment", "E")]

    def test_spans_from_threads_all_land(self, tmp_path):
        """Spans emitted from several threads all land in one tracer."""
        start_tracing(tmp_path / "t.json")

        def work(i):
            for _ in range(50):
                with span(f"w{i}", "test"):
                    pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        path = stop_tracing()
        events = json.loads(path.read_text())["traceEvents"]
        assert len([e for e in events if e["ph"] == "B"]) == 200
        assert len([e for e in events if e["ph"] == "E"]) == 200

    def test_double_start_rejected(self, tmp_path):
        start_tracing(tmp_path / "a.json")
        with pytest.raises(RuntimeError, match="already active"):
            start_tracing(tmp_path / "b.json")

    def test_stop_without_session_is_none(self):
        assert stop_tracing() is None


class TestEngineIntegration:
    """The trace of a real runner batch: every instrumented phase
    present, end to end."""

    def test_value_draw_is_its_own_span(self, tmp_path):
        """INT8 values drawn for an output reader show as ``values``,
        apart from the ``synthesize`` pattern draw; the runner's pattern
        synthesis draws no values."""
        from dataclasses import replace

        from repro.accel import ZvcgSA
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks
        from repro.models import get_spec
        from repro.workloads.from_spec import spec_int8_operands

        layer = replace(get_spec("alexnet").conv_layers[1], m=8)
        start_tracing(tmp_path / "values.json")
        spec_int8_operands(layer)
        simulate_layer_tasks([LayerSimTask(ZvcgSA(), layer)])
        path = stop_tracing()
        spans = [(e["cat"], e["name"])
                 for e in json.loads(path.read_text())["traceEvents"]
                 if e["ph"] == "B"]
        assert spans.count(("synthesize", layer.name)) == 2
        assert spans.count(("values", layer.name)) == 1

    @pytest.mark.functional
    def test_traced_batch_round_trips_through_summarize(self, tmp_path):
        """A traced runner batch writes only its artifact (no shard
        directory), on one process track with every span matched."""
        from dataclasses import replace

        from repro.accel import SparTen, ZvcgSA
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks
        from repro.models import get_spec
        from repro.obs.summarize import load_trace_events, summarize_trace

        layers = [replace(layer, m=16)
                  for layer in get_spec("alexnet").conv_layers[:2]]
        out = tmp_path / "run.json"
        start_tracing(out)
        simulate_layer_tasks([LayerSimTask(accel, layer)
                              for accel in (ZvcgSA(), SparTen())
                              for layer in layers])
        stop_tracing()
        assert not (tmp_path / "run.json.shards").exists()
        events = load_trace_events(out)
        assert {e["pid"] for e in events} == {os.getpid()}
        assert {"runner", "layer", "synthesize", "simulate"} \
            <= {e["cat"] for e in events}
        summary = summarize_trace(out)
        assert summary["unmatched_events"] == 0
        assert list(summary["tracks"]) == [str(os.getpid())]
