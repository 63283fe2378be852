"""Trace integrity: the span/event tracer (:mod:`repro.obs.trace`).

The contracts the PR-8 acceptance criteria pin:

- every span emits a matched B/E pair with valid pid/tid and correct
  nesting (a child's B/E falls inside its parent's on the same track);
- the merged multi-worker trace round-trips through ``json.loads``
  with **stable field names** (the Chrome trace-event schema, pinned
  verbatim in :class:`TestSchemaPin` — breaking it breaks saved
  Perfetto workflows);
- disabled tracing is a no-op: the shared null span, no allocation per
  call site, no files touched.
"""

import json
import os
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    SCHEMA_VERSION,
    Tracer,
    TraceSession,
    reset_for_worker,
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


def _shard_events(tracer: Tracer):
    tracer.close()
    return [json.loads(line) for line in
            tracer.shard_path.read_text().splitlines()]


class TestSchemaPin:
    """The emitted event schema, field by field. Changing any name or
    type here is a trace-format break: bump SCHEMA_VERSION and update
    docs/observability.md alongside this test."""

    def test_schema_version(self):
        assert SCHEMA_VERSION == 1

    def test_span_event_fields(self, tmp_path):
        tracer = Tracer(tmp_path / "s.jsonl", clock=FakeClock())
        with tracer.span("work", "phase", detail=3):
            pass
        meta, begin, end = _shard_events(tracer)
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
        tracer = Tracer(tmp_path / "s.jsonl", clock=FakeClock())
        with tracer.span("work", "phase", tasks=3) as span:
            span.annotate(hits=2)
        _, begin, end = _shard_events(tracer)
        assert begin["args"] == {"tasks": 3}
        assert end["args"] == {"hits": 2}

    def test_pid_tid_are_real(self, tmp_path):
        tracer = Tracer(tmp_path / "s.jsonl")
        with tracer.span("w"):
            pass
        events = _shard_events(tracer)
        assert all(e["pid"] == os.getpid() for e in events)
        assert all(e["tid"] == threading.get_native_id() for e in events)


class TestSpanIntegrity:
    def test_every_span_has_matched_begin_end(self, tmp_path):
        tracer = Tracer(tmp_path / "s.jsonl", clock=FakeClock())
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        events = _shard_events(tracer)
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 5
        assert [b["name"] for b in begins] == [e["name"] for e in ends]

    def test_nesting_order(self, tmp_path):
        """A child's B/E pair falls strictly inside its parent's."""
        tracer = Tracer(tmp_path / "s.jsonl", clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        phases = [(e["name"], e["ph"]) for e in _shard_events(tracer)
                  if e["ph"] in "BE"]
        assert phases == [("outer", "B"), ("inner", "B"),
                          ("inner", "E"), ("outer", "E")]

    def test_exception_still_closes_span(self, tmp_path):
        tracer = Tracer(tmp_path / "s.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        events = _shard_events(tracer)
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


class TestSessionMerge:
    def test_merged_trace_round_trips(self, tmp_path):
        """Parent + synthetic worker shards merge into one artifact
        that round-trips through ``json.loads`` with per-pid tracks."""
        out = tmp_path / "trace.json"
        session = start_tracing(out)
        with span("experiment", "experiment"):
            pass
        # Simulate two pool workers joining via their shard files.
        for fake_pid in (99991, 99992):
            worker = Tracer(
                session.shard_dir / f"worker-{fake_pid}.jsonl",
                clock=FakeClock(),
                process_label=f"repro pool worker {fake_pid}")
            worker.pid = fake_pid
            with worker.span("conv1", "layer"):
                pass
            worker.close()
        path = stop_tracing()
        assert path == out
        payload = json.loads(out.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        assert payload["otherData"]["schemaVersion"] == SCHEMA_VERSION
        events = payload["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {os.getpid(), 99991, 99992}
        labels = {(e["args"] or {}).get("name")
                  for e in events if e["ph"] == "M"}
        assert "repro pool worker 99991" in labels
        # The shard directory is consumed by the merge.
        assert not session.shard_dir.exists()

    def test_truncated_worker_tail_is_skipped(self, tmp_path):
        session = start_tracing(tmp_path / "t.json")
        shard = session.shard_dir / "worker-123.jsonl"
        good = json.dumps({"name": "ok", "cat": "c", "ph": "i",
                           "ts": 1, "pid": 123, "tid": 1})
        shard.write_text(good + "\n" + '{"name": "half')
        path = stop_tracing()
        names = [e["name"]
                 for e in json.loads(path.read_text())["traceEvents"]]
        assert "ok" in names

    def test_double_start_rejected(self, tmp_path):
        start_tracing(tmp_path / "a.json")
        with pytest.raises(RuntimeError, match="already active"):
            start_tracing(tmp_path / "b.json")

    def test_stop_without_session_is_none(self):
        assert stop_tracing() is None

    def test_stale_shards_cleaned_on_start(self, tmp_path):
        out = tmp_path / "t.json"
        shard_dir = tmp_path / "t.json.shards"
        shard_dir.mkdir()
        (shard_dir / "worker-1.jsonl").write_text(
            json.dumps({"name": "stale", "cat": "c", "ph": "i",
                        "ts": 1, "pid": 1, "tid": 1}) + "\n")
        start_tracing(out)
        path = stop_tracing()
        names = [e["name"]
                 for e in json.loads(path.read_text())["traceEvents"]]
        assert "stale" not in names


class TestWorkerReset:
    def test_reset_without_shard_dir_disables(self, tmp_path):
        start_tracing(tmp_path / "t.json")
        assert tracing_enabled()
        reset_for_worker(None)
        assert not tracing_enabled()
        assert obs_trace.active_shard_dir() is None

    def test_reset_with_shard_dir_opens_worker_shard(self, tmp_path):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        reset_for_worker(str(shard_dir))
        try:
            assert tracing_enabled()
            with span("work", "layer"):
                pass
            shard = shard_dir / f"worker-{os.getpid()}.jsonl"
            assert shard.exists()
            names = [json.loads(line)["name"]
                     for line in shard.read_text().splitlines()]
            assert "work" in names
        finally:
            reset_for_worker(None)


class TestEngineIntegration:
    """The merged trace of a real parallel run: per-worker tracks and
    every instrumented phase present (the tentpole wiring, end to end)."""

    def test_value_draw_is_its_own_span(self, tmp_path):
        """INT8 values drawn for an output reader show as ``values``,
        apart from the ``synthesize`` pattern draw; the runner's pattern
        synthesis draws no values."""
        from dataclasses import replace

        from repro.accel import ZvcgSA
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks
        from repro.models import get_spec
        from repro.workloads.from_spec import spec_int8_operands

        layer = get_spec("alexnet").conv_layers[1]
        start_tracing(tmp_path / "values.json")
        spec_int8_operands(replace(layer, m=8))
        simulate_layer_tasks([LayerSimTask(ZvcgSA(), layer, max_m=8)])
        path = stop_tracing()
        spans = [(e["cat"], e["name"])
                 for e in json.loads(path.read_text())["traceEvents"]
                 if e["ph"] == "B"]
        assert spans.count(("synthesize", layer.name)) == 2
        assert spans.count(("values", layer.name)) == 1

    @pytest.mark.functional
    def test_parallel_run_produces_per_worker_tracks(self, tmp_path):
        from repro.accel import ZvcgSA
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks
        from repro.models import get_spec

        layers = get_spec("alexnet").conv_layers[:4]
        tasks = [LayerSimTask(ZvcgSA(), layer, max_m=16)
                 for layer in layers]
        start_tracing(tmp_path / "run.json")
        simulate_layer_tasks(tasks, jobs=2)
        path = stop_tracing()
        events = json.loads(path.read_text())["traceEvents"]
        worker_pids = {e["pid"] for e in events
                       if e["ph"] == "M"
                       and "pool worker" in (e["args"] or {})["name"]}
        assert len(worker_pids) >= 1
        assert worker_pids.isdisjoint({os.getpid()})
        cats = {e["cat"] for e in events}
        assert {"runner", "layer", "synthesize", "simulate"} <= cats
        # Matched B/E per (pid, tid) — integrity at real concurrency.
        for pid in {e["pid"] for e in events}:
            track = [e for e in events if e["pid"] == pid]
            assert (len([e for e in track if e["ph"] == "B"])
                    == len([e for e in track if e["ph"] == "E"]))
