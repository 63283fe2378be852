"""The metrics registry (:mod:`repro.obs.metrics`) and its JSON form.

The dump schema is pinned (``repro.obs.metrics/v1``): the metrics JSON
lands next to experiment artifacts via ``--metrics-out`` and external
dashboards key on its field names.
"""

import json

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)


class TestCounter:
    def test_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("runner.tasks")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MetricsRegistry().counter("x").inc(-1)

    def test_same_name_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("a")


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("runner.compute_ns")
        for v in (10, 20, 60):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 90
        assert h.min == 10 and h.max == 60
        assert h.mean == 30

    def test_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1, 10, 100))
        for v in (0, 5, 50, 5000):
            h.observe(v)
        data = h.as_dict()
        assert data["buckets"] == {"1": 1, "10": 1, "100": 1, "inf": 1}


class TestRegistryExport:
    def test_dump_schema_pinned(self, tmp_path):
        """Field names of the --metrics-out JSON artifact."""
        reg = MetricsRegistry()
        reg.counter("runner.tasks").inc(7)
        reg.gauge("serve.queue_depth").set(4)
        reg.histogram("runner.compute_ns").observe(1000)
        out = tmp_path / "metrics.json"
        reg.dump_json(out)
        payload = json.loads(out.read_text())
        assert set(payload) == {"schema", "metrics"}
        assert payload["schema"] == "repro.obs.metrics/v1"
        metrics = payload["metrics"]
        assert metrics["runner.tasks"] == {"type": "counter", "value": 7}
        assert metrics["serve.queue_depth"] == {"type": "gauge",
                                                "value": 4}
        hist = metrics["runner.compute_ns"]
        assert set(hist) == {"type", "count", "sum", "min", "max",
                             "mean", "buckets"}
        assert hist["type"] == "histogram"

    def test_render_groups_by_prefix(self):
        reg = MetricsRegistry()
        reg.counter("runner.tasks").inc(2)
        reg.counter("result_cache.hits").inc(1)
        text = reg.render()
        assert "runner.tasks" in text
        assert "result_cache.hits" in text
        assert text.index("result_cache.hits") < text.index("runner.tasks")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.render() == "metrics: (empty)"


class TestDefaultRegistry:
    def test_process_wide_singleton(self):
        assert default_registry() is default_registry()

    def test_reset_default(self):
        default_registry().counter("test.only").inc()
        reset_default_registry()
        assert default_registry().counter("test.only").value == 0


class TestRunnerAggregation:
    """``runner.syntheses`` counts one synthesis per operand group, next
    to the per-task telemetry."""

    def test_serial_path_stats_also_aggregate(self):
        from repro.accel import S2TAAW, ZvcgSA
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks
        from repro.models import get_spec

        layers = get_spec("alexnet").conv_layers[:2]
        tasks = [LayerSimTask(accel, layer, max_m=8)
                 for accel in (ZvcgSA(), S2TAAW()) for layer in layers]
        reset_default_registry()
        simulate_layer_tasks(tasks)
        reg = default_registry()
        assert reg.counter("runner.syntheses").value == len(layers)
        assert reg.counter("runner.simulated").value == len(tasks)
        assert reg.histogram("runner.compute_ns").count == len(tasks)
