"""Tests for the SA-SMT accelerator model (Fig. 3 / Fig. 10 anchors)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.accel import SmtSA, ZvcgSA
from repro.arch.smt import SMTArrayModel
from repro.models import get_spec
from repro.obs import trace as obs_trace
from repro.workloads.typical import typical_conv_layer

FIG11_MODELS = ("resnet50", "vgg16", "mobilenet_v1", "alexnet")


def _densities(models):
    """Raw ``(w, a)`` pairs of the models' conv layers, in order."""
    return [(layer.w_density, layer.a_density) for name in models
            for layer in get_spec(name).conv_layers]


def _same_layers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.compute_cycles == w.compute_cycles, g.layer.name
        assert g.events == w.events, g.layer.name
        assert g.energy_pj == w.energy_pj, g.layer.name


class TestSmtModel:
    def test_speedup_at_5050(self):
        """Fig. 3: T2Q2 ~1.6x, T2Q4 ~1.8x at 50/50 sparsity."""
        layer = typical_conv_layer(0.5, 0.5)
        zvcg = ZvcgSA().run_layer(layer)
        q2 = SmtSA(fifo_depth=2).run_layer(layer)
        q4 = SmtSA(fifo_depth=4).run_layer(layer)
        assert zvcg.cycles / q2.cycles == pytest.approx(1.6, abs=0.15)
        assert zvcg.cycles / q4.cycles == pytest.approx(1.85, abs=0.15)

    def test_energy_overhead_vs_zvcg(self):
        """Fig. 10: SMT burns ~43% (T2Q2) more energy than SA-ZVCG."""
        layer = typical_conv_layer(0.5, 0.5)
        zvcg = ZvcgSA().run_layer(layer)
        q2 = SmtSA(fifo_depth=2).run_layer(layer)
        overhead = q2.energy_pj / zvcg.energy_pj - 1
        assert overhead == pytest.approx(0.43, abs=0.12)

    def test_fifo_events_present(self):
        result = SmtSA().run_layer(typical_conv_layer(0.5, 0.5))
        assert result.events.fifo_push_ops == result.events.mac_ops
        assert result.events.fifo_pop_ops == result.events.mac_ops

    def test_speedup_cache(self):
        smt = SmtSA()
        first = smt.speedup_at(0.5, 0.5)
        second = smt.speedup_at(0.5, 0.5)
        assert first == second
        assert len(smt._speedup_cache) == 1

    def test_speedup_never_below_one(self):
        assert SmtSA().speedup_at(1.0, 1.0) >= 1.0

    @pytest.mark.parametrize("w, a, name", [
        (float("nan"), 0.5, "weight"), (0.5, float("nan"), "act"),
        (-0.1, 0.5, "weight"), (0.5, -0.1, "act"),
        (1.5, 0.5, "weight"), (0.5, 1.01, "act")])
    @pytest.mark.parametrize("call", [
        lambda smt, w, a: smt.speedup_at(w, a),
        lambda smt, w, a: smt.prefetch([(0.5, 0.5), (w, a)]),
    ], ids=["speedup_at", "prefetch"])
    def test_bad_densities_rejected_before_keying(self, call, w, a, name):
        smt = SmtSA()
        with pytest.raises(ValueError,
                           match=f"{name} density must be in \\[0, 1\\]"):
            call(smt, w, a)
        assert not smt._speedup_cache

    def test_name_reflects_config(self):
        assert SmtSA(threads=2, fifo_depth=4).name == "SA-SMT-T2Q4"

    def test_area_larger_than_zvcg(self):
        assert SmtSA().area_mm2() > ZvcgSA().area_mm2()


class TestPrefetch:
    """Batching the density points must not change any layer's result."""

    @pytest.mark.parametrize("model", FIG11_MODELS)
    def test_run_model_equals_layer_loop(self, model):
        spec = get_spec(model)
        looped = SmtSA()
        _same_layers(SmtSA().run_model(spec, conv_only=True).layer_results,
                     [looped.run_layer(layer) for layer in spec.conv_layers])

    def test_shared_instance_equals_fresh_instances(self):
        shared = SmtSA()
        shared.prefetch(_densities(FIG11_MODELS))
        for name in FIG11_MODELS:
            spec = get_spec(name)
            _same_layers(
                shared.run_model(spec, conv_only=True).layer_results,
                SmtSA().run_model(spec, conv_only=True).layer_results)

    def test_first_asked_densities_win(self, monkeypatch):
        # Grid key (38, 22) is reached from resnet50's a=0.225 before
        # vgg16's a=0.22: the batch must simulate the first raw pair,
        # as the layer loop would.
        asked = []
        simulate_many = SMTArrayModel.simulate_many

        def spy(model, points, *args):
            asked.extend(points)
            return simulate_many(model, points, *args)

        monkeypatch.setattr(SMTArrayModel, "simulate_many", spy)
        SmtSA().prefetch(_densities(("resnet50", "vgg16")))
        assert (0.375, 0.225) in asked
        assert (0.375, 0.22) not in asked
        assert len(asked) == len(set(asked))

    def test_prefetch_skips_cached_keys(self):
        smt = SmtSA()
        layer = typical_conv_layer(0.5, 0.5)
        smt._speedup_cache[(50, 50)] = 1.25
        smt.prefetch([(layer.w_density, layer.a_density)])
        assert smt._speedup_cache == {(50, 50): 1.25}

    def test_trace_shows_batch_length_and_stalls(self, tmp_path,
                                                 monkeypatch):
        # The smt span's end args: the slowest point's cycles (it sets
        # how long the batch steps) and the stalls of the whole batch.
        results = []
        simulate_many = SMTArrayModel.simulate_many

        def spy(model, *args):
            got = simulate_many(model, *args)
            results.extend(got)
            return got

        monkeypatch.setattr(SMTArrayModel, "simulate_many", spy)
        obs_trace.start_tracing(tmp_path / "smt.json")
        try:
            SmtSA().prefetch(_densities(("alexnet",)))
        finally:
            path = obs_trace.stop_tracing()
        ends = [e for e in json.loads(path.read_text())["traceEvents"]
                if e.get("cat") == "smt" and e["ph"] == "E"]
        assert len(ends) == 1 and len(results) == 5
        assert ends[0]["args"] == {
            "longest": max(r.cycles for r in results),
            "stalls": sum(r.stall_cycles for r in results)}


def test_numpy_random_import_is_its_own_span(tmp_path):
    """In a fresh interpreter the artifact imports leave numpy.random
    unloaded; the first SA-SMT batch loads it inside an ``import`` span
    that closes before its ``smt`` span opens, and a later batch
    imports nothing."""
    path = tmp_path / "smt.json"
    code = (
        "import sys\n"
        "import repro.eval.experiments, repro.eval.runner\n"
        "from repro.accel import SmtSA\n"
        "from repro.obs import trace\n"
        "print('numpy.random' in sys.modules)\n"
        f"trace.start_tracing({str(path)!r})\n"
        "SmtSA().prefetch([(0.5, 0.5)])\n"
        "SmtSA().prefetch([(0.25, 0.5)])\n"
        "trace.stop_tracing()\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    spans = [(e["cat"], e["name"], e["ph"])
             for e in json.loads(path.read_text())["traceEvents"]
             if e.get("cat") in ("import", "smt")]
    assert spans == [
        ("import", "numpy.random", "B"), ("import", "numpy.random", "E"),
        ("smt", "SA-SMT-T2Q2", "B"), ("smt", "SA-SMT-T2Q2", "E"),
        ("smt", "SA-SMT-T2Q2", "B"), ("smt", "SA-SMT-T2Q2", "E")]
