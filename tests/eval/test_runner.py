"""The memoized experiment engine (:mod:`repro.eval.runner`).

The contracts everything else leans on:

- **Determinism** — a cache-hit re-run is bit-equal to a cold run
  (asserted here and in ``benchmarks/bench_experiment_wallclock.py``).
- **Memoization** — cache hits and in-batch duplicates never
  re-simulate, and consumers never alias one ``EventCounts`` object.
- **Operand groups** — grouped execution (one synthesis per operand
  key, shared by every task in the group) equals simulating each task
  alone on operands it synthesized itself.
- **Prefetch** — SA-SMT speedups batched before dispatch equal a
  task-by-task run in serial group order, and cache hits prefetch
  nothing.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import SCNN, EyerissV2, S2TAAW, SmtSA, SparTen, ZvcgSA
from repro.arch.smt import SMTArrayModel
from repro.core.sparsity import GemmOperands
from repro.eval import runner
from repro.eval.experiments import (
    FULL_MODELS,
    SYSTOLIC_VARIANTS,
    _sa_variants,
    fig12_alexnet_per_layer,
    xval_functional_vs_analytic,
)
from repro.eval.resultcache import CORRUPT_SUBDIR, ResultCache
from repro.eval.runner import (
    LayerSimTask,
    functional_model_runs,
    simulate_layer_tasks,
)
from repro.models import get_spec
from repro.models.specs import LayerKind, LayerSpec
from repro.obs import metrics as obs_metrics
from repro.workloads import from_spec

ALEXNET = get_spec("alexnet")
CONV2 = ALEXNET.conv_layers[1]
ROWS = 32  # output rows per layer in most tests — keeps tier-1 fast


def _small(layer):
    """``layer`` with at most ``ROWS`` output rows."""
    return replace(layer, m=min(layer.m, ROWS))


def _tasks(accels, layers, seed=0):
    return [LayerSimTask(accel, _small(layer), seed=seed)
            for accel in accels for layer in layers]


def _reference(task):
    """One task simulated alone, on operands it synthesized itself."""
    a, w = from_spec.spec_operands(task.layer, seed=task.seed)
    return task.accel.simulate_layer_functional(task.layer,
                                                GemmOperands(a, w))


class TestSimulateLayerTasks:
    def test_results_in_task_order(self):
        layers = ALEXNET.conv_layers[:3]
        tasks = _tasks([ZvcgSA()], layers)
        payloads = simulate_layer_tasks(tasks)
        assert payloads == [_reference(t) for t in tasks]

    def test_serial_span_args_and_counter(self, tmp_path):
        """Each simulating batch records ``work`` (Σ m·k + k·n over its
        groups), ``tasks`` and ``groups`` on its ``serial`` runner span
        and counts itself in ``runner.serial_batches``."""
        import json

        from repro.obs import trace as obs_trace

        tasks = _tasks([ZvcgSA(), SparTen()], ALEXNET.conv_layers[:3])
        work = sum(l.k * (min(l.m, ROWS) + l.n)
                   for l in ALEXNET.conv_layers[:3])
        counter = obs_metrics.default_registry().counter(
            "runner.serial_batches")
        before = counter.value
        obs_trace.start_tracing(tmp_path / "t.json")
        try:
            simulate_layer_tasks(tasks)
        finally:
            path = obs_trace.stop_tracing()
        spans = [e for e in json.loads(path.read_text())["traceEvents"]
                 if e.get("cat") == "runner" and e["ph"] == "B"
                 and e["name"] not in ("lookup", "store")]
        assert [e["name"] for e in spans] == ["serial"]
        assert spans[0]["args"] == {"work": work, "tasks": len(tasks),
                                    "groups": 3}
        assert counter.value - before == 1

    def test_cached_batch_counts_no_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = _tasks([ZvcgSA()], ALEXNET.conv_layers[:2])
        simulate_layer_tasks(tasks, result_cache=cache)
        counter = obs_metrics.default_registry().counter(
            "runner.serial_batches")
        before = counter.value
        simulate_layer_tasks(tasks, result_cache=cache)
        assert counter.value == before

    def test_task_exceptions_propagate(self):
        bad = LayerSimTask(S2TAAW(), _small(CONV2), seed=-7)
        with pytest.raises(Exception):
            simulate_layer_tasks([bad])

    def test_cache_hits_skip_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _tasks([ZvcgSA()], [CONV2])
        cold = simulate_layer_tasks(tasks, result_cache=cache)
        assert len(list(cache.path.glob("*.json"))) == 1
        misses_after_cold = cache.misses
        warm = simulate_layer_tasks(tasks, result_cache=cache)
        assert warm == cold
        # The warm pass looked up once and missed zero times.
        assert cache.misses == misses_after_cold
        assert cache.hits >= 1

    def test_corrupt_entries_quarantined_then_recomputed(self, tmp_path):
        """A garbled entry is detected on read, quarantined, recomputed
        bit-equal and rewritten clean; the next pass hits it."""
        tasks = [LayerSimTask(ZvcgSA(), _small(CONV2), seed=seed)
                 for seed in (0, 1)]
        clean = simulate_layer_tasks(tasks)
        cache = ResultCache(tmp_path / "cache")
        assert simulate_layer_tasks(tasks, result_cache=cache) == clean
        entries = sorted(cache.path.glob("*.json"))
        assert len(entries) == len(tasks)
        for entry in entries:
            entry.write_bytes(b"\x00{garbled")

        assert simulate_layer_tasks(tasks, result_cache=cache) == clean
        assert cache.corrupt == len(tasks)
        assert len(list((cache.path / CORRUPT_SUBDIR).glob("*.json"))) \
            == len(tasks)
        hits = cache.hits
        assert simulate_layer_tasks(tasks, result_cache=cache) == clean
        assert cache.hits == hits + len(tasks)
        assert cache.corrupt == len(tasks)

    def test_in_batch_duplicates_simulate_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = LayerSimTask(ZvcgSA(), _small(CONV2), seed=0)
        payloads = simulate_layer_tasks([task, task, task],
                                        result_cache=cache)
        assert payloads[0] == payloads[1] == payloads[2]
        assert len(list(cache.path.glob("*.json"))) == 1

    def test_consumers_never_alias_events(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = LayerSimTask(ZvcgSA(), _small(CONV2), seed=0)
        first, second = simulate_layer_tasks([task, task],
                                             result_cache=cache)
        assert first[1] is not second[1]
        first[1].cycles += 1  # finalization mutates counters
        assert first[1] != second[1]

    def test_seed_changes_results(self):
        base = simulate_layer_tasks(_tasks([ZvcgSA()], [CONV2], seed=0))
        other = simulate_layer_tasks(_tasks([ZvcgSA()], [CONV2], seed=1))
        assert base != other


_ACCELS = (ZvcgSA(), S2TAAW(), SparTen())


@st.composite
def _task_lists(draw):
    """Small layers, some renamed copies of others (same operand key,
    different name), under several accelerators and seeds."""
    layers = []
    for i in range(draw(st.integers(1, 3))):
        a_nnz = draw(st.integers(1, 8))
        layers.append(LayerSpec(
            f"L{i}", LayerKind.CONV, m=draw(st.integers(1, 24)),
            k=draw(st.integers(1, 40)), n=draw(st.integers(1, 12)),
            w_nnz=draw(st.sampled_from([2, 4, 8])), a_nnz=a_nnz,
            act_density=draw(st.sampled_from([0.25, 0.5, 1.0]))
            * a_nnz / 8))
    layers += [replace(layer, name=f"{layer.name}-copy")
               for layer in draw(st.lists(st.sampled_from(layers),
                                          max_size=2))]
    return draw(st.lists(st.builds(
        LayerSimTask, st.sampled_from(_ACCELS), st.sampled_from(layers),
        seed=st.sampled_from([0, 1])),
        min_size=1, max_size=8))


class TestOperandGroups:
    @settings(max_examples=25, deadline=None)
    @given(tasks=_task_lists())
    def test_grouped_equals_per_task_reference(self, tasks):
        calls = []
        real = from_spec.spec_census

        def counted(layer, seed=0, **kwargs):
            calls.append((layer.m, layer.k, layer.n, layer.w_nnz,
                          layer.a_nnz, layer.w_density, layer.a_density,
                          seed))
            return real(layer, seed=seed, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "spec_census", counted)
            grouped = simulate_layer_tasks(tasks)
        assert grouped == [_reference(t) for t in tasks]
        # Exactly one synthesis per distinct operand key.
        assert len(calls) == len(set(calls))
        assert set(calls) == {
            (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
             layer.w_density, layer.a_density, t.seed)
            for t in tasks for layer in [t.layer]}

    def test_synthesized_masks_are_read_only(self):
        """A group's census caches counts of its masks, so a write to a
        synthesized mask must fail instead of leaving stale counts."""
        operands = from_spec.spec_census(_small(CONV2), seed=0)
        a, w = operands.a, operands.w
        for mask in (a, w, w.T):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = not mask[0, 0]

    @pytest.mark.functional
    def test_shared_keys_equal_per_task_reference(self):
        conv1, conv2 = ALEXNET.conv_layers[:2]
        layers = [_small(conv1), _small(conv2),
                  replace(_small(conv2), name="conv2-copy")]
        tasks = [LayerSimTask(accel, layer, seed=seed)
                 for seed in (0, 1) for accel in _ACCELS
                 for layer in layers]
        assert simulate_layer_tasks(tasks) \
            == [_reference(t) for t in tasks]


class TestFunctionalModelRuns:
    def test_matches_run_model_functional(self):
        accel = ZvcgSA()
        batched, = functional_model_runs([(accel, ALEXNET)],
                                         conv_only=True, seed=0)
        direct = accel.run_model_functional(ALEXNET, conv_only=True,
                                            seed=0)
        assert batched.energy_uj == direct.energy_uj
        assert batched.total_cycles == direct.total_cycles
        assert [r.events for r in batched.layer_results] \
            == [r.events for r in direct.layer_results]

    def test_many_requests_one_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        runs = functional_model_runs(
            [(ZvcgSA(), ALEXNET), (S2TAAW(), ALEXNET)],
            conv_only=True, seed=0, result_cache=cache)
        assert [r.accelerator for r in runs] == ["SA-ZVCG", "S2TA-AW"]
        assert len(list(cache.path.glob("*.json"))) \
            == 2 * len(ALEXNET.conv_layers)


def _fig11_tasks():
    """Fig. 11's functional batch on fresh accelerators (model-major,
    as ``fig11_full_models`` builds it)."""
    variants = [accel for name, accel in _sa_variants().items()
                if name in SYSTOLIC_VARIANTS]
    return [LayerSimTask(accel, layer, seed=0)
            for name in FULL_MODELS for accel in variants
            for layer in get_spec(name).conv_layers]


@pytest.fixture
def simulate_many_calls(monkeypatch):
    """Every point list passed to ``SMTArrayModel.simulate_many``."""
    calls = []
    real = SMTArrayModel.simulate_many

    def spy(model, points, *args):
        calls.append(list(points))
        return real(model, points, *args)

    monkeypatch.setattr(SMTArrayModel, "simulate_many", spy)
    return calls


class TestSmtPrefetch:
    """The runner fills SA-SMT's speedup memo for a whole batch from
    one ``simulate_many`` call before any group runs."""

    @pytest.mark.functional
    def test_equals_task_by_task_in_serial_group_order(
            self, simulate_many_calls):
        tasks = _fig11_tasks()
        payloads = simulate_layer_tasks(tasks)
        smt = [i for i, t in enumerate(tasks) if isinstance(t.accel, SmtSA)]
        assert len(simulate_many_calls) == 1
        # Reference: a fresh instance asks speedup_at one task at a
        # time (batches of one) in the serial path's order — groups by
        # first appearance of their operand key, tasks in batch order.
        fresh = SmtSA()
        groups = {}
        for i in smt:
            t = tasks[i]
            groups.setdefault(from_spec.operand_key(
                t.layer, seed=t.seed), []).append(i)
        want = {i: fresh.simulate_layer_functional(
                    tasks[i].layer, from_spec.spec_census(
                        tasks[i].layer, seed=0))
                for group in groups.values() for i in group}
        assert [payloads[i] for i in smt] == [want[i] for i in smt]
        assert tasks[smt[0]].accel._speedup_cache == fresh._speedup_cache
        # The batch holds the raw pairs the reference simulated one by
        # one, in the same order: the first-asked pair per grid key.
        # (Pairs sharing a key happen to give equal speedups here, so
        # the payloads alone cannot tell the order apart.)
        batch, *singles = simulate_many_calls
        assert all(len(points) == 1 for points in singles)
        assert batch == [points[0] for points in singles]

    def test_cached_batch_simulates_nothing(self, tmp_path,
                                            simulate_many_calls):
        cache = ResultCache(tmp_path)
        layers = ALEXNET.conv_layers
        cold = simulate_layer_tasks(_tasks([SmtSA()], layers),
                                    result_cache=cache)
        assert len(simulate_many_calls) == 1
        warm = simulate_layer_tasks(_tasks([SmtSA()], layers),
                                    result_cache=cache)
        assert warm == cold
        assert len(simulate_many_calls) == 1

    def test_batch_without_smt_simulates_nothing(self,
                                                 simulate_many_calls):
        simulate_layer_tasks(_tasks(_ACCELS, ALEXNET.conv_layers[:2]))
        assert simulate_many_calls == []


class TestMaskMaterialization:
    """Census-first synthesis: a group's masks are built only for the
    engines that read positions, and the ``operands.*`` counters say
    how many of each group's two operands were."""

    @staticmethod
    def _counted(tasks):
        """``(masks_materialized, census_only, syntheses)`` added by one
        batch."""
        names = ("operands.masks_materialized", "operands.census_only",
                 "runner.syntheses")
        registry = obs_metrics.default_registry()
        before = [registry.counter(name).value for name in names]
        simulate_layer_tasks(tasks)
        return tuple(registry.counter(name).value - start
                     for name, start in zip(names, before))

    def test_fig11_batch_materializes_no_mask(self):
        materialized, census_only, groups = self._counted(_fig11_tasks())
        assert materialized == 0
        assert census_only == 2 * groups > 0

    @pytest.mark.parametrize("accels,per_group", [
        ((SparTen(),), 1),      # W's bitmask inner join
        ((SCNN(),), 1),         # A's per-PE pixel interleave
        ((EyerissV2(),), 2),    # both CSC operands
        ((SparTen(), EyerissV2(), SCNN(), S2TAAW()), 2),
    ], ids=["SparTen", "SCNN", "Eyeriss-v2", "xval-group"])
    def test_baselines_materialize_what_they_read(self, accels, per_group):
        materialized, census_only, groups = self._counted(
            _tasks(accels, ALEXNET.conv_layers))
        assert groups == len(ALEXNET.conv_layers)
        assert materialized == per_group * groups
        assert census_only == (2 - per_group) * groups


class TestExperimentDeterminism:
    """Cache hits, and the ignored ``jobs`` keyword, leave the
    artifacts bit-equal."""

    @pytest.mark.functional
    def test_fig12_ignores_jobs(self):
        """``jobs`` stays accepted (the frozen benchmark passes it) and
        changes nothing."""
        bare = fig12_alexnet_per_layer(functional=True, jobs=None)
        auto = fig12_alexnet_per_layer(functional=True, jobs="auto")
        assert auto.rows == bare.rows

    @pytest.mark.functional
    def test_fig12_cache_hit_bit_equal_cold(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = fig12_alexnet_per_layer(functional=True, seed=0,
                                       result_cache=cache)
        assert len(list(cache.path.glob("*.json"))) > 0
        warm = fig12_alexnet_per_layer(functional=True, seed=0,
                                       result_cache=cache)
        assert warm.rows == cold.rows
        bare = fig12_alexnet_per_layer(functional=True, seed=0)
        assert bare.rows == cold.rows

    @pytest.mark.functional
    def test_xval_cached_bit_equal_cold(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = xval_functional_vs_analytic(seed=0, result_cache=cache)
        cached = xval_functional_vs_analytic(seed=0, result_cache=cache)
        bare = xval_functional_vs_analytic(seed=0)
        assert cached.rows == cold.rows == bare.rows
        assert cold.failures == cached.failures == bare.failures

    @pytest.mark.functional
    def test_xval_analytic_smt_ignores_functional_memo(self, monkeypatch):
        """The functional batch memoizes SA-SMT at measured densities;
        xval's analytic column must still read a fresh instance's
        spec-density speedups."""
        analytic = []
        real = SmtSA.run_layer

        def recorded(self, layer):
            result = real(self, layer)
            analytic.append((layer.name, result.compute_cycles))
            return result

        monkeypatch.setattr(SmtSA, "run_layer", recorded)
        spec = get_spec("mobilenet_v1")
        xval_functional_vs_analytic("mobilenet_v1")
        fresh = SmtSA()
        assert analytic == [(layer.name, real(fresh, layer).compute_cycles)
                            for layer in spec.conv_layers]


class TestCachelessDedupe:
    def test_in_batch_duplicates_simulate_once_without_cache(
            self, monkeypatch):
        """Fingerprints are computed even under --no-result-cache (the
        ISSUE-7 fix: the in-batch dedupe used to vanish with the
        cache), and they are content-addressed — distinct instances of
        the same configuration share one simulation."""
        calls = []
        real = ZvcgSA.simulate_layer_functional

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ZvcgSA, "simulate_layer_functional", counted)
        tasks = [LayerSimTask(ZvcgSA(), _small(CONV2), seed=0)
                 for _ in range(3)]
        payloads = simulate_layer_tasks(tasks, result_cache=None)
        assert len(calls) == 1
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0][1] is not payloads[1][1]  # no aliasing
