"""The parallel, memoized experiment engine (:mod:`repro.eval.runner`).

The two contracts everything else leans on:

- **Determinism** — a parallel run (>= 4 workers) is bit-equal to the
  serial run at the same seed, and a cache-hit re-run is bit-equal to a
  cold run (the ISSUE-5 acceptance bound, asserted here at quick size
  and in ``benchmarks/bench_experiment_wallclock.py`` at full size).
- **Memoization** — cache hits and in-batch duplicates never
  re-simulate, and consumers never alias one ``EventCounts`` object.
- **Operand groups** — grouped execution (one synthesis per operand
  key, shared by every task in the group) equals simulating each task
  alone on operands it synthesized itself.
- **Prefetch** — SA-SMT speedups batched before dispatch equal a
  task-by-task run in serial group order, and cache hits prefetch
  nothing.
"""

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import SCNN, EyerissV2, S2TAAW, SmtSA, SparTen, ZvcgSA
from repro.arch.smt import SMTArrayModel
from repro.core.sparsity import GemmOperands
from repro.eval.experiments import (
    FULL_MODELS,
    QUICK_MAX_M,
    SYSTOLIC_VARIANTS,
    _sa_variants,
    fig11_full_models,
    fig12_alexnet_per_layer,
    xval_functional_vs_analytic,
)
from repro.eval.resultcache import ResultCache
from repro.eval import runner
from repro.eval.runner import (
    AUTO_MIN_WORK,
    LayerSimTask,
    auto_jobs,
    functional_model_runs,
    resolve_jobs,
    simulate_layer_tasks,
)
from repro.models import get_spec
from repro.models.specs import LayerKind, LayerSpec
from repro.obs import metrics as obs_metrics
from repro.workloads import from_spec

ALEXNET = get_spec("alexnet")
CONV2 = ALEXNET.conv_layers[1]
QUICK = 32  # rows per layer in these tests — keeps tier-1 fast


def _tasks(accels, layers, seed=0, max_m=QUICK):
    return [LayerSimTask(accel, layer, seed=seed, max_m=max_m)
            for accel in accels for layer in layers]


def _synthesized(task):
    """The layer a task's operands come from: ``max_m`` caps the rows."""
    if task.max_m is not None and task.layer.m > task.max_m:
        return replace(task.layer, m=task.max_m)
    return task.layer


def _reference(task):
    """One task simulated alone, on operands it synthesized itself."""
    a, w = from_spec.spec_operands(_synthesized(task), seed=task.seed)
    return task.accel.simulate_layer_functional(task.layer,
                                                GemmOperands(a, w))


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self, monkeypatch):
        """The error names where the bad count came from."""
        monkeypatch.setenv("REPRO_JOBS", "-2")
        for jobs, source in ((-1, "jobs"), (None, "REPRO_JOBS")):
            with pytest.raises(ValueError,
                               match=f"^{source} must be >= 0"):
                resolve_jobs(jobs)

    def test_malformed_env_named_in_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "all")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestAutoJobs:
    """The serial-vs-pool decision table behind ``--jobs auto`` (the
    serve default): synthesized work decides serial vs pool, the group
    count sizes the pool. Pins the fix for the small-host inversion
    where a cold pool lost to the serial path (BENCH: 1.22 s parallel
    vs 0.64 s serial on one CPU; AlexNet xval 0.45 s vs 0.22 s on two)."""

    @pytest.mark.parametrize("task_count,cpu_count,expected", [
        (0, 1, 1),       # nothing to do, nothing to fork
        (100, 1, 1),     # single-core host: a pool only adds overhead
        (3, 8, 1),       # one worker would hold all 3 groups: serial
        (4, 8, 2),       # each worker amortizes over >= 2 groups
        (8, 8, 4),
        (100, 8, 8),     # capped at the host's cores
        (100, 2, 2),     # small host stays small
    ])
    def test_decision_table(self, task_count, cpu_count, expected):
        # Enough work for a pool; the group count sizes it.
        assert auto_jobs(task_count, AUTO_MIN_WORK,
                         cpu_count=cpu_count) == expected

    @pytest.mark.parametrize("work,cpu_count,expected,reason", [
        (0, 8, 1, "below-work"),
        (AUTO_MIN_WORK - 1, 8, 1, "below-work"),
        (AUTO_MIN_WORK, 8, 8, "pool"),
        (AUTO_MIN_WORK, 1, 1, "single-core"),
        (None, 8, 8, "pool"),   # unknown work sizes as a large batch
    ])
    def test_work_gate(self, work, cpu_count, expected, reason):
        assert auto_jobs(100, work, cpu_count=cpu_count) == expected
        assert runner._auto_decision(100, work, cpu_count) \
            == (expected, reason)

    def test_negative_task_count_rejected(self):
        with pytest.raises(ValueError):
            auto_jobs(-1, AUTO_MIN_WORK, cpu_count=4)
        with pytest.raises(ValueError, match="work"):
            auto_jobs(4, -1, cpu_count=4)

    def test_resolve_auto_uses_task_count(self):
        assert resolve_jobs("auto", task_count=1, work=AUTO_MIN_WORK) == 1
        assert resolve_jobs("auto", task_count=100,
                            work=AUTO_MIN_WORK - 1) == 1
        assert resolve_jobs("auto", task_count=100, work=AUTO_MIN_WORK) \
            == auto_jobs(100, AUTO_MIN_WORK)

    def test_resolve_auto_without_count_sizes_for_large_batch(self):
        assert resolve_jobs("auto") == (os.cpu_count() or 1)

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None, task_count=2) == 1

    def test_simulate_accepts_auto_and_stays_bit_equal(self):
        layers = ALEXNET.conv_layers[:2]
        tasks = _tasks([ZvcgSA()], layers)
        assert simulate_layer_tasks(tasks, jobs="auto") \
            == simulate_layer_tasks(tasks, jobs=1)

    @pytest.mark.parametrize("artifact,cpus,expected", [
        ("xval", 2, [(1, "below-work")]),
        ("fig12", 2, [(1, "below-work")]),
        ("fig11", 2, [(2, "pool")]),
        ("fig11", 1, [(1, "single-core")]),
    ])
    def test_pinned_workload_decisions(self, monkeypatch, artifact, cpus,
                                       expected):
        """What ``auto`` picks for each full-size shipped functional
        batch: AlexNet xval and fig12 run serially, full fig11 keeps
        its pool on a 2-core host, and a 1-core host never forks. Each
        batch stops right after its decision."""

        class Decided(Exception):
            pass

        decided = []
        resolve = runner._resolve

        def spy(jobs, task_count, work):
            decided.append(resolve(jobs, task_count, work))
            raise Decided

        monkeypatch.setattr(runner, "_resolve", spy)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        run = {
            "xval": lambda: xval_functional_vs_analytic(
                "alexnet", jobs="auto"),
            "fig12": lambda: fig12_alexnet_per_layer(functional=True,
                                                     jobs="auto"),
            "fig11": lambda: fig11_full_models(functional=True,
                                               jobs="auto"),
        }[artifact]
        with pytest.raises(Decided):
            run()
        assert decided == expected

    @pytest.mark.functional
    @pytest.mark.parametrize("jobs,batch,reason", [
        ("auto", "serial", "below-work"),
        (1, "serial", "explicit"),
        (2, "pool", "explicit"),
    ])
    def test_decision_on_span_and_counters(self, tmp_path, jobs, batch,
                                           reason):
        """Each simulating batch records its decision — ``jobs``,
        ``work`` (Σ m·k + k·n over its groups) and ``reason`` — on its
        ``serial`` or ``pool`` runner span, and counts itself in
        ``runner.serial_batches`` or ``runner.pool_batches``."""
        import json

        from repro.obs import trace as obs_trace

        tasks = _tasks([ZvcgSA(), SparTen()], ALEXNET.conv_layers[:3])
        work = sum(l.k * (min(l.m, QUICK) + l.n)
                   for l in ALEXNET.conv_layers[:3])
        registry = obs_metrics.default_registry()
        names = ("runner.serial_batches", "runner.pool_batches")
        before = [registry.counter(name).value for name in names]
        obs_trace.start_tracing(tmp_path / "t.json")
        try:
            simulate_layer_tasks(tasks, jobs=jobs)
        finally:
            path = obs_trace.stop_tracing()
        spans = [e for e in json.loads(path.read_text())["traceEvents"]
                 if e.get("cat") == "runner" and e["ph"] == "B"
                 and e["name"] in ("serial", "pool")]
        assert [e["name"] for e in spans] == [batch]
        args = spans[0]["args"]
        assert (args["jobs"], args["work"], args["reason"]) \
            == (jobs if isinstance(jobs, int) else 1, work, reason)
        assert args["groups"] == 3 and args["tasks"] == len(tasks)
        added = [registry.counter(name).value - start
                 for name, start in zip(names, before)]
        assert added == ([1, 0] if batch == "serial" else [0, 1])

    def test_cached_batch_counts_no_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        tasks = _tasks([ZvcgSA()], ALEXNET.conv_layers[:2])
        simulate_layer_tasks(tasks, jobs=1, result_cache=cache)
        registry = obs_metrics.default_registry()
        names = ("runner.serial_batches", "runner.pool_batches")
        before = [registry.counter(name).value for name in names]
        simulate_layer_tasks(tasks, jobs="auto", result_cache=cache)
        assert [registry.counter(name).value for name in names] == before


class TestSimulateLayerTasks:
    def test_results_in_task_order(self):
        layers = ALEXNET.conv_layers[:3]
        tasks = _tasks([ZvcgSA()], layers)
        payloads = simulate_layer_tasks(tasks, jobs=1)
        assert payloads == [_reference(t) for t in tasks]

    @pytest.mark.functional
    def test_parallel_bit_equal_serial(self):
        tasks = _tasks([ZvcgSA(), S2TAAW(), SparTen()],
                       ALEXNET.conv_layers[:2])
        serial = simulate_layer_tasks(tasks, jobs=1)
        parallel = simulate_layer_tasks(tasks, jobs=4)
        assert serial == parallel

    def test_cache_hits_skip_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = _tasks([ZvcgSA()], [CONV2])
        cold = simulate_layer_tasks(tasks, jobs=1, result_cache=cache)
        assert len(list(cache.path.glob("*.json"))) == 1
        misses_after_cold = cache.misses
        warm = simulate_layer_tasks(tasks, jobs=1, result_cache=cache)
        assert warm == cold
        # The warm pass looked up once and missed zero times.
        assert cache.misses == misses_after_cold
        assert cache.hits >= 1

    def test_in_batch_duplicates_simulate_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = LayerSimTask(ZvcgSA(), CONV2, seed=0, max_m=QUICK)
        payloads = simulate_layer_tasks([task, task, task], jobs=1,
                                        result_cache=cache)
        assert payloads[0] == payloads[1] == payloads[2]
        assert len(list(cache.path.glob("*.json"))) == 1

    def test_consumers_never_alias_events(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = LayerSimTask(ZvcgSA(), CONV2, seed=0, max_m=QUICK)
        first, second = simulate_layer_tasks([task, task], jobs=1,
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
    different name), under several accelerators, seeds and ``max_m``
    caps above and below ``m``."""
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
        seed=st.sampled_from([0, 1]),
        max_m=st.sampled_from([None, 4, 8, 64])),
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
            mp.setattr(from_spec, "spec_census", counted)
            grouped = simulate_layer_tasks(tasks, jobs=1)
        assert grouped == [_reference(t) for t in tasks]
        # Exactly one synthesis per distinct operand key.
        assert len(calls) == len(set(calls))
        assert set(calls) == {
            (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
             layer.w_density, layer.a_density, t.seed)
            for t in tasks for layer in [_synthesized(t)]}

    def test_synthesized_masks_are_read_only(self):
        """A group's census caches counts of its masks, so a write to a
        synthesized mask must fail instead of leaving stale counts."""
        operands = from_spec.synthesize_operands(CONV2, seed=0, max_m=QUICK)
        a, w = operands.a, operands.w
        for mask in (a, w, w.T):
            with pytest.raises(ValueError, match="read-only"):
                mask[0, 0] = not mask[0, 0]

    @pytest.mark.functional
    def test_pool_equals_serial_with_shared_keys(self):
        conv1, conv2 = ALEXNET.conv_layers[:2]
        layers = [conv1, conv2, replace(conv2, name="conv2-copy")]
        tasks = [LayerSimTask(accel, layer, seed=seed, max_m=QUICK)
                 for seed in (0, 1) for accel in _ACCELS
                 for layer in layers]
        serial = simulate_layer_tasks(tasks, jobs=1)
        assert simulate_layer_tasks(tasks, jobs=2) == serial
        assert serial == [_reference(t) for t in tasks]


class TestFunctionalModelRuns:
    def test_matches_run_model_functional(self):
        accel = ZvcgSA()
        batched, = functional_model_runs([(accel, ALEXNET)],
                                         conv_only=True, seed=0,
                                         max_m=QUICK)
        direct = accel.run_model_functional(ALEXNET, conv_only=True,
                                            seed=0, max_m=QUICK)
        assert batched.energy_uj == direct.energy_uj
        assert batched.total_cycles == direct.total_cycles
        assert [r.events for r in batched.layer_results] \
            == [r.events for r in direct.layer_results]

    def test_many_requests_one_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        runs = functional_model_runs(
            [(ZvcgSA(), ALEXNET), (S2TAAW(), ALEXNET)],
            conv_only=True, seed=0, max_m=QUICK, result_cache=cache)
        assert [r.accelerator for r in runs] == ["SA-ZVCG", "S2TA-AW"]
        assert len(list(cache.path.glob("*.json"))) \
            == 2 * len(ALEXNET.conv_layers)


def _fig11_tasks(max_m=QUICK_MAX_M):
    """Fig. 11's functional batch on fresh accelerators (model-major,
    as ``fig11_full_models`` builds it)."""
    variants = [accel for name, accel in _sa_variants().items()
                if name in SYSTOLIC_VARIANTS]
    return [LayerSimTask(accel, layer, seed=0, max_m=max_m)
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
        payloads = simulate_layer_tasks(tasks, jobs=1)
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
                t.layer, seed=t.seed, max_m=t.max_m), []).append(i)
        want = {i: fresh.simulate_layer_functional(
                    tasks[i].layer, from_spec.synthesize_operands(
                        tasks[i].layer, seed=0, max_m=QUICK_MAX_M))
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

    @pytest.mark.functional
    def test_pool_equals_serial(self):
        assert simulate_layer_tasks(_fig11_tasks(), jobs=2) \
            == simulate_layer_tasks(_fig11_tasks(), jobs=1)

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
    def _counted(tasks, jobs=1):
        """``(masks_materialized, census_only, syntheses)`` added by one
        batch."""
        names = ("operands.masks_materialized", "operands.census_only",
                 "runner.syntheses")
        registry = obs_metrics.default_registry()
        before = [registry.counter(name).value for name in names]
        simulate_layer_tasks(tasks, jobs=jobs)
        return tuple(registry.counter(name).value - start
                     for name, start in zip(names, before))

    def test_fig11_batch_materializes_no_mask(self):
        materialized, census_only, groups = self._counted(
            _fig11_tasks(max_m=QUICK))
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

    @pytest.mark.functional
    def test_pool_counts_equal_serial(self):
        tasks = _tasks((SparTen(), ZvcgSA()), ALEXNET.conv_layers)
        assert self._counted(tasks, jobs=2) == self._counted(tasks, jobs=1)


class TestExperimentDeterminism:
    """The ISSUE-5 acceptance bounds at quick size."""

    @pytest.mark.functional
    def test_fig12_parallel_bit_equal_serial(self):
        serial = fig12_alexnet_per_layer(functional=True, quick=True,
                                         seed=0, jobs=1)
        parallel = fig12_alexnet_per_layer(functional=True, quick=True,
                                           seed=0, jobs=4)
        assert parallel.rows == serial.rows

    @pytest.mark.functional
    def test_fig12_cache_hit_bit_equal_cold(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = fig12_alexnet_per_layer(functional=True, quick=True,
                                       seed=0, result_cache=cache)
        assert len(list(cache.path.glob("*.json"))) > 0
        warm = fig12_alexnet_per_layer(functional=True, quick=True,
                                       seed=0, result_cache=cache)
        assert warm.rows == cold.rows
        bare = fig12_alexnet_per_layer(functional=True, quick=True,
                                       seed=0)
        assert bare.rows == cold.rows

    @pytest.mark.functional
    def test_xval_parallel_and_cached_bit_equal(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = xval_functional_vs_analytic(max_m=QUICK_MAX_M, seed=0)
        parallel = xval_functional_vs_analytic(max_m=QUICK_MAX_M, seed=0,
                                               jobs=4, result_cache=cache)
        cached = xval_functional_vs_analytic(max_m=QUICK_MAX_M, seed=0,
                                             result_cache=cache)
        assert parallel.rows == serial.rows
        assert cached.rows == serial.rows
        assert serial.failures == parallel.failures == cached.failures

    @pytest.mark.functional
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_xval_analytic_smt_ignores_functional_memo(self, monkeypatch,
                                                       jobs):
        """The functional batch memoizes SA-SMT at measured densities;
        xval's analytic column must still read a fresh instance's
        spec-density speedups, whatever ``jobs``."""
        analytic = []
        real = SmtSA.run_layer

        def recorded(self, layer):
            result = real(self, layer)
            analytic.append((layer.name, result.compute_cycles))
            return result

        monkeypatch.setattr(SmtSA, "run_layer", recorded)
        spec = get_spec("mobilenet_v1")
        xval_functional_vs_analytic("mobilenet_v1", max_m=QUICK_MAX_M,
                                    jobs=jobs)
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
        tasks = [LayerSimTask(ZvcgSA(), CONV2, seed=0, max_m=QUICK)
                 for _ in range(3)]
        payloads = simulate_layer_tasks(tasks, jobs=1, result_cache=None)
        assert len(calls) == 1
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0][1] is not payloads[1][1]  # no aliasing


class TestTaskTimeoutResolution:
    from repro.eval.runner import _resolve_task_timeout  # noqa: F401

    def test_explicit_wins(self, monkeypatch):
        from repro.eval.runner import TASK_TIMEOUT_ENV, _resolve_task_timeout
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "7")
        assert _resolve_task_timeout(2.5) == 2.5

    def test_env_default(self, monkeypatch):
        from repro.eval.runner import TASK_TIMEOUT_ENV, _resolve_task_timeout
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "30")
        assert _resolve_task_timeout(None) == 30.0
        monkeypatch.delenv(TASK_TIMEOUT_ENV)
        assert _resolve_task_timeout(None) is None

    def test_non_positive_rejected(self, monkeypatch):
        """Zero, negative and non-finite timeouts are rejected from the
        argument and the environment alike, naming the source (``nan``
        would time every group out at once and silently push each pool
        batch onto the serial path)."""
        from repro.eval.runner import TASK_TIMEOUT_ENV, _resolve_task_timeout
        for bad in (0, -1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="task_timeout_s"):
                _resolve_task_timeout(bad)
            monkeypatch.setenv(TASK_TIMEOUT_ENV, str(bad))
            with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
                _resolve_task_timeout(None)
        monkeypatch.setenv(TASK_TIMEOUT_ENV, "abc")
        with pytest.raises(ValueError, match=TASK_TIMEOUT_ENV):
            _resolve_task_timeout(None)


class TestGracefulDegradation:
    """A pool that loses workers (injected crash) or wedges (injected
    hang + per-task timeout) falls back to the serial path for the
    unfinished tasks — bit-equal to an all-serial run by construction,
    with the degradation counted in the metrics registry."""

    def _metrics(self):
        from repro.obs import metrics as obs_metrics
        obs_metrics.reset_default_registry()
        return obs_metrics.default_registry()

    def test_worker_crash_degrades_bit_equal(self):
        from repro import faults
        tasks = _tasks([S2TAAW()], ALEXNET.conv_layers[:2])
        baseline = simulate_layer_tasks(tasks, jobs=1)

        registry = self._metrics()
        # Worker-only fault: forked pool workers inherit the registry
        # and die with os._exit; the parent's serial redo is unarmed.
        faults.configure("worker_crash")
        try:
            degraded = simulate_layer_tasks(tasks, jobs=2)
        finally:
            faults.reset()
        assert degraded == baseline
        assert registry.counter("runner.degraded").value == 1
        assert registry.counter("runner.retries").value >= 1

    def test_task_hang_degrades_bit_equal(self):
        from repro import faults
        tasks = _tasks([S2TAAW()], ALEXNET.conv_layers[:2])
        baseline = simulate_layer_tasks(tasks, jobs=1)

        registry = self._metrics()
        faults.configure("task_hang:s=60")
        try:
            degraded = simulate_layer_tasks(tasks, jobs=2,
                                            task_timeout_s=0.5)
        finally:
            faults.reset()
        assert degraded == baseline
        assert registry.counter("runner.degraded").value == 1

    def test_real_task_exceptions_still_propagate(self):
        # Degradation is for infrastructure failures only: a genuine
        # simulation error must not be silently retried serially.
        bad = LayerSimTask(S2TAAW(), CONV2, seed=0, max_m=-7)
        with pytest.raises(Exception):
            simulate_layer_tasks([bad], jobs=2)
