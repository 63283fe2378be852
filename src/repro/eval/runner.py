"""Layer-simulation runner for the functional tier.

Every functional experiment decomposes into *layer simulation tasks* —
one ``(accelerator, layer, seed)`` point whose payload is the
measured ``(compute_cycles, EventCounts)`` of
:meth:`repro.accel.base.AcceleratorModel.simulate_layer_functional`.
A payload is a pure function of its task (operand synthesis is seeded
from the layer spec), so it is memoizable and independent of where or
when it runs. Tasks whose synthesized operands are identical — one
layer under every accelerator variant, and the repeated shapes inside
a network (ResNet50's 53 conv layers have 26 operand keys) — form one
*operand group*, the runner's unit of work.

:func:`simulate_layer_tasks` runs one batch:

1. every task is fingerprinted
   (:func:`~repro.eval.resultcache.payload_key`, through one memo per
   batch: each accelerator is digested and each layer canonicalized
   once, and each task hashes only its own part on top), looked up in
   the :class:`~repro.eval.resultcache.ResultCache`, and in-batch
   duplicates collapse to one simulation (the ``lookup`` span);
2. the remaining tasks group by
   :func:`~repro.workloads.from_spec.operand_key`;
3. every accelerator prefetches over its remaining tasks, in execution
   order, at the exact densities each group's operands will have
   (:func:`~repro.workloads.from_spec.operand_densities`) — SA-SMT
   fills its speedup memo from one batched Monte Carlo;
4. the groups run one after another (the ``serial`` span, args
   ``work`` — Σ(m·k + k·n) synthesized operand elements over the
   groups — ``tasks`` and ``groups``). Each group draws its operands'
   non-zero census once
   (:func:`~repro.workloads.from_spec.spec_census`: per-index
   non-zeros, totals and DBB block maxima, straight from the
   allocation law), simulates every task on that one
   :class:`~repro.core.sparsity.GemmOperands` and drops it. An
   operand's positions — its 1-byte DBB bitmasks — are drawn only when
   a task reads them (SparTen, Eyeriss v2, SCNN, which unpack bounded
   row chunks of them) and then shared by the group's later tasks; the
   ``operands.masks_materialized`` / ``operands.census_only`` counters
   say which;
5. the batch's new payloads are appended to the cache's log in one
   write (the ``store`` span) and every payload comes back in task
   order.

:func:`functional_model_runs` is the whole-experiment entry point: it
flattens many ``(accelerator, model)`` requests into one batch — so
fig11's 4 models x 4 variants share each layer's synthesis — and
finalizes each payload through the owning accelerator's
memory-hierarchy/energy pipeline.

Nothing outlives a batch: the next batch synthesizes its operands
and fingerprints its accelerators again.

Closed-form evaluations never pass through here: the analytic
:meth:`~repro.accel.base.AcceleratorModel.run_layer` costs less than a
task fingerprint, so the DSE and the analytic artifacts call it
directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.base import AcceleratorModel, AccelRunResult
from repro.arch.events import EventCounts
from repro.eval.resultcache import ResultCache
from repro.models.specs import LayerSpec, ModelSpec
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.workloads.from_spec import (
    operand_densities,
    operand_key,
    spec_census,
)

__all__ = [
    "LayerSimTask",
    "simulate_layer_tasks",
    "functional_model_runs",
]


@dataclass(frozen=True, eq=False)
class LayerSimTask:
    """One layer-simulation work unit."""

    accel: AcceleratorModel
    layer: LayerSpec
    seed: int = 0


def _copy_events(payload: Tuple[int, EventCounts]
                 ) -> Tuple[int, EventCounts]:
    """Fresh ``EventCounts`` per consumer — finalization mutates the
    counters (cycles, DRAM bytes), so deduplicated tasks and cache
    entries must never share one object."""
    compute_cycles, events = payload
    return compute_cycles, EventCounts(**events.as_dict())


def _prefetch(tasks: Sequence[LayerSimTask],
              groups: Sequence[Sequence[int]]) -> None:
    """Call each distinct accelerator's
    :meth:`~repro.accel.base.AcceleratorModel.prefetch` once, over the
    ``(w, a)`` densities its tasks in ``groups`` will measure, in the
    order they run (so SA-SMT's first-asked rule picks the same raw
    pair a task-by-task run would)."""
    asked: Dict[AcceleratorModel, List[Tuple[float, float]]] = {}
    for group in groups:
        densities = operand_densities(tasks[group[0]].layer)
        for i in group:
            asked.setdefault(tasks[i].accel, []).append(densities)
    for accel, pairs in asked.items():
        accel.prefetch(pairs)


def _run_serial(tasks: Sequence[LayerSimTask],
                groups: Sequence[Sequence[int]], registry
                ) -> Dict[int, Tuple[int, EventCounts]]:
    """Run the operand groups in order; payloads by task index.

    Each group draws its operand census once, simulates every task on
    it, then drops it. The census draw runs inside the first task's
    ``layer`` span and timing, so traces and ``runner.compute_ns``
    charge it to that task; a materialization is charged to the task
    that first reads it.
    """
    compute = registry.histogram("runner.compute_ns")
    payloads: Dict[int, Tuple[int, EventCounts]] = {}
    for group in groups:
        operands = None
        for i in group:
            task = tasks[i]
            start_ns = time.perf_counter_ns()
            with obs_trace.span(task.layer.name, "layer",
                                accel=task.accel.name):
                if operands is None:
                    operands = spec_census(task.layer, seed=task.seed)
                payloads[i] = task.accel.simulate_layer_functional(
                    task.layer, operands)
            compute.observe(time.perf_counter_ns() - start_ns)
        registry.counter("runner.syntheses").inc()
        materialized = operands.masks_materialized
        registry.counter("operands.masks_materialized").inc(materialized)
        registry.counter("operands.census_only").inc(2 - materialized)
    return payloads


def simulate_layer_tasks(
    tasks: Sequence[LayerSimTask],
    result_cache: Optional[ResultCache] = None,
) -> List[Tuple[int, EventCounts]]:
    """Simulate every task, grouped by operand key; results in task
    order.

    Every task is fingerprinted through one per-batch
    :func:`~repro.eval.resultcache.payload_key` memo. Cache hits (and
    in-batch duplicates — the same key appearing twice in ``tasks``)
    never simulate or prefetch; the misses group by
    :func:`~repro.workloads.from_spec.operand_key`, every accelerator
    prefetches over its misses, each group synthesizes once, and the
    new payloads are appended to ``result_cache`` in one write. Task
    fingerprints are computed whether or not a cache is attached, so
    in-batch duplicates collapse to one simulation even under
    ``--no-result-cache``.
    """
    from repro.eval.resultcache import payload_key

    registry = obs_metrics.default_registry()
    registry.counter("runner.tasks").inc(len(tasks))
    results: Dict[int, Tuple[int, EventCounts]] = {}
    keys: List[str] = []
    pending: List[int] = []
    dup_of: Dict[int, int] = {}
    first_with_key: Dict[str, int] = {}
    key_memo: dict = {}
    with obs_trace.span("lookup", "runner", tasks=len(tasks)) as lookup:
        for i, task in enumerate(tasks):
            key = payload_key(task.accel, task.layer, seed=task.seed,
                              memo=key_memo)
            keys.append(key)
            if result_cache is not None:
                hit = result_cache.get(key)
                if hit is not None:
                    results[i] = hit
                    continue
            if key in first_with_key:
                dup_of[i] = first_with_key[key]
                continue
            first_with_key[key] = i
            pending.append(i)
        lookup.annotate(hits=len(results))

    registry.counter("runner.deduped").inc(len(dup_of))
    registry.counter("runner.simulated").inc(len(pending))
    by_operands: Dict[tuple, List[int]] = {}
    for i in pending:
        task = tasks[i]
        by_operands.setdefault(operand_key(task.layer, seed=task.seed),
                               []).append(i)
    groups = list(by_operands.values())
    if groups:
        _prefetch(tasks, groups)
        # Synthesized operand elements, Σ(m·k + k·n) over the groups
        # (the key's leading fields are the GEMM shape).
        work = sum(m * k + k * n for m, k, n, *_ in by_operands)
        registry.counter("runner.serial_batches").inc()
        with obs_trace.span("serial", "runner", work=work,
                            tasks=len(pending), groups=len(groups)):
            results.update(_run_serial(tasks, groups, registry))
    if result_cache is not None:
        with obs_trace.span("store", "runner", puts=len(pending)):
            result_cache.append([(keys[i], *results[i]) for i in pending])
    for i, j in dup_of.items():
        results[i] = results[j]
    return [_copy_events(results[i]) for i in range(len(tasks))]


def functional_model_runs(
    requests: Sequence[Tuple[AcceleratorModel, ModelSpec]],
    *,
    conv_only: bool = False,
    seed: int = 0,
    result_cache: Optional[ResultCache] = None,
) -> List[AccelRunResult]:
    """Run many (accelerator, model) pairs as one batch.

    The full-model experiments route through this: all layer tasks of
    every request flatten into a single :func:`simulate_layer_tasks`
    batch (each layer's operands are synthesized once for every
    accelerator variant), then each payload finalizes through its
    accelerator's memory-hierarchy and energy pipeline.
    """
    tasks: List[LayerSimTask] = []
    spans: List[Tuple[AcceleratorModel, ModelSpec, List[LayerSpec]]] = []
    for accel, spec in requests:
        layers = list(spec.conv_layers if conv_only else spec.layers)
        spans.append((accel, spec, layers))
        tasks.extend(
            LayerSimTask(accel, layer, seed=seed) for layer in layers)
    payloads = simulate_layer_tasks(tasks, result_cache=result_cache)
    out: List[AccelRunResult] = []
    pos = 0
    for accel, spec, layers in spans:
        run = AccelRunResult(
            accelerator=accel.name,
            model=spec.name,
            tech=accel.tech,
            clock_ghz=accel.clock_ghz,
        )
        with obs_trace.span(f"{accel.name}:{spec.name}", "model",
                            layers=len(layers)):
            for layer in layers:
                compute_cycles, events = payloads[pos]
                pos += 1
                run.layer_results.append(
                    accel._finalize_layer(layer, compute_cycles, events))
        out.append(run)
    return out
