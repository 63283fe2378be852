"""Layer-simulation runner for the functional tier.

Every functional experiment decomposes into *layer simulation tasks* —
one ``(accelerator, layer, seed, max_m)`` point whose payload is the
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
3. every accelerator prefetches over its remaining tasks, in serial
   execution order, at the exact densities each group's operands will
   have (:func:`~repro.workloads.from_spec.operand_densities`) — SA-SMT
   fills its speedup memo from one batched Monte Carlo, and pool
   workers inherit the filled memo with their pickled tasks;
4. each group draws its operands' non-zero census once
   (:func:`~repro.workloads.from_spec.synthesize_operands`: per-index
   non-zeros, totals and DBB block maxima, straight from the
   allocation law), simulates every task on that one
   :class:`~repro.core.sparsity.GemmOperands` and drops it. An
   operand's positions — its 1-byte DBB bitmasks — are drawn only when
   a task reads them (SparTen, Eyeriss v2, SCNN, which unpack bounded
   row chunks of them) and then shared by the group's later tasks; the
   ``operands.masks_materialized`` / ``operands.census_only`` counters
   say which. Groups run serially (the ``serial`` span), or one per
   process-pool future when ``jobs`` > 1 (the ``pool`` span; ``0`` =
   all cores, ``$REPRO_JOBS`` supplies the default). ``"auto"`` runs
   serially below :data:`AUTO_MIN_WORK` synthesized operand elements
   (Σ(m·k + k·n) over the groups) and otherwise sizes the pool from
   the group count (:func:`auto_jobs`); both spans carry the decision
   as args ``jobs``, ``work`` and ``reason``;
5. new payloads are frozen into the cache (the ``store`` span) and
   every payload comes back in task order, bit-equal to a serial run
   at the same seed regardless of worker count (asserted in
   ``tests/eval/test_runner.py``).

:func:`functional_model_runs` is the whole-experiment entry point: it
flattens many ``(accelerator, model)`` requests into one batch — so
fig11's 4 models x 4 variants share each layer's synthesis — and
finalizes each payload through the owning accelerator's
memory-hierarchy/energy pipeline in the parent process (finalization
is closed-form and cheap; only the simulation fans out).

Nothing outlives a batch: the next batch synthesizes its operands
and fingerprints its accelerators again.

Closed-form evaluations never pass through here: the analytic
:meth:`~repro.accel.base.AcceleratorModel.run_layer` costs less than a
task fingerprint, so the DSE, analytic serve requests and the analytic
artifacts call it directly.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.accel.base import AcceleratorModel, AccelRunResult
from repro.arch.events import EventCounts
from repro.eval.resultcache import ResultCache
from repro.models.specs import LayerSpec, ModelSpec
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.workloads.from_spec import (
    operand_densities,
    operand_key,
    synthesize_operands,
)

__all__ = [
    "LayerSimTask",
    "auto_jobs",
    "resolve_jobs",
    "simulate_layer_tasks",
    "functional_model_runs",
]

log = obs_logs.get_logger(__name__)

#: ``$REPRO_TASK_TIMEOUT`` supplies the default pool timeout for one
#: dispatched operand group (seconds; unset/empty = wait forever).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"


@dataclass(frozen=True, eq=False)
class LayerSimTask:
    """One layer-simulation work unit (the fan-out granule)."""

    accel: AcceleratorModel
    layer: LayerSpec
    seed: int = 0
    max_m: Optional[int] = None


#: Below this much synthesized work — Σ(m·k + k·n) operand elements
#: over a batch's pending operand groups — a pool's fork, pickling and
#: result transfer cost more than the simulation it spreads, so
#: ``auto`` stays serial. Measured crossover (2-core Xeon, full-size
#: conv batches, serial vs 2 workers, fresh interpreters): AlexNet xval
#: (5.3×10⁶) 0.07–0.08 s vs 0.08–0.13 s, ResNet50 xval (2.1×10⁷)
#: 0.31–0.36 s vs 0.47–0.61 s, VGG16 xval (9.6×10⁷) 0.51–0.59 s vs
#: 0.48 s; full functional fig11 (1.3×10⁸) ties, 0.18–0.27 s vs
#: 0.19–0.22 s, and keeps its pool.
AUTO_MIN_WORK = 50_000_000

#: ``auto`` never spins up a worker for fewer than this many work
#: units — each worker must amortize its fork over at least a couple
#: of operand groups.
AUTO_TASKS_PER_WORKER = 2


def _auto_decision(task_count: int, work: Optional[int],
                   cpu_count: Optional[int]) -> Tuple[int, str]:
    """:func:`auto_jobs` and its reason: ``single-core``,
    ``below-work``, ``few-groups`` or ``pool``."""
    if task_count < 0:
        raise ValueError(f"task_count must be >= 0, got {task_count}")
    if work is not None and work < 0:
        raise ValueError(f"work must be >= 0, got {work}")
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if cpu_count <= 1:
        return 1, "single-core"
    if work is not None and work < AUTO_MIN_WORK:
        return 1, "below-work"
    workers = min(cpu_count, task_count // AUTO_TASKS_PER_WORKER)
    return (workers, "pool") if workers > 1 else (1, "few-groups")


def auto_jobs(task_count: int, work: Optional[int],
              cpu_count: Optional[int] = None) -> int:
    """Serial-vs-pool decision for one batch of ``task_count`` work
    units (the runner passes its operand-group count) holding ``work``
    synthesized operand elements (Σ(m·k + k·n) over the groups;
    ``None`` = unknown, sized as a large batch).

    The decision table (regression-pinned in
    ``tests/eval/test_runner.py``):

    - single-core host -> 1 (a pool can only add overhead);
    - less than :data:`AUTO_MIN_WORK` work -> 1 (fork and transfer
      cost more than the simulation they spread);
    - otherwise ``min(cpu_count, task_count // AUTO_TASKS_PER_WORKER)``
      workers (1 = serial), so every worker amortizes its fork over
      >= 2 units and the pool never exceeds the host.
    """
    return _auto_decision(task_count, work, cpu_count)[0]


def _resolve(jobs, task_count: Optional[int], work: Optional[int]
             ) -> Tuple[int, str]:
    """:func:`resolve_jobs` and its reason: ``explicit`` for a worker
    count (argument or ``$REPRO_JOBS``), else :func:`_auto_decision`'s."""
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            jobs = env
            source = "REPRO_JOBS"
        else:
            jobs = 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            if task_count is None:
                return os.cpu_count() or 1, "pool"
            return _auto_decision(task_count, work, None)
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be an integer worker count (0 = one "
                f"per core) or 'auto', got {jobs!r}") from None
    if jobs < 0:
        raise ValueError(f"{source} must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs, "explicit"


def resolve_jobs(jobs, task_count: Optional[int] = None,
                 work: Optional[int] = None) -> int:
    """Worker count: ``None`` defers to ``$REPRO_JOBS`` (default 1,
    i.e. serial); ``0`` means one worker per core; ``"auto"`` (also
    accepted from ``$REPRO_JOBS``) picks serial vs pool from
    ``task_count``, ``work`` and the host's cores via
    :func:`auto_jobs`. ``task_count=None`` with ``auto`` sizes for a
    large batch (one worker per core) — batch-level callers pass the
    real count and work."""
    return _resolve(jobs, task_count, work)[0]


def _worker_init(shard_dir: Optional[str] = None) -> None:
    """Pool initializer: open this worker's trace shard when the parent
    is tracing, and arm the worker-only faults."""
    obs_trace.reset_for_worker(shard_dir)
    # Arm worker-only faults (worker_crash / task_hang): they must
    # never fire on the parent's serial fallback path, which is what
    # guarantees degradation converges.
    faults.mark_worker()


def _task_fault_key(task: LayerSimTask) -> str:
    """Stable identity for fault-injection decisions — same fields the
    result-cache fingerprint covers, minus the (expensive) config hash:
    deterministic across processes and re-orderings."""
    return f"{task.accel.name}|{task.layer.name}|{task.seed}|{task.max_m}"


def _run_group(group: Sequence[LayerSimTask]
               ) -> Tuple[List[Tuple[Tuple[int, EventCounts], int, int]],
                          int]:
    """Run one operand group, the body shared by pool workers and the
    serial path: draw the group's operand census once, simulate every
    task on it, then drop it.

    Returns ``(payload, start_ns, end_ns)`` per task in group order and
    how many of the group's two operands were materialized as masks.
    The census draw runs inside the first task's ``layer`` span and
    timing, so traces and ``runner.compute_ns`` charge it to that task;
    a materialization is charged to the task that first reads it.
    """
    operands = None
    timed = []
    for task in group:
        faults.inject("task_execute", _task_fault_key(task))
        start_ns = time.perf_counter_ns()
        with obs_trace.span(task.layer.name, "layer",
                            accel=task.accel.name):
            if operands is None:
                operands = synthesize_operands(
                    task.layer, seed=task.seed, max_m=task.max_m)
            payload = task.accel.simulate_layer_functional(
                task.layer, operands)
        timed.append((payload, start_ns, time.perf_counter_ns()))
    return timed, operands.masks_materialized


def _run_group_in_worker(group: Sequence[LayerSimTask]):
    """Pool worker body — module-level so the pool can pickle it.
    Returns the group's timed payloads, its materialized-mask count and
    this worker's pid."""
    return _run_group(group), os.getpid()


def _count_materialized(registry, materialized: int) -> None:
    """Fold one group's two synthesized operands into the
    ``operands.*`` counters: materialized as masks, or census only."""
    registry.counter("operands.masks_materialized").inc(materialized)
    registry.counter("operands.census_only").inc(2 - materialized)


def _merge_worker_telemetry(registry, dispatch_ns: int, finished
                            ) -> Dict[int, Tuple[int, EventCounts]]:
    """Fold the pool's finished groups into the parent's registry and
    return their payloads by task index.

    Each finished group is one synthesis (``runner.syntheses``) of two
    operands (``operands.*``, from the group's materialized count). Queue
    wait is measured from batch dispatch to each task's start on a
    worker (tasks that sat behind others accumulate it); compute is the
    task's span on the worker.
    """
    payloads: Dict[int, Tuple[int, EventCounts]] = {}
    per_worker_tasks: Dict[int, int] = {}
    queue_wait = registry.histogram("runner.queue_wait_ns")
    compute = registry.histogram("runner.compute_ns")
    for group, (timed, materialized), pid in finished:
        per_worker_tasks[pid] = per_worker_tasks.get(pid, 0) + len(group)
        _count_materialized(registry, materialized)
        for i, (payload, start_ns, end_ns) in zip(group, timed):
            payloads[i] = payload
            queue_wait.observe(max(0, start_ns - dispatch_ns))
            compute.observe(max(0, end_ns - start_ns))
    registry.counter("runner.syntheses").inc(len(finished))
    load = registry.histogram("runner.tasks_per_worker")
    for count in per_worker_tasks.values():
        load.observe(count)
    return payloads


def _copy_events(payload: Tuple[int, EventCounts]
                 ) -> Tuple[int, EventCounts]:
    """Fresh ``EventCounts`` per consumer — finalization mutates the
    counters (cycles, DRAM bytes), so deduplicated tasks and cache
    entries must never share one object."""
    compute_cycles, events = payload
    return compute_cycles, EventCounts(**events.as_dict())


def _pool_context():
    """Prefer ``fork`` (cheap start); fall back to the platform default
    elsewhere."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _resolve_task_timeout(task_timeout_s: Optional[float]
                          ) -> Optional[float]:
    """Pool timeout for one operand group: explicit value wins, else
    ``$REPRO_TASK_TIMEOUT`` (seconds), else None (wait forever). A
    non-finite value is rejected: ``nan`` would time every group out at
    once and silently push each pool batch onto the serial path."""
    source = "task_timeout_s"
    value = task_timeout_s
    if value is None:
        env = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
        if not env:
            return None
        source = TASK_TIMEOUT_ENV
        try:
            value = float(env)
        except ValueError:
            raise ValueError(
                f"{source} must be a number of seconds, got {env!r}"
            ) from None
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"{source} must be a finite number of seconds > 0, got "
            f"{value!r}")
    return value


def _prefetch(tasks: Sequence[LayerSimTask],
              groups: Sequence[Sequence[int]]) -> None:
    """Call each distinct accelerator's
    :meth:`~repro.accel.base.AcceleratorModel.prefetch` once, over the
    ``(w, a)`` densities its tasks in ``groups`` will measure, in the
    order the serial path runs them (so SA-SMT's first-asked rule
    picks the same raw pair a task-by-task run would)."""
    asked: Dict[AcceleratorModel, List[Tuple[float, float]]] = {}
    for group in groups:
        first = tasks[group[0]]
        densities = operand_densities(first.layer, max_m=first.max_m)
        for i in group:
            asked.setdefault(tasks[i].accel, []).append(densities)
    for accel, pairs in asked.items():
        accel.prefetch(pairs)


def _run_serial(tasks: Sequence[LayerSimTask],
                groups: Sequence[Sequence[int]], registry
                ) -> Dict[int, Tuple[int, EventCounts]]:
    """The serial execution body — also the degradation target: the
    pool path re-executes its unfinished groups here, bit-equal by
    construction (same simulation entry points, same seeds)."""
    compute = registry.histogram("runner.compute_ns")
    payloads: Dict[int, Tuple[int, EventCounts]] = {}
    for group in groups:
        timed, materialized = _run_group([tasks[i] for i in group])
        registry.counter("runner.syntheses").inc()
        _count_materialized(registry, materialized)
        for i, (payload, start_ns, end_ns) in zip(group, timed):
            payloads[i] = payload
            compute.observe(end_ns - start_ns)
    return payloads


def _run_pool(tasks: Sequence[LayerSimTask],
              groups: Sequence[Sequence[int]], workers: int,
              task_timeout_s: Optional[float]):
    """Fan ``groups`` out over a process pool, one future per group,
    surviving pool death.

    Returns ``(finished, redo)``: ``(group, (timed payloads,
    materialized masks), worker pid)`` for every group that completed,
    and the groups left for the
    caller's serial fallback. A worker crash (``BrokenProcessPool``) or
    a group timeout stops collection, salvages every already-finished
    future, and reports the rest in ``redo`` — the pool path never
    aborts the experiment. A timeout additionally terminates the (hung)
    worker processes so the interpreter is not held hostage at exit. A
    group that raises a *real* simulation error still propagates:
    degradation is for infrastructure failures, not for masking bugs.
    """
    # The pool stack loads only for a batch that runs in the pool.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout
    from concurrent.futures.process import BrokenProcessPool

    finished = []
    redo: List[Sequence[int]] = []
    hung = False
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(),
        initializer=_worker_init,
        initargs=(obs_trace.active_shard_dir(),))
    try:
        futures = [pool.submit(_run_group_in_worker,
                               [tasks[i] for i in group])
                   for group in groups]
        done = 0
        while done < len(groups):
            try:
                timed, pid = futures[done].result(timeout=task_timeout_s)
            except FuturesTimeout:
                hung = True
                log.warning(
                    "pool group timed out after %.3g s; degrading the "
                    "remaining %d group(s) to the serial path",
                    task_timeout_s, len(groups) - done)
                break
            except BrokenProcessPool:
                log.warning(
                    "process pool broke (worker died); degrading the "
                    "remaining %d group(s) to the serial path",
                    len(groups) - done)
                break
            finished.append((groups[done], timed, pid))
            done += 1
        for group, future in zip(groups[done:], futures[done:]):
            if future.done() and not future.cancelled():
                try:
                    timed, pid = future.result(timeout=0)
                except Exception:  # noqa: BLE001 — broken future
                    redo.append(group)
                else:
                    finished.append((group, timed, pid))
            else:
                future.cancel()
                redo.append(group)
    finally:
        if hung:
            # cancel_futures keeps queued work off the dying pool; the
            # hung workers themselves only die when terminated. The
            # process handles must be snapshotted first — shutdown
            # clears the executor's bookkeeping.
            procs = list((getattr(pool, "_processes", None) or {})
                         .values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 — already dead
                    pass
        pool.shutdown(wait=True, cancel_futures=True)
    return finished, redo


def simulate_layer_tasks(
    tasks: Sequence[LayerSimTask],
    jobs=None,
    result_cache: Optional[ResultCache] = None,
    task_timeout_s: Optional[float] = None,
) -> List[Tuple[int, EventCounts]]:
    """Simulate every task, grouped by operand key; results in task
    order.

    Every task is fingerprinted through one per-batch
    :func:`~repro.eval.resultcache.payload_key` memo. Cache hits (and
    in-batch duplicates — the same key appearing twice in ``tasks``)
    never simulate or prefetch; the misses group by
    :func:`~repro.workloads.from_spec.operand_key`, every accelerator
    prefetches over its misses, each group synthesizes once, and
    payloads are frozen into ``result_cache``.
    Groups run over ``jobs`` pool workers (serial when 1 or when only
    one group remains); ``jobs="auto"`` resolves per batch from the
    groups' synthesized work and count via :func:`auto_jobs`. Task
    fingerprints are computed whether or not a cache is attached, so
    in-batch duplicates collapse to one simulation even under
    ``--no-result-cache``.

    **Graceful degradation**: a dying pool (``BrokenProcessPool``) or a
    group timeout (``task_timeout_s``, default from
    ``$REPRO_TASK_TIMEOUT``) does not abort the batch — finished
    groups are salvaged and the rest re-execute on the serial path,
    bit-equal by construction (``runner.degraded`` counts batches,
    ``runner.retries`` counts re-executed tasks).
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
                              max_m=task.max_m, memo=key_memo)
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
        by_operands.setdefault(
            operand_key(task.layer, seed=task.seed, max_m=task.max_m),
            []).append(i)
    groups = list(by_operands.values())
    # Synthesized operand elements, Σ(m·k + k·n) over the groups (the
    # key's leading fields are the capped GEMM shape).
    work = sum(m * k + k * n for m, k, n, *_ in by_operands)
    _prefetch(tasks, groups)
    # Resolved against the post-dedupe/post-cache groups: a batch that
    # is mostly cache hits must not pay pool startup for the tail.
    jobs, reason = _resolve(jobs, len(groups), work)
    task_timeout_s = _resolve_task_timeout(task_timeout_s)
    decision = {"jobs": jobs, "work": work, "reason": reason,
                "tasks": len(pending), "groups": len(groups)}
    if jobs > 1 and len(groups) > 1:
        workers = min(jobs, len(groups))
        registry.counter("runner.pool_batches").inc()
        registry.gauge("runner.pool_workers").set(workers)
        dispatch_ns = time.perf_counter_ns()
        with obs_trace.span("pool", "runner", workers=workers,
                            **decision):
            finished, redo = _run_pool(tasks, groups, workers,
                                       task_timeout_s)
        payloads = _merge_worker_telemetry(registry, dispatch_ns,
                                           finished)
        if redo:
            retried = sum(len(group) for group in redo)
            registry.counter("runner.degraded").inc()
            registry.counter("runner.retries").inc(retried)
            log.warning(
                "degraded: re-executing %d of %d pool group(s) (%d "
                "task(s)) serially", len(redo), len(groups), retried)
            with obs_trace.span("degraded-serial", "runner",
                                tasks=retried):
                payloads.update(_run_serial(tasks, redo, registry))
    elif groups:
        registry.counter("runner.serial_batches").inc()
        with obs_trace.span("serial", "runner", **decision):
            payloads = _run_serial(tasks, groups, registry)
    else:
        payloads = {}
    for i in pending:
        results[i] = payloads[i]
    if result_cache is not None:
        with obs_trace.span("store", "runner", puts=len(pending)):
            for i in pending:
                result_cache.put(keys[i], *payloads[i])
    for i, j in dup_of.items():
        results[i] = results[j]
    return [_copy_events(results[i]) for i in range(len(tasks))]


def functional_model_runs(
    requests: Sequence[Tuple[AcceleratorModel, ModelSpec]],
    *,
    conv_only: bool = False,
    seed: int = 0,
    max_m: Optional[int] = None,
    jobs=None,
    result_cache: Optional[ResultCache] = None,
) -> List[AccelRunResult]:
    """Run many (accelerator, model) pairs as one parallel fan-out.

    The full-model experiments route through this: all layer tasks of
    every request flatten into a single :func:`simulate_layer_tasks`
    batch (each layer's operands are synthesized once for every
    accelerator variant, and the pool sees every group), then each
    payload finalizes through its accelerator's memory-hierarchy and
    energy pipeline exactly as the serial :meth:`~repro.accel.base.AcceleratorModel.run_model_functional`
    would — the two paths are bit-equal by construction.
    """
    tasks: List[LayerSimTask] = []
    spans: List[Tuple[AcceleratorModel, ModelSpec, List[LayerSpec]]] = []
    for accel, spec in requests:
        layers = list(spec.conv_layers if conv_only else spec.layers)
        spans.append((accel, spec, layers))
        tasks.extend(
            LayerSimTask(accel, layer, seed=seed, max_m=max_m)
            for layer in layers)
    payloads = simulate_layer_tasks(tasks, jobs=jobs,
                                    result_cache=result_cache)
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
