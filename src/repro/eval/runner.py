"""Parallel, memoized execution engine for the functional tier.

Every functional experiment decomposes into independent *layer
simulation tasks* — one ``(accelerator, layer, seed, max_m)`` point
whose payload is the measured ``(compute_cycles, EventCounts)`` of
:meth:`repro.accel.base.AcceleratorModel.simulate_layer_functional`.
The tasks are embarrassingly parallel (operand synthesis is seeded
deterministically from the layer spec, so a task's result is
independent of where or when it runs) and perfectly memoizable (the
payload is a pure function of the task fingerprint). This module
exploits both:

- :func:`simulate_layer_tasks` fans a task list out over a process
  pool (``jobs`` workers; ``0`` = all cores; the ``REPRO_JOBS``
  environment variable supplies the default, which is what lets
  ``make nightly`` run the whole functional tier parallel by default)
  and consults a :class:`~repro.eval.resultcache.ResultCache` before
  dispatching, so overlapping experiments (fig11 / fig12 / xval share
  AlexNet layers) and re-runs hit the on-disk store instead of
  re-simulating. Results are returned in task order and are bit-equal
  to a serial run at the same seed regardless of worker count
  (asserted in ``tests/eval/test_runner.py``).
- :func:`functional_model_runs` is the whole-experiment entry point:
  it flattens many ``(accelerator, model)`` requests into one task
  batch — so fig11's 4 models x 4 variants saturate the pool as one
  fan-out, not 16 serial loops — and finalizes each payload through
  the owning accelerator's memory-hierarchy/energy pipeline in the
  parent process (finalization is closed-form and cheap; only the
  simulation fans out).

Worker processes keep their own process-local
:class:`~repro.workloads.from_spec.OperandCache`; the pool initializer
shrinks each worker's byte budget to its share of the parent's, so the
aggregate resident operand bytes stay within the configured budget
(see the OperandCache docs and ``tests/workloads/test_from_spec.py``).

Closed-form evaluations never pass through here: the analytic
:meth:`~repro.accel.base.AcceleratorModel.run_layer` costs less than a
task fingerprint, so the DSE, analytic serve requests and the analytic
artifacts call it directly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro import faults
from repro.accel.base import AcceleratorModel, AccelRunResult
from repro.arch.events import EventCounts
from repro.eval.resultcache import ResultCache
from repro.models.specs import LayerSpec, ModelSpec
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "LayerSimTask",
    "auto_jobs",
    "resolve_jobs",
    "simulate_layer_tasks",
    "functional_model_runs",
]

log = obs_logs.get_logger(__name__)

#: ``$REPRO_TASK_TIMEOUT`` supplies the default per-task pool timeout
#: (seconds; unset/empty = wait forever, the pre-robustness behavior).
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Floor on a pool worker's operand-cache byte budget — a worker must
#: always be able to hold at least one large layer's operands while it
#: simulates them (entries above the budget are synthesized but not
#: retained, so correctness never depends on this; only re-synthesis
#: rate does).
MIN_WORKER_OPERAND_BUDGET = 64 * 1024 * 1024


@dataclass(frozen=True, eq=False)
class LayerSimTask:
    """One layer-simulation work unit (the fan-out granule)."""

    accel: AcceleratorModel
    layer: LayerSpec
    seed: int = 0
    max_m: Optional[int] = None


#: Below this many tasks a pool's startup/pickling overhead dominates
#: the simulation work, so ``auto`` stays serial (the BENCH small-host
#: inversion: quick fig12 parallel-cold 1.22 s vs 0.64 s serial).
AUTO_MIN_TASKS = 4

#: ``auto`` never spins up a worker for fewer than this many tasks —
#: each worker must amortize its fork + operand-cache warmup over at
#: least a couple of simulations.
AUTO_TASKS_PER_WORKER = 2


def auto_jobs(task_count: int, cpu_count: Optional[int] = None) -> int:
    """Serial-vs-pool decision for one batch of ``task_count`` tasks.

    The decision table (regression-pinned in
    ``tests/eval/test_runner.py``):

    - single-core host -> 1 (a pool can only add overhead);
    - fewer than :data:`AUTO_MIN_TASKS` tasks -> 1 (startup dominates);
    - otherwise ``min(cpu_count, task_count // AUTO_TASKS_PER_WORKER)``
      workers, so every worker amortizes its fork over >= 2 tasks and
      the pool never exceeds the host.
    """
    if task_count < 0:
        raise ValueError(f"task_count must be >= 0, got {task_count}")
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if cpu_count <= 1 or task_count < AUTO_MIN_TASKS:
        return 1
    return max(1, min(cpu_count, task_count // AUTO_TASKS_PER_WORKER))


def resolve_jobs(jobs, task_count: Optional[int] = None) -> int:
    """Worker count: ``None`` defers to ``$REPRO_JOBS`` (default 1,
    i.e. serial); ``0`` means one worker per core; ``"auto"`` (also
    accepted from ``$REPRO_JOBS``) picks serial vs pool from
    ``task_count`` and the host's cores via :func:`auto_jobs`.
    ``task_count=None`` with ``auto`` sizes for a large batch (one
    worker per core) — batch-level callers pass the real count."""
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
                return os.cpu_count() or 1
            return auto_jobs(task_count)
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(
                f"{source} must be an integer worker count (0 = one "
                f"per core) or 'auto', got {jobs!r}") from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def _worker_init(operand_budget: int,
                 shard_dir: Optional[str] = None) -> None:
    """Pool initializer: cap this worker's process-local operand cache
    at its share of the parent's byte budget, zero the fork-inherited
    cache counters (so the stats this worker returns with its payloads
    are pure deltas), and — when the parent is tracing — open this
    worker's trace shard."""
    from repro.workloads.from_spec import default_operand_cache

    obs_trace.reset_for_worker(shard_dir)
    # Arm worker-only faults (worker_crash / task_hang): they must
    # never fire on the parent's serial fallback path, which is what
    # guarantees degradation converges.
    faults.mark_worker()
    cache = default_operand_cache()
    cache.resize(operand_budget)
    cache.reset_stats()


def _simulate_task(task: LayerSimTask, operand_cache=None
                   ) -> Tuple[int, EventCounts]:
    """The simulation body for one task, shared by pool workers and the
    serial path (``operand_cache`` overrides the process-default
    operand memo)."""
    with obs_trace.span(task.layer.name, "layer", accel=task.accel.name):
        return task.accel.simulate_layer_functional(
            task.layer, seed=task.seed, max_m=task.max_m,
            cache=operand_cache)


def _task_fault_key(task: LayerSimTask) -> str:
    """Stable identity for fault-injection decisions — same fields the
    result-cache fingerprint covers, minus the (expensive) config hash:
    deterministic across processes and re-orderings."""
    return f"{task.accel.name}|{task.layer.name}|{task.seed}|{task.max_m}"


def _run_task(task: LayerSimTask
              ) -> Tuple[Tuple[int, EventCounts], dict]:
    """Worker body — module-level so the pool can pickle it.

    Returns ``(payload, telemetry)``: the simulation result plus this
    worker's pid, the task's monotonic start/end, and a *cumulative*
    snapshot of the worker's operand-cache counters. Shipping counters
    with payloads is what makes worker-side cache statistics survive
    pool teardown — the parent folds the final snapshot per pid into
    the process-wide metrics registry (see ``_merge_worker_telemetry``).
    """
    from repro.workloads.from_spec import default_operand_cache

    faults.inject("task_execute", _task_fault_key(task))
    start_ns = time.perf_counter_ns()
    payload = _simulate_task(task)
    end_ns = time.perf_counter_ns()
    stats = default_operand_cache().stats()
    telemetry = {
        "pid": os.getpid(),
        "start_ns": start_ns,
        "end_ns": end_ns,
        "operand_cache": {key: stats[key] for key in
                          ("hits", "misses", "evictions", "races")},
    }
    return payload, telemetry


def _merge_worker_telemetry(registry, dispatch_ns: int,
                            telemetry: Sequence[dict]) -> None:
    """Fold per-task worker telemetry into the parent's registry.

    Queue wait is measured from batch dispatch to the task's start on
    a worker (tasks that sat behind others accumulate it); compute is
    the span on the worker. Operand-cache counters arrive cumulative
    per worker, so only each pid's largest (= last) snapshot counts,
    summed across pids.
    """
    per_worker_tasks: Dict[int, int] = {}
    cache_final: Dict[int, Dict[str, int]] = {}
    queue_wait = registry.histogram("runner.queue_wait_ns")
    compute = registry.histogram("runner.compute_ns")
    for record in telemetry:
        pid = record["pid"]
        per_worker_tasks[pid] = per_worker_tasks.get(pid, 0) + 1
        queue_wait.observe(max(0, record["start_ns"] - dispatch_ns))
        compute.observe(max(0, record["end_ns"] - record["start_ns"]))
        snap = cache_final.setdefault(pid, {})
        for key, value in record["operand_cache"].items():
            snap[key] = max(snap.get(key, 0), value)
    load = registry.histogram("runner.tasks_per_worker")
    for count in per_worker_tasks.values():
        load.observe(count)
    totals: Dict[str, int] = {}
    for snap in cache_final.values():
        for key, value in snap.items():
            totals[key] = totals.get(key, 0) + value
    registry.merge_counts(totals, prefix="operand_cache.")


def _copy_events(payload: Tuple[int, EventCounts]
                 ) -> Tuple[int, EventCounts]:
    """Fresh ``EventCounts`` per consumer — finalization mutates the
    counters (cycles, DRAM bytes), so deduplicated tasks and cache
    entries must never share one object."""
    compute_cycles, events = payload
    return compute_cycles, EventCounts(**events.as_dict())


def _pool_context():
    """Prefer ``fork`` (cheap start, copy-on-write operand cache);
    fall back to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _resolve_task_timeout(task_timeout_s: Optional[float]
                          ) -> Optional[float]:
    """Per-task pool timeout: explicit value wins, else
    ``$REPRO_TASK_TIMEOUT`` (seconds), else None (wait forever)."""
    if task_timeout_s is not None:
        if task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {task_timeout_s}")
        return task_timeout_s
    env = os.environ.get(TASK_TIMEOUT_ENV, "").strip()
    if not env:
        return None
    value = float(env)
    if value <= 0:
        raise ValueError(
            f"{TASK_TIMEOUT_ENV} must be > 0 seconds, got {env!r}")
    return value


def _run_serial(tasks: Sequence[LayerSimTask], indices: Sequence[int],
                registry, operand_cache
                ) -> Dict[int, Tuple[int, EventCounts]]:
    """The serial execution body — also the degradation target: the
    pool path re-executes its failed slice here, bit-equal by
    construction (same simulation entry points, same seeds)."""
    from repro.workloads.from_spec import default_operand_cache

    op_cache = (operand_cache if operand_cache is not None
                else default_operand_cache())
    before = op_cache.stats()
    compute = registry.histogram("runner.compute_ns")
    payloads: Dict[int, Tuple[int, EventCounts]] = {}
    for i in indices:
        start_ns = time.perf_counter_ns()
        payloads[i] = _simulate_task(tasks[i], operand_cache)
        compute.observe(time.perf_counter_ns() - start_ns)
    after = op_cache.stats()
    registry.merge_counts(
        {key: after[key] - before[key]
         for key in ("hits", "misses", "evictions", "races")},
        prefix="operand_cache.")
    return payloads


def _run_pool(tasks: Sequence[LayerSimTask], indices: Sequence[int],
              workers: int, budget: int,
              task_timeout_s: Optional[float]
              ) -> Tuple[Dict[int, Tuple[int, EventCounts]],
                         List[dict], List[int]]:
    """Fan ``indices`` out over a process pool, surviving pool death.

    Returns ``(payloads_by_index, telemetry, redo_indices)``. A worker
    crash (``BrokenProcessPool``) or a per-task timeout stops
    collection, salvages every already-finished future, and reports the
    rest in ``redo_indices`` for the caller's serial fallback — the
    pool path never aborts the experiment. A timeout additionally
    terminates the (hung) worker processes so the interpreter is not
    held hostage at exit. A task that raises a *real* simulation error
    still propagates: degradation is for infrastructure failures, not
    for masking bugs.
    """
    payloads: Dict[int, Tuple[int, EventCounts]] = {}
    telemetry: List[dict] = []
    redo: List[int] = []
    hung = False
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context(),
        initializer=_worker_init,
        initargs=(budget, obs_trace.active_shard_dir()))
    try:
        futures = {i: pool.submit(_run_task, tasks[i]) for i in indices}
        to_collect = list(indices)
        while to_collect:
            i = to_collect[0]
            try:
                payload, record = futures[i].result(
                    timeout=task_timeout_s)
            except FuturesTimeout:
                hung = True
                log.warning(
                    "pool task timed out after %.3g s; degrading the "
                    "remaining %d task(s) to the serial path",
                    task_timeout_s, len(to_collect))
                break
            except BrokenProcessPool:
                log.warning(
                    "process pool broke (worker died); degrading the "
                    "remaining %d task(s) to the serial path",
                    len(to_collect))
                break
            payloads[i] = payload
            telemetry.append(record)
            to_collect.pop(0)
        for j in to_collect:
            future = futures[j]
            if future.done() and not future.cancelled():
                try:
                    payload, record = future.result(timeout=0)
                except Exception:  # noqa: BLE001 — broken future
                    redo.append(j)
                else:
                    payloads[j] = payload
                    telemetry.append(record)
            else:
                future.cancel()
                redo.append(j)
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
    return payloads, telemetry, redo


def simulate_layer_tasks(
    tasks: Sequence[LayerSimTask],
    jobs=None,
    result_cache: Optional[ResultCache] = None,
    operand_cache=None,
    task_timeout_s: Optional[float] = None,
) -> List[Tuple[int, EventCounts]]:
    """Simulate every task, parallel and memoized; results in task order.

    Cache hits (and in-batch duplicates — the same key appearing twice
    in ``tasks``) never dispatch to the pool; misses fan out over
    ``jobs`` workers (serial when 1 or when only one miss remains) and
    are frozen into ``result_cache`` as they complete. ``jobs="auto"``
    resolves per batch from the number of *misses* (cache hits never
    need a pool) via :func:`auto_jobs`. Task fingerprints are computed
    whether or not a cache is attached, so in-batch duplicates collapse
    to one simulation even under ``--no-result-cache``.
    ``operand_cache`` overrides the process-default operand memo on the
    *serial* path only — worker processes always use their own
    process-local caches.

    **Graceful degradation**: a dying pool (``BrokenProcessPool``) or a
    per-task timeout (``task_timeout_s``, default from
    ``$REPRO_TASK_TIMEOUT``) does not abort the batch — finished
    futures are salvaged and the rest re-execute on the serial path,
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
    for i, task in enumerate(tasks):
        key = payload_key(task.accel, task.layer, seed=task.seed,
                          max_m=task.max_m)
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

    registry.counter("runner.deduped").inc(len(dup_of))
    registry.counter("runner.simulated").inc(len(pending))
    # Resolved against the post-dedupe/post-cache miss count: a batch
    # that is mostly cache hits must not pay pool startup for the tail.
    jobs = resolve_jobs(jobs, task_count=len(pending))
    task_timeout_s = _resolve_task_timeout(task_timeout_s)
    if pending:
        if jobs > 1 and len(pending) > 1:
            from repro.workloads.from_spec import default_operand_cache

            workers = min(jobs, len(pending))
            budget = max(default_operand_cache().max_bytes // workers,
                         MIN_WORKER_OPERAND_BUDGET)
            registry.counter("runner.pool_batches").inc()
            registry.gauge("runner.pool_workers").set(workers)
            dispatch_ns = time.perf_counter_ns()
            with obs_trace.span("pool", "runner", workers=workers,
                                tasks=len(pending)):
                by_index, telemetry, redo = _run_pool(
                    tasks, pending, workers, budget, task_timeout_s)
            _merge_worker_telemetry(registry, dispatch_ns, telemetry)
            if redo:
                registry.counter("runner.degraded").inc()
                registry.counter("runner.retries").inc(len(redo))
                log.warning(
                    "degraded: re-executing %d of %d pool task(s) "
                    "serially", len(redo), len(pending))
                with obs_trace.span("degraded-serial", "runner",
                                    tasks=len(redo)):
                    by_index.update(_run_serial(
                        tasks, redo, registry, operand_cache))
            payloads = [by_index[i] for i in pending]
        else:
            serial = _run_serial(tasks, pending, registry, operand_cache)
            payloads = [serial[i] for i in pending]
        for i, payload in zip(pending, payloads):
            results[i] = payload
            if result_cache is not None:
                result_cache.put(keys[i], payload[0], payload[1])
    for i, j in dup_of.items():
        results[i] = results[j]
    if result_cache is not None:
        # Fold this batch's hit/miss counts into the cache's on-disk
        # lifetime totals so `repro cache stats` sees cross-run history.
        result_cache.persist_stats()
    return [_copy_events(results[i]) for i in range(len(tasks))]


def functional_model_runs(
    requests: Sequence[Tuple[AcceleratorModel, ModelSpec]],
    *,
    conv_only: bool = False,
    seed: int = 0,
    max_m: Optional[int] = None,
    jobs=None,
    result_cache: Optional[ResultCache] = None,
    operand_cache=None,
) -> List[AccelRunResult]:
    """Run many (accelerator, model) pairs as one parallel fan-out.

    The full-model experiments route through this: all layer tasks of
    every request flatten into a single :func:`simulate_layer_tasks`
    batch (maximizing pool occupancy and cache sharing across
    accelerator variants), then each payload finalizes through its
    accelerator's memory-hierarchy and energy pipeline exactly as the
    serial :meth:`~repro.accel.base.AcceleratorModel.run_model_functional`
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
    payloads = simulate_layer_tasks(
        tasks, jobs=jobs, result_cache=result_cache,
        operand_cache=operand_cache)
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
