"""Priority scheduler: dedupe, rank, batch, execute.

One scheduler pass (:meth:`Scheduler.run_once`) drains a slice of the
queue through the experiment engine:

1. **claim** — up to ``batch_limit`` pending jobs move to running
   atomically (priority DESC, FIFO within a class — the store's claim
   order);
2. **rank** — claimed jobs order by :func:`job_rank`:
   ``(-priority, estimated_cost, id)``. Within a priority class cheap
   jobs run first (shortest-expected-job-first keeps mean latency low
   when a 30 s run and five short jobs share the queue), and
   the submission id breaks every remaining tie, so the order is total
   and deterministic — the Hypothesis property suite in
   ``tests/serve/test_scheduler.py`` pins both;
3. **dedupe** — jobs sharing a request fingerprint collapse to one
   *leader* per fingerprint (first in rank order); followers never
   touch the engine and are completed with the leader's result
   document, bit-equal by construction. Distinct fingerprints are
   never merged (property-tested);
4. **batch** — leaders group into per-fidelity-tier batches (rank
   order preserved; a batch never mixes analytic with functional work,
   property-tested) and each batch executes as ONE
   :func:`~repro.serve.jobs.run_requests` call: a functional batch is
   one runner batch, so queued jobs share operand synthesis, in-batch
   layer dedupe and the result cache exactly like one big experiment;
   an analytic batch evaluates each request's closed forms directly;
5. **complete/fail** — per-job results land in the store; a request
   that fails to parse or simulate fails its job (and its followers)
   with the diagnostic, never the whole pass.

Fault tolerance around the pass:

- every pass first runs the **lease sweep** (rate-limited to
  ``sweep_every_s``), so one long-lived service takes back jobs from
  hung *and* crashed peers without a restart — startup recovery is
  just the first sweep;
- claimed jobs execute under a **heartbeat**: a daemon thread renews
  the batch's leases every ``lease_s / 3`` while the engine runs, so a
  multi-minute functional batch is never mistaken for a hang;
- the claim step is a :mod:`repro.faults` injection point
  (``queue_claim``), which the chaos suite uses to prove a failed
  claim never loses or duplicates work.

Service metrics stream into :mod:`repro.obs.metrics` under the
``serve.`` prefix (catalog in that module's docstring); queue-depth
gauges refresh on every pass and on demand via :meth:`refresh_gauges`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.serve.jobs import (
    RequestError,
    SimRequest,
    estimated_cost,
    parse_request,
    run_requests,
)
from repro.serve.queue import DEFAULT_LEASE_S, Job, JobStore

__all__ = [
    "ParsedJob",
    "Scheduler",
    "assemble_batches",
    "dedupe_jobs",
    "job_rank",
    "order_jobs",
]

log = obs_logs.get_logger(__name__)

#: Marker distinguishing "use the process default result cache" from an
#: explicit None (= caching disabled).
_DEFAULT_CACHE = object()


class ParsedJob:
    """A claimed queue row joined with its validated request and the
    scheduling attributes derived from it (cost, fingerprint)."""

    __slots__ = ("job", "request", "cost")

    def __init__(self, job: Job, request: SimRequest,
                 cost: Optional[float] = None):
        self.job = job
        self.request = request
        self.cost = estimated_cost(request) if cost is None else cost

    @property
    def fingerprint(self) -> str:
        return self.job.fingerprint

    @property
    def tier(self) -> str:
        return self.request.tier


def job_rank(parsed: ParsedJob) -> Tuple[float, float, int]:
    """Total, deterministic execution order within a claimed slice:
    priority DESC, then expected runtime ASC, then FIFO (id ASC — ids
    are unique, so no two jobs ever compare equal)."""
    return (-parsed.job.priority, parsed.cost, parsed.job.id)


def order_jobs(parsed: Sequence[ParsedJob]) -> List[ParsedJob]:
    return sorted(parsed, key=job_rank)


def dedupe_jobs(ranked: Sequence[ParsedJob]
                ) -> Tuple[List[ParsedJob], Dict[int, List[ParsedJob]]]:
    """Collapse same-fingerprint jobs onto one leader each.

    Returns ``(leaders, followers)`` where ``leaders`` keeps rank order
    (first occurrence of each fingerprint) and ``followers`` maps a
    leader's job id to the jobs that will receive its result. Every
    distinct fingerprint in the input survives as exactly one leader.
    """
    leaders: List[ParsedJob] = []
    followers: Dict[int, List[ParsedJob]] = {}
    leader_by_fp: Dict[str, ParsedJob] = {}
    for parsed in ranked:
        leader = leader_by_fp.get(parsed.fingerprint)
        if leader is None:
            leader_by_fp[parsed.fingerprint] = parsed
            leaders.append(parsed)
            followers[parsed.job.id] = []
        else:
            followers[leader.job.id].append(parsed)
    return leaders, followers


def assemble_batches(leaders: Sequence[ParsedJob]
                     ) -> List[List[ParsedJob]]:
    """Group rank-ordered leaders into engine batches by fidelity tier.

    Batches preserve rank order within themselves and emit in order of
    each tier's first appearance; a batch never mixes tiers — analytic
    requests are sub-millisecond closed forms and functional ones are
    seconds of cycle simulation, so a mixed batch would hold cheap
    analytic results back until the slow simulations finish.
    """
    batches: Dict[str, List[ParsedJob]] = {}
    order: List[str] = []
    for parsed in leaders:
        if parsed.tier not in batches:
            batches[parsed.tier] = []
            order.append(parsed.tier)
        batches[parsed.tier].append(parsed)
    return [batches[tier] for tier in order]


class _LeaseHeartbeat:
    """Renews the leases of in-flight jobs while a batch executes.

    A daemon thread beats every ``lease_s / 3`` (floor 10 ms), so an
    honestly-working batch always renews well before expiry, while a
    hung batch (the thread is alive but the *worker pool* is stuck —
    or the whole process is SIGSTOPped, freezing this thread too)
    stops renewing and loses the jobs to the sweep. Renewal counts
    stream to ``serve.lease_renewals``.
    """

    def __init__(self, store: JobStore, job_ids: List[int],
                 lease_s: float):
        self.store = store
        self.job_ids = job_ids
        self.lease_s = lease_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True)

    def _run(self) -> None:
        interval = max(self.lease_s / 3.0, 0.01)
        while not self._stop.wait(interval):
            try:
                renewed = self.store.heartbeat(
                    self.job_ids, lease_s=self.lease_s)
            except Exception:  # noqa: BLE001 — beat must not kill batch
                log.exception("lease heartbeat failed; will retry")
                continue
            obs_metrics.default_registry().counter(
                "serve.lease_renewals").inc(renewed)

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class Scheduler:
    """Drains a :class:`~repro.serve.queue.JobStore` through the
    experiment engine (see module docstring for the pass anatomy)."""

    def __init__(self, store: JobStore,
                 result_cache=_DEFAULT_CACHE, batch_limit: int = 16,
                 poll_s: float = 0.1, owner: Optional[str] = None,
                 lease_s: float = DEFAULT_LEASE_S,
                 sweep_every_s: Optional[float] = None):
        if batch_limit < 1:
            raise ValueError(
                f"batch_limit must be >= 1, got {batch_limit}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.store = store
        if result_cache is _DEFAULT_CACHE:
            from repro.eval.resultcache import default_result_cache

            result_cache = default_result_cache()
        self.result_cache = result_cache
        self.batch_limit = batch_limit
        self.poll_s = poll_s
        self.owner = owner or f"scheduler-{os.getpid()}"
        self.lease_s = lease_s
        # Sweeping twice per lease keeps worst-case hang detection
        # latency at ~1.5 leases while staying cheap (one indexed
        # SELECT per sweep on an idle queue).
        self.sweep_every_s = (lease_s / 2.0 if sweep_every_s is None
                              else sweep_every_s)
        self._last_sweep_mono: Optional[float] = None

    # ------------------------------------------------------------- #

    def sweep(self) -> Tuple[List[int], List[int]]:
        """Take back expired-lease jobs now (see
        ``JobStore.sweep_expired``); returns
        ``(requeued_ids, quarantined_ids)``."""
        self._last_sweep_mono = time.monotonic()
        requeued, quarantined = self.store.sweep_expired()
        registry = obs_metrics.default_registry()
        registry.counter("serve.jobs_requeued").inc(len(requeued))
        registry.counter("serve.jobs_quarantined").inc(len(quarantined))
        if requeued or quarantined:
            log.warning("lease sweep: re-queued %d job(s) with backoff, "
                        "quarantined %d out of attempts",
                        len(requeued), len(quarantined))
        self.refresh_gauges()
        return requeued, quarantined

    def maybe_sweep(self) -> Tuple[List[int], List[int]]:
        """Rate-limited sweep: runs at most every ``sweep_every_s``
        seconds; every scheduler pass calls this, which is what makes
        a single long-lived service self-heal without restart."""
        now = time.monotonic()
        if (self._last_sweep_mono is not None
                and now - self._last_sweep_mono < self.sweep_every_s):
            return [], []
        return self.sweep()

    def recover(self) -> Tuple[List[int], List[int]]:
        """Startup crash recovery — since recovery went lease-based
        this is just the first sweep (and is safe while peer worker
        processes are live: their leases are current)."""
        return self.sweep()

    def refresh_gauges(self) -> Dict[str, int]:
        counts = self.store.counts()
        registry = obs_metrics.default_registry()
        registry.gauge("serve.queue_depth").set(counts["pending"])
        registry.gauge("serve.jobs_running").set(counts["running"])
        return counts

    # ------------------------------------------------------------- #

    def run_once(self) -> int:
        """One sweep-claim-dedupe-batch-execute pass; returns jobs
        finished (done + failed, followers included). 0 means the queue
        had no claimable work."""
        self.maybe_sweep()
        faults.inject("queue_claim", self.owner)
        claimed = self.store.claim(self.owner, limit=self.batch_limit,
                                   lease_s=self.lease_s)
        if not claimed:
            self.refresh_gauges()
            return 0
        registry = obs_metrics.default_registry()
        finished = 0
        parsed: List[ParsedJob] = []
        for job in claimed:
            try:
                parsed.append(ParsedJob(job, parse_request(job.request)))
            except RequestError as exc:
                # Admission validates too, so this only triggers for
                # rows written by a newer/older schema or by hand.
                self.store.fail(job.id, f"unparseable request: {exc}")
                registry.counter("serve.jobs_failed").inc()
                finished += 1
        leaders, followers = dedupe_jobs(order_jobs(parsed))
        dedupe_hits = sum(len(v) for v in followers.values())
        registry.counter("serve.dedupe_hits").inc(dedupe_hits)
        for batch in assemble_batches(leaders):
            registry.counter("serve.batches").inc()
            finished += self._run_batch(batch, followers)
        self.refresh_gauges()
        return finished

    def _run_batch(self, batch: List[ParsedJob],
                   followers: Dict[int, List[ParsedJob]]) -> int:
        registry = obs_metrics.default_registry()
        member_ids = [m.job.id for p in batch
                      for m in [p] + followers.get(p.job.id, [])]
        now = time.time()
        try:
            with _LeaseHeartbeat(self.store, member_ids, self.lease_s):
                results = run_requests([p.request for p in batch],
                                       result_cache=self.result_cache)
        except Exception as exc:  # noqa: BLE001 — job-level isolation
            log.exception("batch of %d job(s) failed", len(batch))
            finished = 0
            for parsed in batch:
                message = f"simulation failed: {exc}"
                for member in [parsed] + followers.get(parsed.job.id, []):
                    self.store.fail(member.job.id, message)
                    registry.counter("serve.jobs_failed").inc()
                    finished += 1
            return finished
        finished = 0
        done = time.time()
        for parsed, result in zip(batch, results):
            for member in [parsed] + followers.get(parsed.job.id, []):
                self.store.complete(member.job.id, result)
                registry.counter("serve.jobs_completed").inc()
                registry.histogram("serve.job_wall_ns").observe(
                    max(0.0, done - member.job.created_s) * 1e9)
                finished += 1
        registry.histogram("serve.batch_wall_ns").observe(
            max(0.0, done - now) * 1e9)
        return finished

    # ------------------------------------------------------------- #

    def drain(self, timeout_s: Optional[float] = None) -> int:
        """Run passes until the queue holds no pending jobs; returns
        total jobs finished. Raises :class:`TimeoutError` if a deadline
        is given and pending work remains when it expires."""
        deadline = None if timeout_s is None else time.time() + timeout_s
        finished = 0
        while True:
            progressed = self.run_once()
            finished += progressed
            if (self.store.counts()["pending"] == 0
                    and self.store.counts()["running"] == 0):
                return finished
            if deadline is not None and time.time() > deadline:
                raise TimeoutError(
                    f"queue not drained after {timeout_s} s "
                    f"({self.store.counts()['pending']} pending)")
            if progressed == 0:
                # Pending-but-unclaimable work (backoff gate or an
                # expired lease awaiting the next sweep): wait out a
                # slice of the gate instead of spinning on claims.
                time.sleep(min(self.poll_s, 0.02))

    def run_forever(self, stop: threading.Event) -> None:
        """Poll loop for the service's scheduler thread: busy passes
        run back to back, an idle queue sleeps ``poll_s`` between
        polls (interruptible via ``stop``)."""
        while not stop.is_set():
            try:
                finished = self.run_once()
            except Exception:  # noqa: BLE001 — the loop must survive
                log.exception("scheduler pass crashed; backing off")
                finished = 0
            if finished == 0:
                stop.wait(self.poll_s)
