"""Scheduler property suite + pass-level integration.

The Hypothesis properties pin the three scheduling laws the module
docstring promises: the execution order is total and deterministic with
a FIFO tie-break, dedupe never drops (or merges) a distinct
fingerprint, and batch assembly never mixes fidelity tiers. The
integration tests drive real passes over a real store with the cheap
analytic tier, including the SIGKILL-a-worker-mid-job recovery path.
"""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.serve.jobs import SimRequest, request_fingerprint
from repro.serve.queue import Job, JobStore
from repro.serve.scheduler import (
    ParsedJob,
    Scheduler,
    assemble_batches,
    dedupe_jobs,
    job_rank,
    order_jobs,
)


def _fake_parsed(index, priority, fp, tier, cost):
    """A ParsedJob for property tests — the request never executes, so
    a hand-built SimRequest (no validation) and an explicit cost do."""
    job = Job(id=index + 1, fingerprint=f"fp-{fp}", request={},
              priority=priority, state="running", attempts=1,
              max_attempts=2, owner="t", result=None, error=None,
              created_s=0.0, started_s=0.0, finished_s=None)
    request = SimRequest(model="lenet5", accelerator="sa", tier=tier)
    return ParsedJob(job, request, cost=cost)


parsed_jobs = st.builds(
    lambda rows: [_fake_parsed(i, *row) for i, row in enumerate(rows)],
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),        # priority
            st.integers(min_value=0, max_value=4),         # fingerprint
            st.sampled_from(["functional", "analytic"]),   # tier
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False),                    # cost
        ),
        max_size=12,
    ),
)


class TestOrderingProperties:
    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_order_is_total_and_permutation_invariant(self, jobs):
        forward = [p.job.id for p in order_jobs(jobs)]
        backward = [p.job.id for p in order_jobs(list(reversed(jobs)))]
        assert forward == backward  # deterministic under input order
        assert sorted(forward) == sorted(p.job.id for p in jobs)

    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_priority_cost_fifo_invariants(self, jobs):
        ordered = order_jobs(jobs)
        for a, b in zip(ordered, ordered[1:]):
            assert a.job.priority >= b.job.priority
            if a.job.priority == b.job.priority:
                assert a.cost <= b.cost
                if a.cost == b.cost:
                    assert a.job.id < b.job.id  # FIFO tie-break

    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_rank_keys_are_unique(self, jobs):
        keys = [job_rank(p) for p in jobs]
        assert len(set(keys)) == len(keys)  # ids make every key distinct


class TestDedupeProperties:
    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_every_distinct_fingerprint_survives(self, jobs):
        ranked = order_jobs(jobs)
        leaders, followers = dedupe_jobs(ranked)
        assert {p.fingerprint for p in leaders} \
            == {p.fingerprint for p in jobs}
        leader_fps = [p.fingerprint for p in leaders]
        assert len(set(leader_fps)) == len(leader_fps)

    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_no_job_dropped_and_followers_match_leader(self, jobs):
        ranked = order_jobs(jobs)
        leaders, followers = dedupe_jobs(ranked)
        by_id = {p.job.id: p for p in leaders}
        total = len(leaders) + sum(len(v) for v in followers.values())
        assert total == len(jobs)
        for leader_id, members in followers.items():
            for member in members:
                assert member.fingerprint == by_id[leader_id].fingerprint
                assert member.job.id != leader_id

    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_leader_is_best_ranked_of_its_group(self, jobs):
        ranked = order_jobs(jobs)
        leaders, followers = dedupe_jobs(ranked)
        by_id = {p.job.id: p for p in leaders}
        for leader_id, members in followers.items():
            for member in members:
                assert job_rank(by_id[leader_id]) < job_rank(member)


class TestBatchingProperties:
    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_batches_never_mix_tiers(self, jobs):
        leaders, _ = dedupe_jobs(order_jobs(jobs))
        for batch in assemble_batches(leaders):
            assert batch  # no empty batches
            assert len({p.tier for p in batch}) == 1

    @settings(max_examples=50, deadline=None)
    @given(parsed_jobs)
    def test_batches_partition_leaders_preserving_rank_order(self, jobs):
        leaders, _ = dedupe_jobs(order_jobs(jobs))
        batches = assemble_batches(leaders)
        flat = [p.job.id for batch in batches for p in batch]
        assert sorted(flat) == sorted(p.job.id for p in leaders)
        rank_pos = {p.job.id: i for i, p in enumerate(leaders)}
        for batch in batches:
            positions = [rank_pos[p.job.id] for p in batch]
            assert positions == sorted(positions)  # subsequence of rank


# ------------------------------------------------------------------- #
# Integration: real passes over a real store (cheap analytic tier).
# ------------------------------------------------------------------- #


def _submit(store, request, **kwargs):
    from repro.serve.jobs import parse_request

    parsed = parse_request(request)
    return store.submit(request, request_fingerprint(parsed),
                        priority=parsed.priority, **kwargs)


ANALYTIC = {"model": "lenet5", "accelerator": "s2ta-aw",
            "tier": "analytic"}


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "jobs.sqlite3") as s:
        yield s


@pytest.fixture
def scheduler(store):
    # result_cache=None: these tests pin scheduler behaviour, not the
    # cache.
    return Scheduler(store, result_cache=None)


class TestSchedulerPass:
    def test_duplicates_collapse_to_one_execution(self, store, scheduler):
        obs_metrics.reset_default_registry()
        ids = [_submit(store, ANALYTIC, dedupe=False)[0]
               for _ in range(3)]
        distinct, _ = _submit(store, dict(ANALYTIC, seed=7))
        finished = scheduler.run_once()
        assert finished == 4
        results = [store.get(i).result for i in ids]
        assert all(store.get(i).state == "done" for i in ids + [distinct])
        assert results[0] == results[1] == results[2]
        registry = obs_metrics.default_registry()
        assert registry.counter("serve.dedupe_hits").value == 2
        assert registry.counter("serve.jobs_completed").value == 4
        assert registry.counter("serve.batches").value == 1
        assert registry.gauge("serve.queue_depth").value == 0

    def test_priority_orders_execution_across_passes(self, store,
                                                     scheduler):
        scheduler.batch_limit = 1
        low, _ = _submit(store, dict(ANALYTIC, seed=1, priority=0))
        high, _ = _submit(store, dict(ANALYTIC, seed=2, priority=9))
        scheduler.run_once()
        assert store.get(high).state == "done"
        assert store.get(low).state == "pending"
        scheduler.run_once()
        assert store.get(low).state == "done"

    def test_mixed_tiers_split_into_batches(self, store, scheduler):
        obs_metrics.reset_default_registry()
        a, _ = _submit(store, dict(ANALYTIC, seed=1))
        f, _ = _submit(store, {"model": "lenet5", "accelerator": "sa",
                               "tier": "functional", "quick": True,
                               "seed": 1})
        assert scheduler.run_once() == 2
        assert store.get(a).state == "done"
        assert store.get(f).state == "done"
        registry = obs_metrics.default_registry()
        assert registry.counter("serve.batches").value == 2

    def test_unparseable_row_fails_job_not_pass(self, store, scheduler):
        # The store itself never validates — simulate a row written by
        # a different schema version.
        bad_id, _ = store.submit({"model": "not-a-model"}, "fp-bad")
        ok_id, _ = _submit(store, ANALYTIC)
        assert scheduler.run_once() == 2
        bad = store.get(bad_id)
        assert bad.state == "failed"
        assert "unparseable request" in bad.error
        assert store.get(ok_id).state == "done"

    def test_simulation_failure_isolated_to_its_batch(self, store,
                                                      scheduler):
        # Parses fine (tech is lazily validated) but cannot build; the
        # literal fingerprint mirrors a client that never expands tasks.
        bad_id, _ = store.submit(dict(ANALYTIC, tech="bogus-node"),
                                 "fp-bad-tech")
        scheduler.run_once()
        bad = store.get(bad_id)
        assert bad.state == "failed"
        assert "simulation failed" in bad.error

    def test_drain_empties_queue(self, store, scheduler):
        for seed in range(3):
            _submit(store, dict(ANALYTIC, seed=seed))
        assert scheduler.drain(timeout_s=60) == 3
        assert store.counts()["pending"] == 0

    def test_drain_expired_deadline_raises(self, store):
        for seed in range(3):
            _submit(store, dict(ANALYTIC, seed=seed))
        # batch_limit=1 leaves pending work after the first pass; an
        # already-expired deadline must raise instead of spinning.
        blocked = Scheduler(store, result_cache=None, batch_limit=1)
        with pytest.raises(TimeoutError):
            blocked.drain(timeout_s=-1)

    def test_recover_reports_metrics(self, store):
        obs_metrics.reset_default_registry()
        job_id, _ = _submit(store, ANALYTIC)
        # A claim whose (forged) lease is long expired by real now.
        store.claim("dead-worker", now=0.0, lease_s=1.0)
        scheduler = Scheduler(store, result_cache=None)
        requeued, quarantined = scheduler.recover()
        assert requeued == [job_id] and quarantined == []
        registry = obs_metrics.default_registry()
        assert registry.counter("serve.jobs_requeued").value == 1
        assert registry.gauge("serve.queue_depth").value == 1


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestWorkerCrashRecovery:
    """SIGKILL a real scheduler worker process mid-job, then prove the
    next scheduler instance re-queues the orphaned job exactly once and
    finishes it."""

    WORKER = (
        "import sys, time\n"
        "from repro.serve.queue import JobStore\n"
        "from repro.serve.scheduler import Scheduler\n"
        "store = JobStore(sys.argv[1])\n"
        "sched = Scheduler(store, result_cache=None, owner='doomed')\n"
        "claimed = sched.store.claim(sched.owner, limit=1,\n"
        "                            lease_s=0.3)\n"
        "assert claimed, 'nothing to claim'\n"
        "print('claimed', claimed[0].id, flush=True)\n"
        "time.sleep(120)\n"  # 'mid-job'; SIGKILLed long before
    )

    def test_sigkill_worker_mid_job(self, store):
        job_id, _ = _submit(store, ANALYTIC)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.WORKER, store.path],
            stdout=subprocess.PIPE, text=True, env=_child_env())
        try:
            line = proc.stdout.readline()
            assert line.startswith("claimed"), line
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # A fresh scheduler (the restarted service) sweeps the orphan
        # back once its (short) lease runs out, and runs it to
        # completion — the backoff gate only delays the retry.
        time.sleep(0.4)  # let the dead worker's 0.3 s lease expire
        scheduler = Scheduler(store, result_cache=None)
        requeued, quarantined = scheduler.recover()
        assert requeued == [job_id] and quarantined == []
        assert scheduler.recover() == ([], [])  # exactly once
        scheduler.drain(timeout_s=120)
        job = store.get(job_id)
        assert job.state == "done"
        assert job.result["schema"] == "repro.serve.result/v1"
        assert store.integrity_check() == "ok"


class TestHungWorkerRecovery:
    """SIGSTOP (not kill) a worker process mid-job: the process is
    alive but hung, so it stops heartbeating, its lease runs out, and
    the sweep hands the job to someone else — who produces a result
    bit-equal to an undisturbed run. The stopped process is SIGKILLed
    at the end (cleanup), proving recovery never depended on it."""

    WORKER = (
        "import sys, time\n"
        "from repro.serve.queue import JobStore\n"
        "store = JobStore(sys.argv[1])\n"
        "claimed = store.claim('hung-worker', limit=1, lease_s=0.3)\n"
        "assert claimed, 'nothing to claim'\n"
        "print('claimed', claimed[0].id, flush=True)\n"
        "time.sleep(120)\n"  # stand-in for the wedged simulation
    )

    def test_sigstop_worker_job_retried_bit_equal(self, store, tmp_path):
        job_id, _ = _submit(store, ANALYTIC)

        # Undisturbed baseline of the identical request, out of band.
        with JobStore(tmp_path / "baseline.sqlite3") as clean:
            base_id, _ = _submit(clean, ANALYTIC)
            Scheduler(clean, result_cache=None).drain(
                timeout_s=120)
            baseline = clean.get(base_id).result

        proc = subprocess.Popen(
            [sys.executable, "-c", self.WORKER, store.path],
            stdout=subprocess.PIPE, text=True, env=_child_env())
        try:
            line = proc.stdout.readline()
            assert line.startswith("claimed"), line
            proc.send_signal(signal.SIGSTOP)   # hung, not dead
            time.sleep(0.4)                    # its 0.3 s lease expires

            scheduler = Scheduler(store, result_cache=None)
            requeued, quarantined = scheduler.recover()
            assert requeued == [job_id] and quarantined == []
            scheduler.drain(timeout_s=120)
        finally:
            proc.send_signal(signal.SIGCONT)
            proc.kill()
            proc.wait(timeout=30)

        job = store.get(job_id)
        assert job.state == "done"
        assert job.attempts == 2              # hung claim stays charged
        assert job.result == baseline         # bit-equal retry
        assert store.counts()["running"] == 0  # nothing left hung
        assert store.integrity_check() == "ok"
