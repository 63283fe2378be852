"""Chaos suite: the ISSUE-10 acceptance runs (``make chaos``).

Every test arms the deterministic fault registry (:mod:`repro.faults`),
then asserts the system converges to the fault-free answer:

- a serve instance under a fault storm (corrupt result-cache writes
  and reads, claim failures, HTTP 500s) finishes every job either
  ``done`` with a result bit-equal to the clean run or
  ``failed``/``quarantined`` with a recorded error — never hung, never
  silently wrong;
- corrupted result-cache entries are quarantined on read and
  recomputed, converging back to bit-equal results and clean hits.

Marked ``slow``: these boot HTTP services and spawn fresh interpreters
— nightly tier, excluded from the default run.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro import faults
from repro.accel import ZvcgSA
from repro.eval.resultcache import ResultCache
from repro.eval.runner import LayerSimTask, simulate_layer_tasks
from repro.models import get_spec
from repro.serve.api import ServeService, http_json, submit_job

pytestmark = pytest.mark.slow

TERMINAL = ("done", "failed", "quarantined")


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ------------------------------------------------------------------ #
# serve under a fault storm
# ------------------------------------------------------------------ #


#: Four distinct functional requests — small enough that the
#: clean baseline is sub-second, varied enough that a cross-wired result
#: (job A served job B's payload) cannot pass the bit-equal check.
#: Functional, because only cycle simulations read and write the result
#: cache that the cache_corrupt / cache_read_flip faults target.
REQUESTS = [
    {"model": "lenet5", "accelerator": accel, "tier": "functional",
     "seed": seed}
    for accel in ("s2ta-aw", "sa") for seed in (0, 1)
]

#: The storm: every result-cache read of the primed entries comes back
#: garbled once, most rewrites land garbled on disk, the scheduler's
#: first two claims raise, and half the HTTP requests 500 (twice per
#: endpoint).
STORM = ("seed=3,cache_read_flip:p=1,cache_corrupt:p=0.7,"
         "claim_fail:p=1:n=2,http_error:p=0.5:n=2")


def _submit_tolerant(base_url, request, attempts=10):
    """Submit, riding out injected HTTP 500s (each endpoint's fault
    budget is finite, so persistence always wins)."""
    for attempt in range(attempts):
        try:
            return submit_job(base_url, request)
        except (RuntimeError, OSError):
            if attempt == attempts - 1:
                raise
            time.sleep(0.1)


def _wait_tolerant(base_url, job_id, timeout_s=120.0):
    """Poll to a terminal state, tolerating injected 500s on the way."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status, body = http_json("GET", f"{base_url}/jobs/{job_id}",
                                 timeout_s=30.0)
        if status == 200 and body["state"] in TERMINAL:
            return body
        time.sleep(0.2)
    raise TimeoutError(f"job {job_id} not terminal after {timeout_s} s")


class TestServeUnderFaultStorm:
    def test_every_job_converges_bit_equal_or_cleanly_failed(
            self, tmp_path):
        # Clean baseline results, one per distinct request; they also
        # prime the result cache the storm then reads.
        baseline = {}
        cache_dir = tmp_path / "cache"
        with ServeService(tmp_path / "clean.sqlite3", port=0,
                          workers=1,
                          result_cache=ResultCache(cache_dir)) as service:
            ids = [submit_job(service.base_url, req)["id"]
                   for req in REQUESTS]
            for req, jid in zip(REQUESTS, ids):
                job = _wait_tolerant(service.base_url, jid)
                assert job["state"] == "done", job
                baseline[(req["accelerator"], req["seed"])] = \
                    job["result"]

        # Same requests under the storm: each garbled cache read is
        # quarantined and re-simulated bit-equal.
        faults.configure(STORM)
        try:
            with ServeService(tmp_path / "chaos.sqlite3", port=0,
                              workers=1,
                              result_cache=ResultCache(cache_dir),
                              lease_s=30.0) as service:
                ids = [_submit_tolerant(service.base_url, req)["id"]
                       for req in REQUESTS]
                jobs = [_wait_tolerant(service.base_url, jid)
                        for jid in ids]
                for req, job in zip(REQUESTS, jobs):
                    if job["state"] == "done":
                        key = (req["accelerator"], req["seed"])
                        assert job["result"] == baseline[key], \
                            f"result diverged under faults: {req}"
                    else:
                        assert job.get("error"), \
                            f"terminal without an error: {job}"
                counts = service.store.counts()
                assert counts["pending"] == 0
                assert counts["running"] == 0
                assert service.store.integrity_check() == "ok"
                fired = faults.active().counts()
        finally:
            faults.reset()
        # The storm must have actually hit something, or this test
        # proves nothing. claim_fail and cache_read_flip are p=1, so
        # they always fire.
        assert fired.get("claim_fail", 0) >= 1, fired
        assert fired.get("cache_read_flip", 0) >= 1, fired
        assert sum(fired.values()) >= 3, fired


# ------------------------------------------------------------------ #
# result-cache corruption
# ------------------------------------------------------------------ #


ALEXNET = get_spec("alexnet")
CONV2 = ALEXNET.conv_layers[1]


class TestCacheCorruptionChaos:
    def test_corrupt_entries_quarantined_then_recomputed(self, tmp_path):
        tasks = [LayerSimTask(ZvcgSA(), replace(CONV2, m=32), seed=seed)
                 for seed in (0, 1)]
        clean = simulate_layer_tasks(tasks, result_cache=None)

        cache = ResultCache(tmp_path / "cache")
        # Every key's *first* write lands corrupted (per-key budget of
        # one fire); rewrites after quarantine are clean.
        faults.configure("seed=1,cache_corrupt:p=1")
        try:
            cold = simulate_layer_tasks(tasks, result_cache=cache)
            assert cold == clean  # computed fresh; corruption is at rest
            # The poisoned entries are detected on read, quarantined,
            # recomputed bit-equal and re-written clean.
            warm = simulate_layer_tasks(tasks, result_cache=cache)
            assert warm == clean
            assert cache.corrupt == len(tasks)
            quarantined = list(
                (tmp_path / "cache" / "corrupt").glob("*.json"))
            assert len(quarantined) == len(tasks)
            # Third pass: the rewritten entries serve as real hits.
            third = simulate_layer_tasks(tasks, result_cache=cache)
            assert third == clean
            assert cache.hits >= len(tasks)
            assert cache.corrupt == len(tasks)  # no new detections
        finally:
            faults.reset()


# ------------------------------------------------------------------ #
# environment plumbing
# ------------------------------------------------------------------ #


class TestEnvArming:
    def test_repro_faults_env_arms_a_fresh_interpreter(self):
        """A fresh interpreter self-arms from ``$REPRO_FAULTS`` at
        import — how the CLI and a served instance are armed."""
        env = _child_env()
        env[faults.ENV_VAR] = "claim_fail:p=0.25"
        code = ("import sys\n"
                "from repro import faults\n"
                "reg = faults.active()\n"
                "sys.exit(0 if reg is not None and\n"
                "         reg.specs[0].name == 'claim_fail' else 1)\n")
        assert subprocess.run([sys.executable, "-c", code],
                              env=env, timeout=60).returncode == 0
