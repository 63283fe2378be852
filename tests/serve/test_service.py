"""End-to-end service tests: real HTTP on an ephemeral port, real
scheduler threads, real SIGKILL.

The headline acceptance test submits the same fig12-class quick
functional job twice concurrently, asserts the second dedupes onto the
first, that exactly one simulation executed, that the served result is
bit-equal to a direct in-process ``run_model_functional`` call, and
that ``/metrics`` reconciles. A second suite SIGKILLs the server
process and proves the queue reloads consistently.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.eval.experiments import QUICK_MAX_M
from repro.obs import metrics as obs_metrics
from repro.serve.api import ServeService, http_json, submit_job, \
    wait_for_job
from repro.serve.jobs import parse_request, request_tasks, result_payload
from repro.serve.queue import JobStore


FIG12_QUICK = {"model": "alexnet", "accelerator": "s2ta-aw",
               "tier": "functional", "quick": True, "seed": 0}
ANALYTIC = {"model": "lenet5", "accelerator": "s2ta-aw",
            "tier": "analytic"}


@contextlib.contextmanager
def _service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("result_cache", None)
    with ServeService(tmp_path / "jobs.sqlite3", port=0,
                      **kwargs) as service:
        yield service


class TestEndToEnd:
    def test_concurrent_duplicate_submits_one_simulation(self, tmp_path):
        obs_metrics.reset_default_registry()
        with _service(tmp_path) as service:
            responses = [None, None]

            def post(slot):
                responses[slot] = submit_job(service.base_url,
                                             FIG12_QUICK)

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # Same job id for both clients; exactly one was deduped
            # (the store serializes admissions, so exactly one insert).
            assert responses[0]["id"] == responses[1]["id"]
            assert sorted(r["deduped"] for r in responses) \
                == [False, True]

            job = wait_for_job(service.base_url, responses[0]["id"],
                               timeout_s=300)
            assert job["state"] == "done", job.get("error")

            # Bit-equal to a direct in-process run at the same request.
            request = parse_request(FIG12_QUICK)
            accel, spec, _ = request_tasks(request)
            direct = result_payload(accel.run_model_functional(
                spec, conv_only=True, seed=0, max_m=QUICK_MAX_M))
            assert job["result"] == direct

            # /metrics reconciles: two admissions, one dedupe hit, one
            # simulation completed, nothing failed or left in flight.
            service.wait_idle(timeout_s=60)
            _, payload = http_json("GET",
                                   f"{service.base_url}/metrics")
            assert payload["schema"] == "repro.obs.metrics/v1"
            metrics = payload["metrics"]
            assert metrics["serve.jobs_submitted"]["value"] == 2
            assert metrics["serve.dedupe_hits"]["value"] == 1
            assert metrics["serve.jobs_completed"]["value"] == 1
            assert metrics.get("serve.jobs_failed",
                               {"value": 0})["value"] == 0
            assert metrics["serve.queue_depth"]["value"] == 0
            assert metrics["serve.jobs_running"]["value"] == 0
            assert metrics["serve.job_wall_ns"]["count"] == 1

    def test_resubmit_after_done_dedupes_instantly(self, tmp_path):
        with _service(tmp_path) as service:
            first = submit_job(service.base_url, ANALYTIC)
            done = wait_for_job(service.base_url, first["id"],
                                timeout_s=60)
            assert done["state"] == "done"
            again = submit_job(service.base_url, ANALYTIC)
            assert again["deduped"] and again["id"] == first["id"]
            assert again["state"] == "done"  # result served immediately

    def test_smoke_selftest(self, tmp_path):
        from repro.serve.api import run_smoke

        report = run_smoke(tmp_path / "smoke.sqlite3", result_cache=None)
        assert report.startswith("serve smoke OK")


class TestApiSurface:
    def test_healthz_and_listing(self, tmp_path):
        with _service(tmp_path, workers=0) as service:
            status, health = http_json("GET",
                                       f"{service.base_url}/healthz")
            assert status == 200 and health["ok"]
            assert health["counts"]["pending"] == 0

            submit_job(service.base_url, ANALYTIC)
            submit_job(service.base_url, dict(ANALYTIC, seed=1))
            status, body = http_json(
                "GET", f"{service.base_url}/jobs?state=pending&limit=10")
            assert status == 200 and len(body["jobs"]) == 2
            status, body = http_json(
                "GET", f"{service.base_url}/jobs?state=done")
            assert status == 200 and body["jobs"] == []

    def test_error_statuses(self, tmp_path):
        with _service(tmp_path, workers=0) as service:
            base = service.base_url
            status, body = http_json("POST", f"{base}/jobs",
                                     {"model": "not-a-model",
                                      "accelerator": "sa"})
            assert status == 400 and "unknown model" in body["error"]
            status, body = http_json("POST", f"{base}/jobs",
                                     dict(ANALYTIC, sed=1))
            assert status == 400 and "unknown request field" in body["error"]
            assert http_json("GET", f"{base}/jobs/999")[0] == 404
            assert http_json("GET", f"{base}/jobs/abc")[0] == 400
            assert http_json("GET", f"{base}/nope")[0] == 404
            assert http_json("POST", f"{base}/nope", {})[0] == 404
            assert http_json("GET", f"{base}/jobs?state=zombie")[0] == 400

    def test_malformed_json_body(self, tmp_path):
        with _service(tmp_path, workers=0) as service:
            req = urllib.request.Request(
                f"{service.base_url}/jobs", data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"})
            try:
                urllib.request.urlopen(req, timeout=30)
                raise AssertionError("expected HTTP 400")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                assert "bad JSON" in json.loads(exc.read())["error"]

    def test_backlog_admission_control(self, tmp_path):
        obs_metrics.reset_default_registry()
        with _service(tmp_path, workers=0, max_pending=1) as service:
            submit_job(service.base_url, ANALYTIC)
            status, body = http_json("POST", f"{service.base_url}/jobs",
                                     dict(ANALYTIC, seed=1))
            assert status == 503 and "backlog full" in body["error"]
            with pytest.raises(RuntimeError, match="503"):
                submit_job(service.base_url, dict(ANALYTIC, seed=2))
            registry = obs_metrics.default_registry()
            assert registry.counter("serve.jobs_rejected").value == 2


def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestSigkillServer:
    """Kill -9 the whole server process with jobs queued; the journal
    must reload consistently and a restarted service must finish the
    work."""

    SERVER = (
        "import sys, time\n"
        "from repro.serve.api import ServeService\n"
        "service = ServeService(sys.argv[1], port=0, workers=0,\n"
        "                       result_cache=None)\n"
        "service.start()\n"
        "print(service.port, flush=True)\n"
        "time.sleep(300)\n"  # SIGKILLed long before
    )

    def test_queue_survives_server_sigkill(self, tmp_path):
        db = tmp_path / "jobs.sqlite3"
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SERVER, str(db)],
            stdout=subprocess.PIPE, text=True, env=_child_env())
        try:
            port = int(proc.stdout.readline())
            base = f"http://127.0.0.1:{port}"
            first = submit_job(base, ANALYTIC)
            second = submit_job(base, dict(ANALYTIC, seed=1))
            assert not first["deduped"] and not second["deduped"]
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # The journal reloads consistently: both admissions survived.
        with JobStore(db) as store:
            assert store.integrity_check() == "ok"
            counts = store.counts()
            assert counts["pending"] == 2 and counts["running"] == 0

        # A restarted service drains the recovered queue to done.
        with _service(tmp_path) as service:
            service.wait_idle(timeout_s=120)
            with JobStore(db) as store:
                assert store.counts()["done"] == 2


class TestCliVerbs:
    def test_serve_smoke_verb(self, tmp_path):
        out = main(["serve", "--smoke",
                    "--db", str(tmp_path / "smoke.sqlite3")])
        assert out.startswith("serve smoke OK")

    def test_submit_wait_and_jobs(self, tmp_path):
        with _service(tmp_path) as service:
            net = ["--host", service.host, "--port", str(service.port)]
            out = main(["submit", "lenet5", "--accelerator", "s2ta-aw",
                        "--tier", "analytic", "--wait"] + net)
            assert "queued as job" in out
            assert "cycles" in out and "lenet5" in out
            out = main(["submit", "lenet5", "--accelerator", "s2ta-aw",
                        "--tier", "analytic"] + net)
            assert "deduped onto job" in out
            out = main(["jobs"] + net)
            assert "done=1" in out and "lenet5" in out

    def test_jobs_straight_off_db_file(self, tmp_path):
        with _service(tmp_path, workers=0) as service:
            submit_job(service.base_url, ANALYTIC)
            db = service.db_path
        out = main(["jobs", "--db", db])  # no server running anymore
        assert "pending=1" in out and "s2ta-aw" in out

    def test_submit_unreachable_server_exits(self, tmp_path):
        from repro.serve.api import _free_port

        with pytest.raises(SystemExit, match="failed"):
            main(["submit", "lenet5", "--accelerator", "sa",
                  "--host", "127.0.0.1", "--port", str(_free_port())])
