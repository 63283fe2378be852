"""Thin stdlib HTTP/JSON front-end for the simulation service.

Endpoints (all JSON; schema details in ``docs/serve.md``):

- ``POST /jobs`` — admit one request (see
  :func:`repro.serve.jobs.parse_request` for the document). Responds
  ``201`` with ``{"id", "state", "deduped": false}`` on insert, ``200``
  with ``deduped: true`` when an identical live/done job absorbed the
  submission, ``400`` on a malformed request and ``503`` when
  admission control is on (``max_pending``) and the backlog is full.
- ``GET /jobs/<id>`` — the queue row, request and (when done) result
  document included; ``404`` for unknown ids.
- ``GET /jobs[?state=...&limit=N]`` — most recent jobs first.
- ``GET /metrics`` — the process metrics registry
  (``repro.obs.metrics/v1`` — the exact document ``--metrics-out``
  writes), queue-depth gauges refreshed at read time.
- ``GET /healthz`` — liveness plus per-state queue counts.

The service object (:class:`ServeService`) owns the store, the HTTP
server (`ThreadingHTTPServer`; ``port=0`` binds an ephemeral port for
tests) and one scheduler thread (``workers=0`` = admission-only: jobs
queue up but nothing executes — the crash/SIGKILL tests and
multi-process deployments where separate worker processes drain the
same SQLite file use this). Startup always runs crash recovery before
the first claim.

:func:`http_json`, :func:`submit_job` and :func:`wait_for_job` are the
stdlib urllib client helpers the CLI verbs (``repro submit`` /
``repro jobs``) and the smoke test build on.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro import faults
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.serve.jobs import (
    RequestError,
    parse_request,
    request_fingerprint,
)
from repro.serve.queue import DEFAULT_LEASE_S, STATES, JobStore
from repro.serve.scheduler import _DEFAULT_CACHE, Scheduler

__all__ = [
    "ServeService",
    "http_json",
    "run_smoke",
    "submit_job",
    "wait_for_job",
]

log = obs_logs.get_logger(__name__)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # The default handler prints every request to stderr; route it to
    # the debug log instead so the payload channel stays clean.
    def log_message(self, fmt, *args):  # noqa: A003 — stdlib hook
        log.debug("%s %s", self.address_string(), fmt % args)

    @property
    def service(self) -> "ServeService":
        return self.server.service

    # --------------------------------------------------------- #

    def _send_json(self, code: int, payload: Dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _faults_ok(self) -> bool:
        """Chaos-suite injection point: a fired ``http_error`` fault
        becomes a plain 500 — the client sees a clean retryable error,
        never a half-written response."""
        try:
            faults.inject("http_handler", f"{self.command} {self.path}")
        except faults.InjectedFault as exc:
            self._send_json(500, {"error": str(exc)})
            return False
        return True

    def do_POST(self) -> None:  # noqa: N802 — stdlib hook
        if not self._faults_ok():
            return
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no such endpoint "
                                           f"{self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            data = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError) as exc:
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            job_id, deduped, state = self.service.admit(data)
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except BacklogFull as exc:
            self._send_json(503, {"error": str(exc)})
            return
        self._send_json(200 if deduped else 201,
                        {"id": job_id, "deduped": deduped,
                         "state": state})

    def do_GET(self) -> None:  # noqa: N802 — stdlib hook
        if not self._faults_ok():
            return
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            counts = self.service.scheduler.refresh_gauges()
            self._send_json(200, {"ok": True, "db": self.service.db_path,
                                  "counts": counts})
            return
        if path == "/metrics":
            self.service.scheduler.refresh_gauges()
            self._send_json(
                200, obs_metrics.default_registry().json_payload())
            return
        if path == "/jobs":
            params = dict(
                pair.split("=", 1) for pair in query.split("&") if "=" in pair)
            state = params.get("state")
            try:
                limit = int(params.get("limit", "50"))
                jobs = self.service.store.list_jobs(state=state,
                                                    limit=limit)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, {"jobs": [job.to_dict() for job in jobs]})
            return
        if path.startswith("/jobs/"):
            try:
                job_id = int(path[len("/jobs/"):])
            except ValueError:
                self._send_json(400, {"error": f"bad job id in "
                                               f"{self.path!r}"})
                return
            job = self.service.store.get(job_id)
            if job is None:
                self._send_json(404, {"error": f"no job {job_id}"})
                return
            self._send_json(200, job.to_dict())
            return
        self._send_json(404, {"error": f"no such endpoint {self.path!r}"})


class BacklogFull(RuntimeError):
    """Admission control rejected a submission (pending backlog at
    ``max_pending``)."""


class ServeService:
    """Store + scheduler thread(s) + HTTP server, one lifecycle."""

    def __init__(self, db_path, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1,
                 result_cache=_DEFAULT_CACHE, batch_limit: int = 16,
                 poll_s: float = 0.1, max_pending: Optional[int] = None,
                 lease_s: float = DEFAULT_LEASE_S):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        self.db_path = str(db_path)
        self.store = JobStore(self.db_path)
        self.scheduler = Scheduler(self.store,
                                   result_cache=result_cache,
                                   batch_limit=batch_limit,
                                   poll_s=poll_s, lease_s=lease_s)
        self.workers = workers
        self.max_pending = max_pending
        self.recovered = self.scheduler.recover()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self
        self._started = False

    # --------------------------------------------------------- #

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # --------------------------------------------------------- #

    def admit(self, data: Dict) -> Tuple[int, bool, str]:
        """Validate + fingerprint + enqueue one wire-format request;
        returns ``(job_id, deduped, state)``. Shared by the HTTP POST
        handler and in-process callers (smoke test)."""
        request = parse_request(data)
        if self.max_pending is not None:
            counts = self.store.counts()
            if counts["pending"] >= self.max_pending:
                obs_metrics.default_registry().counter(
                    "serve.jobs_rejected").inc()
                raise BacklogFull(
                    f"backlog full ({counts['pending']} pending >= "
                    f"max_pending={self.max_pending}); retry later")
        fingerprint = request_fingerprint(request)
        job_id, deduped = self.store.submit(
            request.as_dict(), fingerprint, priority=request.priority)
        registry = obs_metrics.default_registry()
        registry.counter("serve.jobs_submitted").inc()
        if deduped:
            registry.counter("serve.dedupe_hits").inc()
        self.scheduler.refresh_gauges()
        job = self.store.get(job_id)
        return job_id, deduped, job.state if job else "pending"

    # --------------------------------------------------------- #

    def start(self) -> None:
        """Start the HTTP thread and ``workers`` scheduler thread(s)
        (idempotent). The sockets are bound in ``__init__``, so
        ``port`` is valid before and after."""
        if self._started:
            return
        self._started = True
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http",
            daemon=True)
        http_thread.start()
        self._threads.append(http_thread)
        for i in range(self.workers):
            worker = threading.Thread(
                target=self.scheduler.run_forever, args=(self._stop,),
                name=f"serve-worker-{i}", daemon=True)
            worker.start()
            self._threads.append(worker)
        log.info("serving on %s (db=%s, workers=%d)", self.base_url,
                 self.db_path, self.workers)

    def stop(self) -> None:
        """Stop the HTTP server and scheduler threads, close the
        store. Safe to call twice; running jobs finish their pass."""
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads.clear()
        self.store.close()

    def __enter__(self) -> "ServeService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait_idle(self, timeout_s: float = 60.0) -> None:
        """Block until no pending/running jobs remain (tests, smoke)."""
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            counts = self.store.counts()
            if counts["pending"] == 0 and counts["running"] == 0:
                return
            time.sleep(0.05)
        raise TimeoutError(
            f"service not idle after {timeout_s} s: {self.store.counts()}")


# ------------------------------------------------------------------ #
# stdlib client helpers
# ------------------------------------------------------------------ #


def http_json(method: str, url: str, payload: Optional[Dict] = None,
              timeout_s: float = 30.0) -> Tuple[int, Dict]:
    """One JSON request/response roundtrip; HTTP error statuses return
    normally as ``(status, body)`` so callers branch on the code."""
    body = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def submit_job(base_url: str, request: Dict,
               timeout_s: float = 30.0) -> Dict:
    """POST one job; returns the admission document. Raises
    :class:`RuntimeError` on any non-2xx status (body's error
    included)."""
    status, body = http_json("POST", f"{base_url}/jobs", request,
                             timeout_s=timeout_s)
    if status not in (200, 201):
        raise RuntimeError(
            f"submit rejected ({status}): {body.get('error', body)}")
    return body


def wait_for_job(base_url: str, job_id: int, timeout_s: float = 120.0,
                 poll_s: float = 0.2,
                 request_timeout_s: float = 30.0) -> Dict:
    """Poll ``GET /jobs/<id>`` until the job reaches a terminal state;
    returns the final job document (done, failed *or* quarantined —
    the caller distinguishes). Every poll carries its own socket
    timeout (``request_timeout_s``), so a wedged server cannot hold
    the client past ``timeout_s`` + one request."""
    deadline = time.time() + timeout_s
    while True:
        status, body = http_json("GET", f"{base_url}/jobs/{job_id}",
                                 timeout_s=request_timeout_s)
        if status != 200:
            raise RuntimeError(f"job {job_id} lookup failed "
                               f"({status}): {body.get('error', body)}")
        if body["state"] in ("done", "failed", "quarantined"):
            return body
        if time.time() > deadline:
            raise TimeoutError(
                f"job {job_id} still {body['state']} after {timeout_s} s")
        time.sleep(poll_s)


def _free_port(host: str = "127.0.0.1") -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def run_smoke(db_path, result_cache=_DEFAULT_CACHE) -> str:
    """End-to-end self-test (the ``make serve-smoke`` body).

    Boots a full service on an ephemeral port, submits one analytic
    lenet5 job, a duplicate of it and one distinct request over real
    HTTP, and asserts: the duplicate deduped onto the first id, every
    job finished ``done``, the duplicate's result document is
    byte-identical to the original's, and ``/metrics`` reconciles
    (completed jobs == distinct requests). Raises on any violation;
    returns a one-paragraph report.
    """
    base = {"model": "lenet5", "accelerator": "s2ta-aw",
            "tier": "analytic"}
    other = dict(base, accelerator="sa")
    with ServeService(db_path, port=0, workers=1,
                      result_cache=result_cache) as service:
        first = submit_job(service.base_url, base)
        dup = submit_job(service.base_url, base)
        distinct = submit_job(service.base_url, other)
        if not dup["deduped"] or dup["id"] != first["id"]:
            raise RuntimeError(
                f"duplicate submission did not dedupe: {first} vs {dup}")
        if distinct["deduped"]:
            raise RuntimeError(
                f"distinct request wrongly deduped: {distinct}")
        jobs = [wait_for_job(service.base_url, jid, timeout_s=60)
                for jid in (first["id"], distinct["id"])]
        for job in jobs:
            if job["state"] != "done":
                raise RuntimeError(f"job {job['id']} finished "
                                   f"{job['state']}: {job.get('error')}")
        dup_doc = wait_for_job(service.base_url, dup["id"])
        if dup_doc["result"] != jobs[0]["result"]:
            raise RuntimeError("deduped job's result diverged from the "
                               "original's")
        _, metrics = http_json("GET", f"{service.base_url}/metrics")
        completed = metrics["metrics"].get(
            "serve.jobs_completed", {}).get("value", 0)
        if completed < 2:
            raise RuntimeError(
                f"metrics reconcile failed: serve.jobs_completed = "
                f"{completed}, expected >= 2")
        counts = service.store.counts()
    return ("serve smoke OK: "
            f"3 submissions -> {counts['done']} done job(s), "
            f"1 deduped (id {dup['id']}), results bit-equal, "
            f"metrics reconciled (completed={completed}) "
            f"[db={service.db_path}]")
