"""Simulation as a service (``repro serve``).

Wraps the memoized experiment engine in a long-running
service: a persistent SQLite job queue (:mod:`repro.serve.queue`), a
priority scheduler with request dedupe and per-tier batching
(:mod:`repro.serve.scheduler`), a stdlib HTTP/JSON API
(:mod:`repro.serve.api`) and the request/result model bridging the
wire format to the engine (:mod:`repro.serve.jobs`). See
``docs/serve.md`` for the operator's view.
"""

from repro.serve.api import (
    ServeService,
    http_json,
    run_smoke,
    submit_job,
    wait_for_job,
)
from repro.serve.jobs import (
    RequestError,
    SimRequest,
    estimated_cost,
    parse_request,
    request_fingerprint,
    request_tasks,
    result_payload,
    run_requests,
)
from repro.serve.queue import (
    DEFAULT_LEASE_S,
    Job,
    JobStore,
    STATES,
    TERMINAL_STATES,
    backoff_s,
    default_db_path,
)
from repro.serve.scheduler import (
    Scheduler,
    assemble_batches,
    dedupe_jobs,
    job_rank,
    order_jobs,
)

__all__ = [
    "DEFAULT_LEASE_S",
    "Job",
    "JobStore",
    "RequestError",
    "STATES",
    "Scheduler",
    "ServeService",
    "SimRequest",
    "TERMINAL_STATES",
    "assemble_batches",
    "backoff_s",
    "dedupe_jobs",
    "default_db_path",
    "estimated_cost",
    "http_json",
    "job_rank",
    "order_jobs",
    "parse_request",
    "request_fingerprint",
    "request_tasks",
    "result_payload",
    "run_requests",
    "run_smoke",
    "submit_job",
    "wait_for_job",
]
