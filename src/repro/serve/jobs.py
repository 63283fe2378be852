"""Job request model for the simulation service.

A *job* is one ``(model, accelerator)`` simulation request — a row of a
fig11/fig12-class artifact — expressed as a small JSON document::

    {"model": "alexnet", "accelerator": "s2ta-aw",
     "tier": "functional", "quick": true, "seed": 0, "priority": 5}

This module is the bridge between that wire format and the experiment
engine: it validates requests (:func:`parse_request`), expands them
into the engine's :class:`~repro.eval.runner.LayerSimTask` granules
(:func:`request_tasks`), fingerprints them for dedupe
(:func:`request_fingerprint` — the ordered per-layer
:func:`~repro.eval.resultcache.payload_key` sequence plus the tier and
the finalization context, combined through
:func:`~repro.eval.resultcache.combine_keys`), prices them for
scheduling (:func:`estimated_cost`) and executes whole batches
(:func:`run_requests`): functional layers through one
:func:`~repro.eval.runner.simulate_layer_tasks` batch, analytic
requests through the closed-form
:meth:`~repro.accel.base.AcceleratorModel.run_model`.

Results serialize through :func:`result_payload`; because the tasks,
finalization and aggregation are the same code the direct
:meth:`~repro.accel.base.AcceleratorModel.run_model_functional` and
``run_model`` paths use, a served job's payload is bit-equal to a
direct in-process run at the same request (asserted in
``tests/serve/test_service.py`` — floats round-trip JSON exactly via
``repr``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accel.base import AcceleratorModel, AccelRunResult
from repro.eval.resultcache import combine_keys, payload_key
from repro.eval.runner import LayerSimTask, simulate_layer_tasks
from repro.models.specs import LayerSpec, ModelSpec
from repro.models.zoo import MODEL_SPECS, get_spec

__all__ = [
    "RequestError",
    "SimRequest",
    "TIERS",
    "estimated_cost",
    "parse_request",
    "request_fingerprint",
    "request_tasks",
    "result_payload",
    "run_requests",
]

#: Fidelity tiers a job may request.
TIERS = ("functional", "analytic")

#: Result-document schema stamp (pinned in ``tests/serve/``).
RESULT_SCHEMA = "repro.serve.result/v1"

#: Closed-form analytic evaluation is size-independent and sub-ms; the
#: scheduler prices it per layer so analytic jobs rank by layer count.
ANALYTIC_LAYER_COST = 1.0


class RequestError(ValueError):
    """A job request that cannot be admitted (unknown model /
    accelerator / tier, wrong field type, bad tech node)."""


@dataclasses.dataclass(frozen=True)
class SimRequest:
    """One validated simulation request (the unit the queue stores)."""

    model: str
    accelerator: str
    tech: Optional[str] = None   # None = the accelerator's default node
    tier: str = "functional"
    conv_only: bool = True
    quick: bool = False
    seed: int = 0
    priority: int = 0

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)


_BOOL_FIELDS = ("conv_only", "quick")
_INT_FIELDS = ("seed", "priority")


def parse_request(data: Dict) -> SimRequest:
    """Validate a wire-format job document into a :class:`SimRequest`.

    Unknown fields are rejected (a typoed ``"sed": 1`` must not
    silently fingerprint as the default seed), as are unknown models,
    accelerators and tiers; the tech node is validated lazily by
    :func:`request_tasks` (the factory owns the node table).
    """
    if not isinstance(data, dict):
        raise RequestError(f"job request must be an object, "
                           f"got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(SimRequest)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise RequestError(f"unknown request field(s): "
                           f"{', '.join(unknown)}")
    try:
        model = data["model"]
        accelerator = data["accelerator"]
    except KeyError as exc:
        raise RequestError(f"missing required field {exc.args[0]!r}") \
            from None
    if model not in MODEL_SPECS:
        raise RequestError(
            f"unknown model {model!r}; choose from "
            f"{', '.join(sorted(MODEL_SPECS))}")
    if accelerator not in _accelerator_factories():
        raise RequestError(
            f"unknown accelerator {accelerator!r}; choose from "
            f"{', '.join(sorted(_accelerator_factories()))}")
    tier = data.get("tier", "functional")
    if tier not in TIERS:
        raise RequestError(f"unknown tier {tier!r}; choose from "
                           f"{', '.join(TIERS)}")
    tech = data.get("tech")
    if tech is not None and not isinstance(tech, str):
        raise RequestError(f"tech must be a string node name, "
                           f"got {tech!r}")
    kwargs = {"model": model, "accelerator": accelerator,
              "tech": tech, "tier": tier}
    for name in _BOOL_FIELDS:
        value = data.get(name, getattr(SimRequest, name))
        if not isinstance(value, bool):
            raise RequestError(f"{name} must be a boolean, got {value!r}")
        kwargs[name] = value
    for name in _INT_FIELDS:
        value = data.get(name, getattr(SimRequest, name))
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(f"{name} must be an integer, got {value!r}")
        kwargs[name] = value
    if kwargs["seed"] < 0:
        raise RequestError(f"seed must be >= 0, got {kwargs['seed']}")
    return SimRequest(**kwargs)


def _accelerator_factories():
    from repro.cli import ACCELERATORS

    return ACCELERATORS


def _quick_max_m() -> int:
    from repro.eval.experiments import QUICK_MAX_M

    return QUICK_MAX_M


def build_accelerator(request: SimRequest) -> AcceleratorModel:
    """Instantiate the request's accelerator design point."""
    factory = _accelerator_factories()[request.accelerator]
    try:
        if request.tech is None:
            return factory()
        return factory(tech=request.tech)
    except KeyError:
        raise RequestError(
            f"unknown tech {request.tech!r} for accelerator "
            f"{request.accelerator!r}") from None


def request_layers(request: SimRequest, spec: ModelSpec
                   ) -> List[LayerSpec]:
    return list(spec.conv_layers if request.conv_only else spec.layers)


def request_tasks(request: SimRequest
                  ) -> Tuple[AcceleratorModel, ModelSpec,
                             List[LayerSimTask]]:
    """Expand one request into its per-layer task list (what the
    fingerprint covers; only functional requests execute the tasks)."""
    spec = get_spec(request.model)
    accel = build_accelerator(request)
    if request.tier == "functional" and not accel.supports_functional:
        raise RequestError(
            f"accelerator {request.accelerator!r} has no functional "
            f"simulator; request tier 'analytic'")
    max_m = _quick_max_m() if request.quick else None
    tasks = [LayerSimTask(accel, layer, seed=request.seed, max_m=max_m)
             for layer in request_layers(request, spec)]
    return accel, spec, tasks


def request_fingerprint(request: SimRequest,
                        tasks: Optional[Sequence[LayerSimTask]] = None
                        ) -> str:
    """Content fingerprint the scheduler (and the submit-time admission
    path) dedupes on: the ordered per-layer payload keys — each already
    covering the accelerator/memory/energy config, seed, quick cap and
    the result cache's source salt — plus the request-level context
    (tier, model name, layer selection), so an analytic and a
    functional request never share a fingerprint. One key memo per
    request hashes its accelerator once, not once per layer.
    ``priority`` is deliberately excluded: a
    high-priority duplicate of a queued request must dedupe onto it,
    not re-simulate.
    """
    if tasks is None:
        _, _, tasks = request_tasks(request)
    memo: dict = {}
    keys = [payload_key(t.accel, t.layer, seed=t.seed, max_m=t.max_m,
                        memo=memo)
            for t in tasks]
    extra = {"schema": RESULT_SCHEMA, "model": request.model,
             "conv_only": request.conv_only, "tier": request.tier}
    return combine_keys(keys, extra=extra)


def estimated_cost(request: SimRequest) -> float:
    """Expected-runtime proxy for scheduling (arbitrary units, larger =
    slower): the functional tier walks every simulated output row, so
    cost tracks the simulated MAC volume (quick mode caps ``m``);
    analytic evaluation is closed-form and size-independent, so one
    constant per layer. Only the *ordering* matters — the scheduler
    runs cheap jobs first within a priority class.
    """
    spec = get_spec(request.model)
    layers = request_layers(request, spec)
    if request.tier == "analytic":
        return ANALYTIC_LAYER_COST * len(layers)
    max_m = _quick_max_m() if request.quick else None
    total = 0.0
    for layer in layers:
        m = layer.m if max_m is None else min(layer.m, max_m)
        total += m * layer.k * layer.n / 1e6
    return total


def result_payload(run: AccelRunResult) -> Dict:
    """JSON-ready result document for one finished job.

    Floats serialize via ``repr`` so the document round-trips JSON
    bit-exactly — the payload a client reads back equals the in-process
    :class:`AccelRunResult` numbers, which is what lets the e2e test
    assert served == direct ``run_model_functional``.
    """
    return {
        "schema": RESULT_SCHEMA,
        "accelerator": run.accelerator,
        "model": run.model,
        "tech": run.tech,
        "clock_ghz": run.clock_ghz,
        "total_cycles": run.total_cycles,
        "energy_uj": run.energy_uj,
        "layers": [
            {
                "name": r.layer.name,
                "cycles": r.cycles,
                "compute_cycles": r.compute_cycles,
                "memory_cycles": r.memory_cycles,
                "energy_uj": r.energy_uj,
            }
            for r in run.layer_results
        ],
    }


def run_requests(requests: Sequence[SimRequest],
                 result_cache=None) -> List[Dict]:
    """Execute many requests as ONE engine batch; results in order.

    Every functional request's layer tasks flatten into a single
    :func:`~repro.eval.runner.simulate_layer_tasks` batch (in-batch
    dedupe, shared operand synthesis and the result cache work across
    jobs — two queued jobs sharing AlexNet layers simulate them once), then
    each request finalizes through its own accelerator's
    memory-hierarchy/energy pipeline exactly like the direct
    ``run_model_functional`` path. Analytic requests evaluate their
    closed forms directly through ``run_model``; ``result_cache`` does
    not apply to them. The scheduler groups requests by tier before
    calling this, but mixing is legal.
    """
    built = [request_tasks(request) for request in requests]
    functional = [task for request, (_, _, tasks) in zip(requests, built)
                  if request.tier == "functional" for task in tasks]
    payloads = iter(simulate_layer_tasks(functional,
                                         result_cache=result_cache))
    out: List[Dict] = []
    for request, (accel, spec, tasks) in zip(requests, built):
        if request.tier == "analytic":
            run = accel.run_model(spec, conv_only=request.conv_only)
        else:
            run = AccelRunResult(
                accelerator=accel.name,
                model=spec.name,
                tech=accel.tech,
                clock_ghz=accel.clock_ghz,
            )
            for task in tasks:
                compute_cycles, events = next(payloads)
                run.layer_results.append(accel._finalize_layer(
                    task.layer, compute_cycles, events))
        out.append(result_payload(run))
    return out
