"""Bit pins of the fixed-dataflow comparison points in both tiers.

SparTen, Eyeriss v2 and SCNN are hashed on every layer of every
registered network (FC and depthwise layers included): the analytic
``_layer_events`` output before finalization, and ``run_layer``'s
cycles, energy and per-class DRAM bytes. The functional tier is hashed
on AlexNet's conv layers at seeds 0 and 1, as the pre-finalization
payloads that :func:`repro.eval.runner.functional_model_runs` hands to
finalization. Values go through ``repr``, so a numpy scalar leaking in
where a Python int was changes a digest too. A refactor of the
baselines' design points or event formulas must leave every digest
unchanged.
"""

import hashlib

import pytest

from repro.accel import SCNN, EyerissV2, SparTen
from repro.eval.runner import functional_model_runs
from repro.models import MODEL_SPECS, get_spec

BASELINES = (SparTen, EyerissV2, SCNN)

ANALYTIC_SHA256 = (
    "ef84fdb16f4d26195643ab1da632dfc1959f8d3e375dbe7b90075613a1a3e26a")

#: sha256 of the AlexNet conv payloads, keyed by seed.
FUNCTIONAL_SHA256 = {
    0: "c7d2bf8fb2c072e993f814b669c1d0b7a58962d27da5ce532fb5cf33586cd5be",
    1: "889db40e33a6d615c0f51ab54d371ee707714a86189538c5cb71e57904eeff53",
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_analytic_tier_pinned():
    rows = []
    for model in sorted(MODEL_SPECS):
        spec = get_spec(model)
        for build in BASELINES:
            accel = build()
            for layer in spec.layers:
                compute_cycles, events = accel._layer_events(layer)
                result = accel.run_layer(layer)
                rows.append([
                    model, accel.name, layer.name,
                    compute_cycles, events.as_dict(),
                    result.cycles, result.energy_pj,
                    result.memory.by_class(),
                ])
    assert _digest(rows) == ANALYTIC_SHA256


@pytest.mark.parametrize("seed", [0, 1])
def test_functional_payloads_pinned(seed):
    rows = []
    accels = [build() for build in BASELINES]
    for accel in accels:
        finalize = accel._finalize_layer

        def record(layer, compute_cycles, events, accel=accel,
                   finalize=finalize):
            rows.append([accel.name, layer.name, compute_cycles,
                         events.as_dict()])
            return finalize(layer, compute_cycles, events)

        accel._finalize_layer = record
    functional_model_runs([(accel, get_spec("alexnet")) for accel in accels],
                          conv_only=True, seed=seed)
    assert len(rows) == 3 * len(get_spec("alexnet").conv_layers)
    assert _digest(rows) == FUNCTIONAL_SHA256[seed]
