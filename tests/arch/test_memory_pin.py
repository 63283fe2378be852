"""Bit pins of the memory model's per-layer results.

Every value the artifacts read off a layer's memory profile is hashed
here: DRAM read/write bytes, payload and metadata bytes per operand,
the residency flags, the fill time, the enforced cap and the
double-buffered tile timeline. The digests cover four networks on the
systolic family and the fixed-dataflow comparison points, at the
default channel and at an explicit 8 GB/s one, plus the rows of the
roofline and bandwidth-sweep artifacts. A refactor of
:mod:`repro.arch.memory` must leave every digest unchanged.
"""

import hashlib
import json

import pytest

from repro.accel import SCNN, EyerissV2, S2TAAW, S2TAW, SmtSA, SparTen, ZvcgSA
from repro.eval.roofline import dram_bw_sensitivity, roofline_analysis
from repro.models import get_spec

MODELS = ("alexnet", "vgg16", "resnet50", "mobilenet_v1")

ACCELERATORS = {
    "SA-ZVCG": ZvcgSA,
    "SMT-T2Q2": lambda **kw: SmtSA(fifo_depth=2, **kw),
    "S2TA-W": S2TAW,
    "S2TA-AW": S2TAAW,
    "SparTen": SparTen,
    "Eyeriss v2": EyerissV2,
    "SCNN": SCNN,
}

#: sha256 of the per-layer memory rows of every (model, accelerator),
#: keyed by the channel (``None``: the default 32 B/cycle channel).
MEMORY_SHA256 = {
    None: "17c51870b2da6aab69e2255452a8d2d15e689f3d2c141a5629f729a987720f30",
    8.0: "935d810769fc83b6f042a33b621a4b821ff29c0cbe92f0f40b9178129ed73507",
}

ROOFLINE_SHA256 = (
    "8e2f9ee2720d6498a471fc77f7299cde957d64fe78055f0080a1e3601b7c7f4b")
BW_SWEEP_SHA256 = (
    "1b859b2bc42d8e192d39bb72bfe7da0dffa290ba19f82dcf612fa0b17d9ee339")


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _layer_row(result):
    prof = result.memory
    return [
        result.layer.name, prof.dram_read_bytes, prof.dram_write_bytes,
        prof.weight_bytes, prof.weight_meta_bytes, prof.act_bytes,
        prof.act_meta_bytes, prof.out_bytes, prof.weights_resident,
        prof.acts_resident, prof.fill_cycles.hex(), result.memory_cycles,
        prof.memory_cycles, prof.overlapped_cycles,
    ]


@pytest.mark.parametrize("dram_gbps", [None, 8.0])
def test_layer_memory_results_pinned(dram_gbps):
    rows = []
    for model in MODELS:
        spec = get_spec(model)
        for name, build in ACCELERATORS.items():
            run = build(dram_gbps=dram_gbps).run_model(spec)
            rows.append([model, name,
                         [_layer_row(r) for r in run.layer_results]])
    assert _digest(rows) == MEMORY_SHA256[dram_gbps]


def test_roofline_rows_pinned():
    assert _digest(roofline_analysis().rows) == ROOFLINE_SHA256


def test_bw_sweep_rows_pinned():
    assert _digest(dram_bw_sensitivity().rows) == BW_SWEEP_SHA256
