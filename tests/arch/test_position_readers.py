"""The fixed-dataflow baselines read positions from DBB bitmasks.

SparTen (weights), Eyeriss v2 (both operands) and SCNN (activations)
read where the non-zeros sit, not just how many there are. They read
it from the operands' 1-byte-per-block DBB bitmasks
(:attr:`~repro.core.sparsity.GemmOperands.a_bits` / ``w_bits``),
unpacked a bounded row chunk at a time, and accumulate their counts
chunk by chunk. Obligations:

- **Oracle equality** (Hypothesis): per-PE loads / issue slots, cycles
  and fired MACs equal the naive match-matrix forms of
  :mod:`repro.core.reference` for drawn censuses and concrete INT8
  operands, ragged ``k`` and ``m`` off the PE period, with a chunk
  budget small enough that every operand spans many chunks; and every
  event equals the same engine at the default budget.
- **Empty GEMMs** (``m``, ``k`` or ``n`` = 0) run and fire nothing.
- **Bounded memory**: on AlexNet's largest activations (conv1) and
  weights (conv3), no engine allocates more than :data:`PEAK_BOUND`
  above what the census holds.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.eyeriss import EyerissV2Engine
from repro.arch.scnn import SCNNEngine
from repro.arch.sparten import SparTenEngine, greedy_lpt_loads
from repro.core import sparsity
from repro.core.reference import (
    naive_eyeriss_mesh_loads,
    naive_scnn_issue_slots,
    naive_sparten_column_loads,
)
from repro.core.sparsity import GemmOperands
from repro.models import get_spec
from repro.models.specs import LayerKind, LayerSpec
from repro.workloads.from_spec import spec_census

ENGINES = {
    "SparTen": SparTenEngine(),
    "Eyeriss-v2": EyerissV2Engine(),
    "SCNN": SCNNEngine(),
}

#: Most bytes any engine may allocate while it runs on one AlexNet
#: census (bitmask draw included). A widened ``int64`` copy of conv3's
#: ``W`` alone is 7.1 MB; the chunked readers stay near 1 MB.
PEAK_BOUND = 2 * 2**20


def _oracle(name, a, w):
    """``(loads, cycles, fired)`` of engine ``name`` on ``a @ w`` from
    the naive match-matrix references."""
    cfg = ENGINES[name].config
    columns = naive_sparten_column_loads(a, w)
    fired = int(columns.sum())
    if name == "SparTen":
        loads = greedy_lpt_loads(columns, cfg.pes)
        cycles = math.ceil(int(loads.max(initial=0))
                           / cfg.pipeline_utilization)
    elif name == "Eyeriss-v2":
        loads = naive_eyeriss_mesh_loads(a, w, cfg.clusters,
                                         cfg.pes_per_cluster)
        makespan = -(-int(loads.max(initial=0)) // cfg.macs_per_pe)
        cycles = math.ceil(makespan / cfg.pipeline_utilization)
    else:
        loads = naive_scnn_issue_slots(a, w, cfg.pes, cfg.mults_i,
                                       cfg.mults_f)
        cycles = int(loads.max(initial=0))
    return loads, cycles, fired


def _loads(result):
    """Per-PE loads (SparTen, Eyeriss v2) or issue slots (SCNN)."""
    if hasattr(result, "pe_issue_slots"):
        return result.pe_issue_slots
    return result.pe_loads


@st.composite
def _gemms(draw):
    """``(make_operands, a, w)``: a drawn census of a small ragged
    layer, or concrete INT8 operands (unstructured zeros); ``m`` runs
    past SCNN's 64-PE period and off Eyeriss v2's 12."""
    m = draw(st.integers(1, 150))
    k = draw(st.integers(1, 41))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        layer = LayerSpec("L", LayerKind.CONV, m=m, k=k, n=n,
                          w_nnz=draw(st.integers(1, 8)),
                          a_nnz=draw(st.integers(1, 8)),
                          act_density=draw(st.floats(0.0, 1.0)))
        masks = spec_census(layer, seed=seed)
        return (lambda: spec_census(layer, seed=seed)), masks.a, masks.w
    rng = np.random.default_rng(seed)
    a = rng.integers(-127, 128, size=(m, k)).astype(np.int8)
    w = rng.integers(-127, 128, size=(k, n)).astype(np.int8)
    a[rng.random((m, k)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    w[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    return (lambda: GemmOperands(a, w)), a, w


@given(gemm=_gemms(), budget=st.sampled_from([1, 40, 300]))
@settings(max_examples=40, deadline=None)
def test_chunked_readers_equal_match_matrix_oracles(gemm, budget):
    make, a, w = gemm
    for name, engine in ENGINES.items():
        with mock.patch.object(sparsity, "_CHUNK_ELEMENTS", budget):
            chunked = engine.run(make())
        loads, cycles, fired = _oracle(name, a, w)
        np.testing.assert_array_equal(_loads(chunked), loads)
        assert chunked.cycles == cycles
        assert chunked.events.mac_ops == fired
        whole = engine.run(make())
        np.testing.assert_array_equal(_loads(whole), loads)
        assert chunked.events == whole.events


@pytest.mark.parametrize("m,k,n", [(0, 5, 4), (1, 0, 4), (3, 5, 0)],
                         ids=["m=0", "k=0", "n=0"])
@pytest.mark.parametrize("name", list(ENGINES))
def test_empty_gemm_fires_nothing(name, m, k, n):
    a = np.ones((m, k), dtype=bool)
    w = np.ones((k, n), dtype=bool)
    result = ENGINES[name].run_gemm(a, w)
    assert result.cycles == 0
    assert result.events.mac_ops == 0
    assert not _loads(result).any()
    assert result.events == ENGINES[name].run(GemmOperands(a, w)).events
    if k == 0:
        # No reduction index: nothing is stored or read, only the
        # m x n zero output is written.
        events = result.events.as_dict()
        written = {"sram_a_write_bytes", "mcu_elementwise_ops"}
        assert all(v == 0 for key, v in events.items()
                   if key not in written)


@pytest.mark.parametrize("layer", [0, 2], ids=["conv1", "conv3"])
@pytest.mark.parametrize("name", list(ENGINES))
def test_readers_stay_within_peak_bound(name, layer):
    spec = get_spec("alexnet").conv_layers[layer]
    operands = spec_census(spec)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ENGINES[name].run(operands)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND, f"{name} on {spec.name}: {peak} bytes"
    blocks = -(-spec.k // 8)
    for bits, rows in (("a_bits", spec.m), ("w_bits", spec.n)):
        if bits in operands.__dict__:
            assert operands.__dict__[bits].nbytes == rows * blocks
