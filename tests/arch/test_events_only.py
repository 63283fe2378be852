"""Events-only functional tier: counting never depends on the output.

Every engine result computes its ``output`` matrix on first read, and the
full-model pipeline (``simulate_layer_functional``) never reads it. These
properties prove the two paths are one: on ragged K (``k % 8 != 0``),
with and without the dense-weight fallback, at every A-DBB density and
with activations both already compliant and over the bound,

- ``cycles`` and every :class:`EventCounts` field are identical whether
  or not ``output`` was read;
- ``output`` is ``dense_gemm`` of the DAP-pruned operands;
- for each of the 8 accelerator models of the cross-validation contract,
  ``simulate_layer_functional`` equals a run whose output is forced
  (on INT8 operands, so the forced output is checked on real values),
  and the payload on the synthesized ``bool`` patterns equals the one
  on INT8 values placed on those patterns.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    SCNN,
    S2TAAW,
    S2TAW,
    DenseSA,
    EyerissV2,
    SmtSA,
    SparTen,
    ZvcgSA,
)
from repro.arch.eyeriss import EyerissV2Engine
from repro.arch.scnn import SCNNEngine
from repro.arch.sparten import SparTenEngine
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec
from repro.core.gemm import dense_gemm
from repro.core.sparsity import GemmOperands
from repro.models.specs import LayerKind, LayerSpec
from repro.workloads.from_spec import (
    spec_int8_operands,
    synthesize_operands,
)

SPEC = DBBSpec(8, 4)

SYSTOLIC = {
    Mode.DENSE: SystolicConfig(rows=2, cols=3, mode=Mode.DENSE),
    Mode.ZVCG: SystolicConfig(rows=2, cols=3, mode=Mode.ZVCG),
    Mode.WDBB: SystolicConfig(rows=2, cols=2, mode=Mode.WDBB,
                              w_spec=SPEC, tpe_a=2, tpe_c=3),
    Mode.AWDBB: SystolicConfig(rows=2, cols=2, mode=Mode.AWDBB,
                               w_spec=SPEC, a_spec=SPEC, tpe_a=3, tpe_c=2),
}

ENGINES = (SparTenEngine, EyerissV2Engine, SCNNEngine)

_ragged_k = st.integers(1, 45).filter(lambda k: k % 8)


@st.composite
def _operands(draw):
    """Ragged int8 ``(a, w, w_compliant, a_nnz)``: ``w`` unpruned,
    ``w_compliant`` pruned to 4/8 along K, and ``a`` either already
    ``a_nnz``-compliant or drawn dense enough to exceed it."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 9))
    k = draw(_ragged_k)
    n = draw(st.integers(1, 9))
    a_nnz = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(m, k)).astype(np.int8)
    a[rng.random((m, k)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    if draw(st.booleans()):
        a = dap_prune(a, SPEC, nnz=a_nnz).pruned
    w = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
    w[rng.random((k, n)) < 0.2] = 0
    w_compliant = np.ascontiguousarray(dap_prune(w.T, SPEC).pruned.T)
    return a, w, w_compliant, a_nnz


def _assert_output_read_changes_no_count(run):
    """Two runs of the same GEMM: one never reads ``output``, the other
    reads it (twice); counts agree before and after the read."""
    unread = run()
    read = run()
    before = copy.deepcopy(read.events), read.cycles
    out = read.output
    assert read.output is out  # computed once
    assert (read.events, read.cycles) == before
    assert (unread.events, unread.cycles) == before
    return out


@settings(max_examples=60, deadline=None)
@given(case=_operands(), mode=st.sampled_from(list(Mode)),
       w_dense=st.booleans())
def test_systolic_counts_do_not_depend_on_output(case, mode, w_dense):
    a, w_raw, w_ok, a_nnz = case
    sim = SystolicArray(SYSTOLIC[mode])
    kwargs = {}
    if mode in (Mode.WDBB, Mode.AWDBB):
        kwargs["w_dense"] = w_dense
    if mode is Mode.AWDBB:
        kwargs["a_nnz"] = a_nnz
    w = w_raw if w_dense or mode in (Mode.DENSE, Mode.ZVCG) else w_ok
    out = _assert_output_read_changes_no_count(
        lambda: sim.run_gemm(a, w, **kwargs))
    a_exec = a
    if mode is Mode.AWDBB and a_nnz < SPEC.block_size:
        a_exec = dap_prune(a, SPEC, nnz=a_nnz).pruned
    assert out.dtype == np.int64
    assert np.array_equal(out, dense_gemm(a_exec, w))


@settings(max_examples=30, deadline=None)
@given(case=_operands(), engine=st.sampled_from(ENGINES))
def test_engine_counts_do_not_depend_on_output(case, engine):
    a, w, _, _ = case
    sim = engine()
    out = _assert_output_read_changes_no_count(lambda: sim.run_gemm(a, w))
    assert np.array_equal(out, dense_gemm(a, w))


@settings(max_examples=20, deadline=None)
@given(case=_operands())
def test_wdbb_checks_weights_without_reading_output(case):
    """The W-DBB bound is enforced by ``run_gemm`` itself, not deferred
    to the output read."""
    a, w, w_ok, _ = case
    for mode in (Mode.WDBB, Mode.AWDBB):
        sim = SystolicArray(SYSTOLIC[mode])
        if not np.array_equal(w, w_ok):
            with pytest.raises(ValueError, match="W-DBB bound"):
                sim.run_gemm(a, w)
        sim.run_gemm(a, w_ok)


# --------------------------------------------------------------------- #
# Full-model pipeline: all 8 accelerator models of the xval contract
# --------------------------------------------------------------------- #

ACCELERATORS = {
    "SA": DenseSA,
    "SA-ZVCG": ZvcgSA,
    "SMT-T2Q2": SmtSA,
    "S2TA-W": S2TAW,
    "S2TA-AW": S2TAAW,
    "SparTen": SparTen,
    "Eyeriss-v2": EyerissV2,
    "SCNN": SCNN,
}


@st.composite
def _layers(draw):
    a_nnz = draw(st.integers(1, 8))
    return LayerSpec(
        "ragged", LayerKind.CONV,
        m=draw(st.integers(9, 40)), k=draw(_ragged_k),
        n=draw(st.integers(1, 24)),
        w_nnz=draw(st.sampled_from([2, 4, 8])), a_nnz=a_nnz,
        act_density=draw(st.sampled_from([0.1, 0.3, 0.5])) * a_nnz / 8,
    )


@pytest.mark.parametrize("name", list(ACCELERATORS))
@settings(max_examples=8, deadline=None)
@given(layer=_layers(), seed=st.integers(0, 3))
def test_layer_payload_equals_forced_output_run(name, layer, seed):
    """``simulate_layer_functional`` (output never read) returns the same
    payload as the same call with every GEMM output forced, and the
    forced output is the exact product of the executed operands."""
    events_only = ACCELERATORS[name]()
    forced = ACCELERATORS[name]()
    executed = []

    def run_forced(operands, **kwargs):
        sim = type(forced).run_gemm_functional(forced, operands, **kwargs)
        sim.output
        executed.append((sim, operands.a, operands.w, kwargs))
        return sim

    forced.run_gemm_functional = run_forced
    a, w = spec_int8_operands(replace(layer, m=8), seed=seed)
    payload = events_only.simulate_layer_functional(
        layer, GemmOperands(a, w))
    assert forced.simulate_layer_functional(
        layer, GemmOperands(a, w)) == payload
    (sim, a, w, kwargs), = executed
    assert a.shape == (8, layer.k)
    a_nnz = kwargs.get("a_nnz", SPEC.block_size)
    if a_nnz < SPEC.block_size:
        a = dap_prune(a, SPEC, nnz=a_nnz).pruned
    assert np.array_equal(sim.output, dense_gemm(a, w))


@pytest.mark.parametrize("name", list(ACCELERATORS))
@settings(max_examples=8, deadline=None)
@given(layer=_layers(), seed=st.integers(0, 3))
def test_layer_payload_ignores_operand_values(name, layer, seed):
    """The runner's ``bool`` patterns and INT8 values on exactly those
    patterns give the same payload: no engine reads a value."""
    accel = ACCELERATORS[name]()
    masks = synthesize_operands(layer, seed=seed, max_m=8)
    values = spec_int8_operands(replace(layer, m=8), seed=seed)
    assert masks.a.dtype == masks.w.dtype == bool
    assert accel.simulate_layer_functional(layer, masks) \
        == accel.simulate_layer_functional(layer, GemmOperands(*values))
