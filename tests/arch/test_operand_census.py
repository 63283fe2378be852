"""One shared non-zero census per operand group equals a fresh count
per task.

The layer runner wraps each operand group's synthesized operands in one
:class:`~repro.core.sparsity.GemmOperands` and runs every accelerator of
the group on it, so a count taken by one task is read, not recounted,
by the next. These tests run a whole group of tasks — every systolic
mode (S2TA-AW below, at and beyond ``BZ``, and with dense weights),
SA-SMT and the three fixed-dataflow engines — on one shared census in
a drawn order and assert that each task's cycles and events equal the
same task on a census of its own (``run_gemm(a, w)``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import SmtSA
from repro.arch.eyeriss import EyerissV2Engine
from repro.arch.scnn import SCNNEngine
from repro.arch.sparten import SparTenEngine
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec
from repro.core.sparsity import GemmOperands

SPEC = DBBSpec(8, 4)


def _systolic(mode, **tpe):
    return SystolicArray(SystolicConfig(rows=2, cols=3, mode=mode,
                                        w_spec=SPEC, a_spec=SPEC, **tpe))


DENSE = _systolic(Mode.DENSE)
ZVCG = _systolic(Mode.ZVCG)
WDBB = _systolic(Mode.WDBB, tpe_a=2, tpe_c=3)
AWDBB = _systolic(Mode.AWDBB, tpe_a=3, tpe_c=2)

#: label -> (run on a shared census, run on fresh operands). SA-SMT has
#: no engine of its own: its fresh run is a new census and instance.
TASKS = {
    "SA": (DENSE.run, DENSE.run_gemm),
    "SA-ZVCG": (ZVCG.run, ZVCG.run_gemm),
    "S2TA-W": (WDBB.run, WDBB.run_gemm),
    "S2TA-W dense W": (lambda ops: WDBB.run(ops, w_dense=True),
                       lambda a, w: WDBB.run_gemm(a, w, w_dense=True)),
    "S2TA-AW 2/8": (lambda ops: AWDBB.run(ops, a_nnz=2),
                    lambda a, w: AWDBB.run_gemm(a, w, a_nnz=2)),
    "S2TA-AW 4/8": (AWDBB.run, AWDBB.run_gemm),
    "S2TA-AW 8/8": (lambda ops: AWDBB.run(ops, a_nnz=8),
                    lambda a, w: AWDBB.run_gemm(a, w, a_nnz=8)),
    "S2TA-AW dense W": (
        lambda ops: AWDBB.run(ops, a_nnz=3, w_dense=True),
        lambda a, w: AWDBB.run_gemm(a, w, a_nnz=3, w_dense=True)),
    "SA-SMT": (lambda ops: SmtSA().run_gemm_functional(ops),
               lambda a, w: SmtSA().run_gemm_functional(
                   GemmOperands(a, w))),
    "SparTen": (SparTenEngine().run, SparTenEngine().run_gemm),
    "Eyeriss-v2": (EyerissV2Engine().run, EyerissV2Engine().run_gemm),
    "SCNN": (SCNNEngine().run, SCNNEngine().run_gemm),
}


@st.composite
def _group(draw):
    """Operands ``(a, w)`` of one group: ``w`` 4/8-compliant along K
    (stored transposed, like the synthesized weights, or C-ordered),
    ``a`` compliant at a drawn per-block bound or drawn dense enough to
    make DAP prune; ``bool`` patterns or INT8 values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, 45))
    n = draw(st.integers(1, 12))
    a = rng.integers(-127, 128, size=(m, k)).astype(np.int8)
    a[rng.random((m, k)) < draw(st.sampled_from([0.0, 0.4, 0.8]))] = 0
    a_nnz = draw(st.integers(1, 8))
    if draw(st.booleans()):
        a = dap_prune(a, SPEC, nnz=a_nnz).pruned
    w_t = rng.integers(-127, 128, size=(n, k)).astype(np.int8)
    w_t[rng.random((n, k)) < 0.3] = 0
    w = dap_prune(w_t, SPEC).pruned.T
    if draw(st.booleans()):
        w = np.ascontiguousarray(w)
    if draw(st.booleans()):
        a, w = a != 0, w != 0
    return a, w


def _counts(result):
    return result.cycles, result.events


@settings(max_examples=40, deadline=None)
@given(operands=_group(), order=st.permutations(sorted(TASKS)))
def test_shared_census_equals_fresh_run_per_task(operands, order):
    a, w = operands
    shared = GemmOperands(a, w)
    for label in order:
        on_shared, fresh = TASKS[label]
        assert _counts(on_shared(shared)) == _counts(fresh(a, w)), label


@pytest.mark.parametrize("a_nnz", [1, 2, 3])
def test_dap_prunes_a_noncompliant_activation(a_nnz):
    """An int8 A with blocks above ``a_nnz`` still goes through DAP: the
    executed A and the fired MACs are those of the pruned tensor, and
    the shared census keeps the unpruned counts for the next task."""
    rng = np.random.default_rng(a_nnz)
    a = rng.integers(1, 128, size=(9, 21)).astype(np.int8)
    w = dap_prune(rng.integers(-127, 128, size=(5, 21)).astype(np.int8),
                  SPEC).pruned.T
    ops = GemmOperands(a, w)
    assert ops.a_block_max(SPEC.block_size) > a_nnz
    result = AWDBB.run(ops, a_nnz=a_nnz)
    pruned = dap_prune(a, SPEC, nnz=a_nnz).pruned
    np.testing.assert_array_equal(result.a, pruned)
    assert result.events.mac_ops == int(
        np.count_nonzero(pruned, axis=0) @ np.count_nonzero(w, axis=1))
    assert _counts(result) == _counts(AWDBB.run_gemm(a, w, a_nnz=a_nnz))
    np.testing.assert_array_equal(ops.a_col_nnz,
                                  np.count_nonzero(a, axis=0))
    assert _counts(ZVCG.run(ops)) == _counts(ZVCG.run_gemm(a, w))


def test_compliant_activation_runs_as_is():
    """A compliant A is executed without DAP's copy."""
    rng = np.random.default_rng(0)
    a = dap_prune(rng.integers(-127, 128, size=(6, 16)).astype(np.int8),
                  SPEC, nnz=2).pruned
    w = dap_prune(rng.integers(-127, 128, size=(4, 16)).astype(np.int8),
                  SPEC).pruned.T
    assert AWDBB.run(GemmOperands(a, w), a_nnz=2).a is a


@pytest.mark.parametrize("dtype", [bool, np.int8])
def test_noncompliant_weights_raise_after_census_filled(dtype):
    """Both S2TA modes reject weights above the W-DBB bound on every
    task, even when an SA-ZVCG task already filled the census (and
    after the other S2TA mode raised)."""
    rng = np.random.default_rng(1)
    a = (rng.random((5, 16)) < 0.3).astype(dtype)
    w = np.ones((16, 3), dtype=dtype)
    ops = GemmOperands(a, w)
    ZVCG.run(ops)
    for _ in range(2):
        for run in (WDBB.run, AWDBB.run):
            with pytest.raises(ValueError, match="W-DBB bound"):
                run(ops)
    assert _counts(WDBB.run(ops, w_dense=True)) \
        == _counts(WDBB.run_gemm(a, w, w_dense=True))
