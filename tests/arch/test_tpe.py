"""Tests for the explicit Tensor PE unit (Fig. 7)."""

import numpy as np
import pytest

from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.arch.tpe import TensorPE
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec, compress_block
from repro.core.pruning import prune_weights_dbb
from repro.core.sparsity import random_unstructured


def _blocks(seed, count, nnz=None, spec=DBBSpec(8, 4), compressed=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dense = rng.integers(-127, 128, size=8).astype(np.int64)
        if nnz is not None:
            dense = dap_prune(dense[None, :], spec.with_nnz(nnz)).pruned[0]
        out.append(compress_block(dense, spec.with_nnz(nnz or spec.max_nnz))
                   if compressed else dense)
    return out


def _w_blocks(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dense = rng.integers(-127, 128, size=8).astype(np.int64)
        dense = prune_weights_dbb(dense[None, :], DBBSpec(8, 4))[0]
        out.append(compress_block(dense, DBBSpec(8, 4)))
    return out


class TestTimeUnrolledTPE:
    def test_outer_product_psums(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2, time_unrolled=True)
        a_blocks = _blocks(0, 2, nnz=3)
        w_blocks = _w_blocks(1, 2)
        result = tpe.step(a_blocks, w_blocks)
        for i in range(2):
            for j in range(2):
                expected = int(np.dot(a_blocks[i].expand().astype(np.int64),
                                      w_blocks[j].expand().astype(np.int64)))
                assert result.psums[i, j] == expected

    def test_cycles_are_a_nnz(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2)
        for nnz in (1, 3, 5):
            a_blocks = _blocks(2, 2, nnz=nnz)
            result = tpe.step(a_blocks, _w_blocks(3, 2))
            assert result.cycles == nnz

    def test_mac_and_dp_counts(self):
        tpe = TensorPE(tpe_a=8, tpe_c=4)
        assert tpe.dp_units == 32
        assert tpe.macs == 32

    def test_acc_updates_every_cycle_per_unit(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2)
        a_blocks = _blocks(4, 2, nnz=4)
        result = tpe.step(a_blocks, _w_blocks(5, 2))
        assert result.events.acc_reg_ops == 4 * result.cycles

    def test_operand_count_validation(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2)
        with pytest.raises(ValueError):
            tpe.step(_blocks(6, 1, nnz=2), _w_blocks(7, 2))
        with pytest.raises(ValueError):
            tpe.step(_blocks(8, 2, nnz=2), _w_blocks(9, 3))


class TestDotProductTPE:
    def test_psums_match_dense(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2, time_unrolled=False)
        a_blocks = _blocks(10, 2, compressed=False)
        w_blocks = _w_blocks(11, 2)
        result = tpe.step(a_blocks, w_blocks)
        for i in range(2):
            for j in range(2):
                expected = int(np.dot(np.asarray(a_blocks[i]),
                                      w_blocks[j].expand().astype(np.int64)))
                assert result.psums[i, j] == expected

    def test_single_cycle_per_block(self):
        tpe = TensorPE(tpe_a=2, tpe_c=2, time_unrolled=False)
        result = tpe.step(_blocks(12, 2, compressed=False), _w_blocks(13, 2))
        assert result.cycles == 1

    def test_macs_count_dp4(self):
        tpe = TensorPE(tpe_a=4, tpe_c=4, time_unrolled=False)
        assert tpe.macs == 64  # 16 DP4M8 units x 4 MACs

    def test_validation(self):
        with pytest.raises(ValueError):
            TensorPE(tpe_a=0, tpe_c=1)

    def test_repr(self):
        assert "dot-product" in repr(TensorPE(2, 2, time_unrolled=False))
        assert "time-unrolled" in repr(TensorPE(2, 2))


class TestMatchesSystolicArray:
    """A one-TPE array (``rows = cols = 1``) on a one-block GEMM (K = BZ
    = 8) is a single exchange of the TPE: ``TensorPE.step`` gives the
    array's output, cycles and fired MACs."""

    @pytest.mark.parametrize("time_unrolled", [True, False],
                             ids=["awdbb", "wdbb"])
    def test_single_tile_psums_cycles_and_macs(self, time_unrolled):
        w_spec = DBBSpec(8, 4)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            tpe_a, tpe_c, a_nnz = (int(v) for v in rng.integers(1, 5, 3))
            a = random_unstructured((tpe_a, 8), rng.uniform(0.3, 1.0),
                                    rng=rng)
            w = prune_weights_dbb(
                random_unstructured((tpe_c, 8), 1.0, rng=rng), w_spec).T
            w_blocks = [compress_block(col, w_spec) for col in w.T]
            if time_unrolled:
                a_spec = DBBSpec(8, a_nnz)
                a_blocks = [compress_block(row, a_spec)
                            for row in dap_prune(a, a_spec).pruned]
                mode = Mode.AWDBB
            else:
                a_blocks, a_nnz, mode = list(a), None, Mode.WDBB
            array = SystolicArray(SystolicConfig(
                rows=1, cols=1, mode=mode, w_spec=w_spec,
                tpe_a=tpe_a, tpe_c=tpe_c))
            run = array.run_gemm(a, w, a_nnz=a_nnz)
            step = TensorPE(tpe_a, tpe_c, time_unrolled).step(
                a_blocks, w_blocks)
            np.testing.assert_array_equal(step.psums, run.output,
                                          err_msg=f"seed {seed}")
            assert step.cycles == run.cycles, seed
            assert step.events.mac_ops == run.events.mac_ops, seed
