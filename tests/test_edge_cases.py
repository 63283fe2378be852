"""Edge cases across module boundaries.

Non-default block sizes, ragged shapes, extreme densities and degenerate
geometries — the configurations a downstream user will eventually feed
the library that the main reproduction paths never exercise.
"""

import numpy as np
import pytest

from repro.arch.dap_hw import DAPHardware
from repro.arch.smt import SMTArrayModel
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec, compress, decompress
from repro.core.gemm import dense_gemm
from repro.core.pruning import prune_weights_dbb
from repro.core.serialize import pack, unpack
from repro.core.sparsity import random_unstructured


class TestNonDefaultBlockSizes:
    @pytest.mark.parametrize("bz,nnz", [(4, 2), (16, 8), (16, 3), (32, 4)])
    def test_compress_roundtrip(self, bz, nnz):
        spec = DBBSpec(bz, nnz)
        rng = np.random.default_rng(0)
        dense = rng.integers(-127, 128, size=(3, bz * 2)).astype(np.int8)
        pruned = prune_weights_dbb(dense, spec)
        tensor = compress(pruned, spec)
        np.testing.assert_array_equal(decompress(tensor, np.int8), pruned)

    @pytest.mark.parametrize("bz,nnz", [(4, 2), (16, 8)])
    def test_serialize_roundtrip(self, bz, nnz):
        spec = DBBSpec(bz, nnz)
        rng = np.random.default_rng(1)
        dense = prune_weights_dbb(
            rng.integers(-127, 128, size=(2, bz * 3)).astype(np.int8), spec)
        tensor = compress(dense, spec)
        np.testing.assert_array_equal(
            decompress(unpack(pack(tensor)), np.int8), dense)

    def test_dap_hardware_bz16(self):
        hw = DAPHardware(block_size=16, max_stages=10)
        block = np.arange(-8, 8)
        compressed, _, events = hw.prune_block(block, nnz=4)
        assert compressed.nnz == 4
        assert events.dap_compare_ops == 4 * 15
        reference = dap_prune(block[None, :], DBBSpec(16, 4)).pruned[0]
        expanded = np.zeros(16, dtype=np.int64)
        for pos, val in compressed.nonzero_pairs():
            expanded[pos] = val
        np.testing.assert_array_equal(expanded, reference)


class TestDegenerateGemms:
    def test_single_row_single_col(self):
        a = np.array([[1, 2, 3, 4, 5, 6, 7, 8]], dtype=np.int64)
        w = np.ones((8, 1), dtype=np.int64)
        w = prune_weights_dbb(w.T, DBBSpec(8, 4)).T
        sim = SystolicArray(SystolicConfig(rows=2, cols=2, mode=Mode.WDBB,
                                           tpe_a=2, tpe_c=2))
        result = sim.run_gemm(a, w)
        np.testing.assert_array_equal(result.output, dense_gemm(a, w))

    def test_all_zero_activations_awdbb(self):
        a = np.zeros((4, 16), dtype=np.int64)
        rng = np.random.default_rng(2)
        w = prune_weights_dbb(
            rng.integers(-5, 6, size=(8, 16)).astype(np.int64),
            DBBSpec(8, 4)).T
        sim = SystolicArray(SystolicConfig(rows=2, cols=2, mode=Mode.AWDBB,
                                           tpe_a=2, tpe_c=2))
        result = sim.run_gemm(a, w, a_nnz=2)
        np.testing.assert_array_equal(result.output, 0)
        assert result.events.mac_ops == 0

    def test_k_smaller_than_block(self):
        rng = np.random.default_rng(3)
        a = random_unstructured((4, 5), 0.8, rng=rng).astype(np.int64)
        w = rng.integers(-5, 6, size=(5, 4)).astype(np.int64)
        # pad weights' reduction axis to the block, prune, slice back
        wt = np.concatenate([w.T, np.zeros((4, 3), dtype=w.dtype)], axis=1)
        w = prune_weights_dbb(wt, DBBSpec(8, 4))[:, :5].T
        sim = SystolicArray(SystolicConfig(rows=2, cols=2, mode=Mode.WDBB,
                                           tpe_a=2, tpe_c=2))
        result = sim.run_gemm(a, w)
        np.testing.assert_array_equal(result.output, dense_gemm(a, w))

    def test_one_by_one_scalar_array(self):
        a = np.array([[3, -2]], dtype=np.int64)
        w = np.array([[1], [4]], dtype=np.int64)
        sim = SystolicArray(SystolicConfig(rows=1, cols=1, mode=Mode.ZVCG))
        result = sim.run_gemm(a, w)
        assert result.output[0, 0] == 3 - 8


class TestExtremeDensities:
    def test_dap_on_all_equal_values(self):
        # All-equal magnitudes: hardware tie-break keeps lowest indices.
        spec = DBBSpec(8, 3)
        x = np.full((1, 8), 7, dtype=np.int8)
        pruned = dap_prune(x, spec).pruned
        np.testing.assert_array_equal(pruned[0], [7, 7, 7, 0, 0, 0, 0, 0])

    def test_smt_with_zero_density(self):
        model = SMTArrayModel(threads=2, fifo_depth=2, pes=8)
        result = model.simulate(0.0, 0.0, 128,
                                rng=np.random.default_rng(0))
        assert result.events.mac_ops == 0
        assert result.speedup > 1.5  # nothing to do: full T2 throughput

    def test_four_thread_smt(self):
        model = SMTArrayModel(threads=4, fifo_depth=4, pes=8)
        result = model.simulate(0.3, 0.3, 512,
                                rng=np.random.default_rng(1))
        assert 1.0 < result.speedup <= 4.0


class TestAcceleratorEdges:
    def test_tiny_layer_on_big_array(self):
        # One output pixel on a 2048-MAC array: padding dominates, but
        # events stay consistent.
        from repro.accel import S2TAAW, ZvcgSA
        from repro.models.specs import LayerKind, LayerSpec

        layer = LayerSpec("tiny", LayerKind.CONV, m=1, k=8, n=1,
                          w_nnz=4, a_nnz=2)
        for accel in (ZvcgSA(), S2TAAW()):
            result = accel.run_layer(layer)
            assert result.cycles > 0
            assert result.events.mac_ops <= result.events.total_mac_slots

    def test_microbench_density_extremes(self):
        from repro.accel import S2TAAW

        aw = S2TAAW()
        low = aw.microbench_layer(0.125, 0.125, w_nnz=1, a_nnz=1)
        high = aw.microbench_layer(1.0, 1.0, w_nnz=8, a_nnz=8)
        assert low.energy_pj < high.energy_pj
        assert low.cycles < high.cycles

    def test_design_point_scalar_geometry(self):
        from repro.design import DesignPoint, generate_structure

        scalar = DesignPoint(tpe_a=1, tpe_c=1, rows=32, cols=64)
        text = generate_structure(scalar)
        assert "2048x tpe" in text
