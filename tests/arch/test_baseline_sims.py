"""Property suite for the fixed-dataflow functional simulators.

Mirrors the ragged-geometry suite of ``tests/test_cross_validation.py``
for the three baseline engines (SparTen bitmask inner-join, Eyeriss v2
CSC row-stationary mesh, SCNN Cartesian product): ragged M/K/N shapes,
all-zero and fully-dense operands, and density sweeps — asserting the
SRAM-byte counters agree *bit-for-bit* with the analytic models at
measured densities, fired MACs agree statistically, and the output
matrix is the exact GEMM product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import SCNN, EyerissV2, SparTen
from repro.arch.eyeriss import EyerissV2Config, EyerissV2Engine
from repro.arch.scnn import SCNNConfig, SCNNEngine
from repro.arch.sparten import SparTenConfig, SparTenEngine, greedy_lpt_loads
from repro.core.sparsity import density
from repro.models.specs import LayerKind, LayerSpec
from repro.workloads.from_spec import spec_int8_operands

ENGINES = {
    "SparTen": (SparTenEngine, SparTen),
    "Eyeriss-v2": (EyerissV2Engine, EyerissV2),
    "SCNN": (SCNNEngine, SCNN),
}


def _case(m, k, n, w_nnz, a_nnz, a_density, seed):
    """INT8 operands synthesized from a spec (the output checks read
    values) + analytic layer at the *measured* densities (the closed
    forms then count the same stored non-zeros the engines measure)."""
    layer = LayerSpec(
        "ragged", LayerKind.CONV, m=m, k=k, n=n,
        w_nnz=w_nnz, a_nnz=a_nnz,
        act_density=min(a_density, a_nnz / 8.0),
    )
    a, w = spec_int8_operands(layer, seed=seed)
    measured = LayerSpec(
        "ragged", LayerKind.CONV, m=m, k=k, n=n,
        w_nnz=w_nnz, a_nnz=a_nnz,
        weight_density=density(w), act_density=density(a),
    )
    return a, w, measured


#: m/k/n deliberately not multiples of the PE counts, mesh dims or BZ=8.
_ragged_dims = st.tuples(
    st.integers(1, 37), st.integers(1, 67), st.integers(1, 37),
)


class TestRaggedAgreement:
    """Engine events vs analytic ``_layer_events`` at measured densities."""

    @staticmethod
    def _assert_agreement(name, a, w, layer):
        engine_cls, accel_cls = ENGINES[name]
        accel = accel_cls()
        result = engine_cls(accel.functional_sim_config()).run_gemm(a, w)
        _, ana = accel._layer_events(layer)
        sim = result.events
        # Stored-byte counters are closed-form over the measured nnz:
        # bit-equal, including ragged shapes and the metadata floors.
        assert ana.sram_a_read_bytes == sim.sram_a_read_bytes
        assert ana.sram_w_read_bytes == sim.sram_w_read_bytes
        assert ana.sram_a_write_bytes == sim.sram_a_write_bytes
        assert ana.mcu_elementwise_ops == sim.mcu_elementwise_ops
        # Per-pair machinery scales with fired pairs in both tiers.
        assert ana.gather_ops == pytest.approx(sim.gather_ops,
                                               rel=0.25, abs=500)
        assert ana.scatter_acc_ops == pytest.approx(sim.scatter_acc_ops,
                                                    rel=0.25, abs=500)
        # The density product is an unbiased fired-MAC estimate.
        assert ana.mac_ops == pytest.approx(sim.mac_ops, rel=0.25, abs=150)
        # The engine computes the exact product.
        np.testing.assert_array_equal(
            result.output, a.astype(np.int64) @ w.astype(np.int64))

    @given(_ragged_dims, st.integers(1, 8), st.floats(0.2, 0.9),
           st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_sparten(self, dims, a_nnz, a_density, seed):
        m, k, n = dims
        a, w, layer = _case(m, k, n, 4, a_nnz, a_density, seed)
        self._assert_agreement("SparTen", a, w, layer)

    @given(_ragged_dims, st.integers(1, 8), st.floats(0.2, 0.9),
           st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_eyeriss(self, dims, a_nnz, a_density, seed):
        m, k, n = dims
        a, w, layer = _case(m, k, n, 4, a_nnz, a_density, seed)
        self._assert_agreement("Eyeriss-v2", a, w, layer)

    @given(_ragged_dims, st.integers(1, 8), st.floats(0.2, 0.9),
           st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_scnn(self, dims, a_nnz, a_density, seed):
        m, k, n = dims
        a, w, layer = _case(m, k, n, 4, a_nnz, a_density, seed)
        self._assert_agreement("SCNN", a, w, layer)

    @given(st.sampled_from(sorted(ENGINES)), st.floats(0.1, 1.0),
           st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_density_sweep_at_fixed_shape(self, name, a_density, seed):
        a, w, layer = _case(24, 40, 24, 4, 8, a_density, seed)
        self._assert_agreement(name, a, w, layer)


class TestDegenerateOperands:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_all_zero_activations(self, name):
        engine_cls, accel_cls = ENGINES[name]
        a = np.zeros((16, 32), dtype=np.int8)
        w = np.ones((32, 8), dtype=np.int8)
        r = engine_cls(accel_cls().functional_sim_config()).run_gemm(a, w)
        assert r.events.mac_ops == 0
        assert r.events.gather_ops == 0
        assert r.events.scatter_acc_ops == 0
        assert np.count_nonzero(r.output) == 0
        # Bitmask/coordinate sideband still streams for the zero tensor.
        if name == "SCNN":
            assert r.events.sram_a_read_bytes == 0  # CSR: nothing stored
        else:
            assert r.events.sram_a_read_bytes > 0   # occupancy masks

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_fully_dense_operands(self, name):
        engine_cls, accel_cls = ENGINES[name]
        rng = np.random.default_rng(7)
        a = rng.integers(1, 100, size=(24, 32), dtype=np.int64)
        w = rng.integers(1, 100, size=(32, 16), dtype=np.int64)
        r = engine_cls(accel_cls().functional_sim_config()).run_gemm(a, w)
        # Every (M, K, N) triple is a matched pair on dense data.
        assert r.events.mac_ops == 24 * 32 * 16
        np.testing.assert_array_equal(r.output, a @ w)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_shape_mismatch_rejected(self, name):
        engine_cls, accel_cls = ENGINES[name]
        engine = engine_cls(accel_cls().functional_sim_config())
        with pytest.raises(ValueError):
            engine.run_gemm(np.ones((4, 5)), np.ones((6, 4)))


class TestSparTenScheduling:
    def test_lpt_known_case(self):
        """Jobs 5,4,3,3 on 2 workers -> loads {8, 7} (LPT optimum)."""
        loads = greedy_lpt_loads(np.array([3, 5, 4, 3]), 2)
        assert sorted(loads.tolist()) == [7, 8]

    def test_lpt_conserves_work_and_idles_spare_workers(self):
        loads = greedy_lpt_loads(np.array([9, 1]), 4)
        assert loads.sum() == 10
        assert (loads == 0).sum() == 2

    def test_balanced_filters_give_balanced_pes(self):
        a, w, _ = _case(64, 64, 128, 4, 8, 0.5, seed=3)
        r = SparTenEngine().run_gemm(a, w)
        assert r.load_balance > 0.9

    def test_cycles_divide_by_pipeline_utilization(self):
        a, w, _ = _case(32, 40, 64, 4, 8, 0.5, seed=5)
        lo = SparTenEngine(SparTenConfig(pipeline_utilization=0.5)
                           ).run_gemm(a, w)
        hi = SparTenEngine(SparTenConfig(pipeline_utilization=1.0)
                           ).run_gemm(a, w)
        assert lo.cycles == pytest.approx(2 * hi.cycles, abs=2)
        # Same datapath work either way.
        assert lo.events.mac_ops == hi.events.mac_ops

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SparTenConfig(pes=0)
        with pytest.raises(ValueError):
            SparTenConfig(pipeline_utilization=0.0)
        with pytest.raises(ValueError):
            SparTenConfig(pass_cap=0)


class TestEyerissMesh:
    def test_mesh_dims_give_published_mac_count(self):
        assert EyerissV2Config().hardware_macs == 384

    def test_fc_row_still_occupies_whole_mesh(self):
        """m=1 (FC): the channel-group rotation keeps every PE of a
        cluster busy instead of collapsing onto one PE per cluster."""
        a, w, _ = _case(1, 64, 384, 4, 8, 0.8, seed=11)
        r = EyerissV2Engine().run_gemm(a, w)
        assert r.mesh_occupancy > 0.5
        busy = (r.pe_loads > 0).sum()
        assert busy > EyerissV2Config().pes_per_cluster  # beyond 1 cluster

    def test_occupancy_balanced_on_large_conv(self):
        a, w, _ = _case(96, 64, 64, 4, 8, 0.5, seed=13)
        r = EyerissV2Engine().run_gemm(a, w)
        assert r.mesh_occupancy > 0.8

    def test_noc_events_scale_with_fired(self):
        a, w, _ = _case(16, 32, 16, 4, 8, 0.5, seed=17)
        r = EyerissV2Engine().run_gemm(a, w)
        cfg = EyerissV2Config()
        assert r.events.operand_reg_ops == (
            r.events.mac_ops * 2 * cfg.noc_hops_per_operand)
        assert r.events.acc_reg_ops == r.events.mac_ops * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EyerissV2Config(clusters=0)
        with pytest.raises(ValueError):
            EyerissV2Config(pipeline_utilization=1.5)


class TestSCNNFragmentation:
    def test_dense_large_tile_utilization_is_high(self):
        """Plenty of rows per PE: the 4x4 array quantizes away."""
        rng = np.random.default_rng(3)
        a = rng.integers(1, 100, size=(512, 64), dtype=np.int64)
        w = rng.integers(1, 100, size=(64, 64), dtype=np.int64)
        r = SCNNEngine().run_gemm(a, w)
        assert r.multiplier_utilization > 0.9

    def test_small_feature_map_fragmentation_emerges(self):
        """Few pixels per PE: ceil-quantized issue slots collapse the
        measured utilization — SCNN's published weakness, which the
        analytic flat-utilization model cannot represent."""
        a, w, _ = _case(80, 96, 64, 4, 8, 0.3, seed=23)
        r = SCNNEngine().run_gemm(a, w)
        assert r.multiplier_utilization < 0.45

    def test_single_row_uses_one_pe(self):
        a, w, _ = _case(1, 64, 64, 4, 8, 0.5, seed=29)
        r = SCNNEngine().run_gemm(a, w)
        assert (r.pe_issue_slots > 0).sum() == 1

    def test_scatter_events_per_product(self):
        a, w, _ = _case(16, 32, 16, 4, 8, 0.5, seed=31)
        r = SCNNEngine().run_gemm(a, w)
        cfg = SCNNConfig()
        assert r.events.scatter_acc_ops == (
            r.events.mac_ops * cfg.scatter_ops_per_product)
        assert r.events.gather_ops == 0  # outer product: no gather

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SCNNConfig(mults_i=0)
        with pytest.raises(ValueError):
            SCNNConfig(scatter_ops_per_product=-1)
