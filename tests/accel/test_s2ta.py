"""Tests for S2TA-W and S2TA-AW models (Fig. 9c/d, Table 2/4 anchors)."""

import pytest

from repro.accel import S2TAAW, S2TAW, ZvcgSA
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec
from repro.workloads.typical import typical_conv_layer


class TestS2TAW:
    def test_design_point(self):
        w = S2TAW()
        assert w.hardware_macs == 2048
        assert (w.rows, w.cols, w.tpe_a, w.tpe_c) == (4, 8, 4, 4)

    def test_fixed_2x_speedup(self):
        """Fig. 9c: 2x step once weights are pruned to 4/8."""
        layer = typical_conv_layer(0.5, 0.5)
        zvcg = ZvcgSA().run_layer(layer)
        w = S2TAW().run_layer(layer)
        assert zvcg.cycles / w.cycles == pytest.approx(2.0, abs=0.1)

    def test_speedup_capped_at_2x(self):
        """Extra weight sparsity beyond 4/8 gives no more speedup."""
        s2taw = S2TAW()
        c50 = s2taw.microbench_layer(0.5, 0.5).cycles
        c875 = s2taw.microbench_layer(0.125, 0.5).cycles
        assert c50 == c875

    def test_dense_fallback_matches_sa_throughput(self):
        """Unpruned layers (w_nnz=8) run at dense-SA speed (2 passes)."""
        layer = LayerSpec("first", LayerKind.CONV, m=1024, k=1152, n=256,
                          w_nnz=8, a_nnz=8, weight_density=0.95,
                          act_density=1.0)
        zvcg = ZvcgSA().run_layer(layer)
        w = S2TAW().run_layer(layer)
        assert w.cycles == pytest.approx(zvcg.cycles, rel=0.1)

    def test_weight_bandwidth_reduced_37_5_percent(self):
        """Sec. 4: 4/8 W-DBB cuts weight operand bandwidth by 37.5%
        (4 values + 1 mask byte instead of 8 bytes per block)."""
        layer = typical_conv_layer(0.5, 0.5)
        w = S2TAW()
        compressed = w._weight_stream_bytes(layer)
        dense = layer.weight_bytes
        assert compressed / dense == pytest.approx(5 / 8, rel=0.01)

    def test_energy_below_zvcg(self):
        layer = typical_conv_layer(0.5, 0.5)
        assert (S2TAW().run_layer(layer).energy_pj
                < ZvcgSA().run_layer(layer).energy_pj)


class TestS2TAAW:
    def test_design_point(self):
        aw = S2TAAW()
        assert aw.hardware_macs == 2048
        assert (aw.rows, aw.cols, aw.tpe_a, aw.tpe_c) == (8, 8, 8, 4)
        assert aw.has_dap

    @pytest.mark.parametrize("a_nnz,expected", [
        (8, 1.0), (6, 8 / 6), (4, 2.0), (3, 8 / 3), (2, 4.0), (1, 8.0),
    ])
    def test_fig9d_speedup_is_bz_over_nnz(self, a_nnz, expected):
        """Fig. 9d: speedup 1x..8x tracks activation DBB density."""
        aw = S2TAAW()
        dense = aw.microbench_layer(0.5, 1.0, a_nnz=8)
        sparse = aw.microbench_layer(0.5, a_nnz / 8, a_nnz=a_nnz)
        assert dense.cycles / sparse.cycles == pytest.approx(expected, rel=0.02)

    def test_energy_scales_with_activation_sparsity(self):
        """Fig. 9d: energy falls as activation DBB sparsity rises."""
        aw = S2TAAW()
        energies = [
            aw.microbench_layer(0.5, nnz / 8, a_nnz=nnz).energy_pj
            for nnz in (8, 6, 4, 2, 1)
        ]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        # Large total swing (paper: up to 9.1x vs ZVCG at the extreme).
        assert energies[0] / energies[-1] > 3.0

    def test_up_to_9x_energy_vs_zvcg(self):
        """Fig. 9d: up to ~9.1x energy reduction vs SA-ZVCG."""
        zvcg = ZvcgSA().microbench_layer(0.5, 1.0)
        aw = S2TAAW().microbench_layer(0.2, 0.125, w_nnz=2, a_nnz=1)
        assert zvcg.energy_pj / aw.energy_pj > 5.0

    def test_sram_reduction_vs_s2taw(self):
        """Fig. 10: ~3.1x SRAM energy reduction vs S2TA-W (compressed
        activations + better reuse)."""
        layer = typical_conv_layer(0.5, 0.375)
        w = S2TAW().run_layer(layer)
        aw = S2TAAW().run_layer(layer)
        sram_ratio = w.breakdown.sram / aw.breakdown.sram
        assert sram_ratio == pytest.approx(3.1, abs=1.0)

    def test_dap_energy_small_but_present(self):
        """Table 2: DAP is ~2% of total power."""
        result = S2TAAW().run_layer(typical_conv_layer(0.5, 0.375))
        frac = result.breakdown.fractions()["dap"]
        assert 0.002 < frac < 0.06

    def test_dap_bypassed_on_dense_layers(self):
        result = S2TAAW().run_layer(typical_conv_layer(0.5, 1.0))
        assert result.events.dap_compare_ops == 0

    def test_table2_component_shape(self):
        """Table 2 (dense act, 4/8 weights): MAC+buffers dominate power,
        AB > WB, MCU ~9%, DAP small."""
        result = S2TAAW().run_layer(typical_conv_layer(0.5, 1.0))
        b = result.breakdown
        assert b.datapath + b.buffers > b.sram
        assert b.actfn / b.total_pj == pytest.approx(0.093, abs=0.06)

    def test_memory_bound_fc_no_speedup(self):
        """Sec. 8.3: FC layers are memory bound on every SA variant."""
        fc = LayerSpec("fc", LayerKind.FC, m=1, k=4096, n=4096,
                       w_nnz=4, a_nnz=2, act_density=0.2)
        zvcg = ZvcgSA().run_layer(fc)
        aw = S2TAAW().run_layer(fc)
        assert aw.memory_bound and zvcg.memory_bound
        # compressed weights stream faster, but nowhere near 8/a_nnz
        assert zvcg.cycles / aw.cycles < 2.0


class TestCrossAccelerator:
    def test_energy_ordering_at_typical_conv(self):
        """Fig. 10 ordering: AW < W < ZVCG < SMT."""
        from repro.accel import SmtSA

        layer = typical_conv_layer(0.5, 0.375)
        e = {
            "aw": S2TAAW().run_layer(layer).energy_pj,
            "w": S2TAW().run_layer(layer).energy_pj,
            "zvcg": ZvcgSA().run_layer(layer).energy_pj,
            "smt": SmtSA().run_layer(layer).energy_pj,
        }
        assert e["aw"] < e["w"] < e["zvcg"] < e["smt"]

    def test_table1_buffer_bytes_ordering(self):
        from repro.accel import EyerissV2, SmtSA, SparTen

        assert (S2TAW.buffer_bytes_per_mac
                < S2TAAW.buffer_bytes_per_mac
                < 6.0  # scalar SA
                < SmtSA.buffer_bytes_per_mac
                < EyerissV2.buffer_bytes_per_mac
                < SparTen.buffer_bytes_per_mac)


class TestScalarTierStaysOnBuiltins:
    """The S2TA closed forms also run on the DSE pass's numpy columns;
    on one layer of Python ints they must stay on Python ints. A numpy
    scalar leaking out would slow analytic Fig. 11 and break
    ``json.dumps`` of the counts."""

    @pytest.mark.parametrize("accel_cls", [S2TAW, S2TAAW])
    def test_analytic_fig11_layers_count_in_ints(self, accel_cls):
        from repro.eval.experiments import FULL_MODELS
        from repro.models import get_spec

        accel = accel_cls()
        layers = [layer for name in FULL_MODELS
                  for layer in get_spec(name).conv_layers]
        assert layers
        for layer in layers:
            result = accel.run_layer(layer)
            memory = result.memory
            counts = [result.compute_cycles, *result.events.as_dict().values(),
                      memory.weight_bytes, memory.weight_meta_bytes,
                      memory.act_bytes, memory.act_meta_bytes,
                      memory.out_bytes]
            assert all(type(count) is int for count in counts), layer.name
