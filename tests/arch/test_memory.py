"""Tests for the memory-hierarchy subsystem (DRAM + staging SRAM)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory import (
    DRAMConfig,
    LayerTraffic,
    MemorySystem,
    OperandStream,
    SRAMStaging,
    window_duplication,
    _overlapped_cycles,
    _split_even,
    _tile_dma_bytes,
)
from repro.models.specs import LayerKind, LayerSpec


def _traffic(w=1000, w_meta=0, a=500, a_meta=0, out=100,
             tiles_m=4, tiles_n=2):
    return LayerTraffic(
        weights=OperandStream(w, w_meta, passes=tiles_m),
        acts=OperandStream(a, a_meta, passes=tiles_n),
        out_bytes=out,
        tiles_m=tiles_m,
        tiles_n=tiles_n,
    )


class TestDRAMConfig:
    def test_defaults_reproduce_legacy_dma(self):
        """32 B/cycle, streaming-only cap: the legacy flat DMA model is
        the default channel's special case."""
        dram = DRAMConfig()
        assert dram.bytes_per_cycle == 32.0
        assert dram.cap_streaming_only

    def test_from_bandwidth_converts_at_clock(self):
        dram = DRAMConfig.from_bandwidth(16.0, clock_ghz=0.5)
        assert dram.bytes_per_cycle == 32.0
        # explicit bandwidth = sweeping the wall -> honest cap everywhere
        assert not dram.cap_streaming_only
        assert DRAMConfig.from_bandwidth(
            8.0, cap_streaming_only=True).cap_streaming_only

    def test_bus_bytes_burst_rounding(self):
        """At one byte per cycle the bus time is the bus bytes."""
        dram = DRAMConfig(bytes_per_cycle=1.0, burst_bytes=32)
        assert dram.transfer_cycles_array(
            np.array([0, 1, 64, 65])).tolist() == [0, 32, 64, 96]
        assert dram._stream_time(0, 1) == 0.0
        # per-stream rounding: 2 streams of 33 bytes -> 2 x 64
        assert dram._stream_time(66, 2) == 128.0

    @given(logical_bytes=st.integers(1, 2**48), streams=st.integers(1, 64),
           dram=st.one_of(
               st.just(DRAMConfig()),
               st.builds(DRAMConfig.from_bandwidth,
                         st.floats(0.1, 512.0), st.floats(0.2, 3.0),
                         burst_bytes=st.sampled_from([1, 16, 32, 64])),
               st.builds(DRAMConfig,
                         bytes_per_cycle=st.sampled_from([3.3, 12.8, 1e-3]))))
    @settings(max_examples=400, deadline=None)
    def test_scalar_transfer_cycles_equals_array(self, logical_bytes,
                                                 streams, dram):
        """The scalar price runs on Python floats, the timeline walker's
        on float64 arrays; they agree bit for bit."""
        per_stream = -(-logical_bytes // streams)
        got = dram._stream_time(logical_bytes, streams)
        want = streams * float(dram.transfer_cycles_array(per_stream))
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMConfig(burst_bytes=0)
        with pytest.raises(ValueError):
            DRAMConfig.from_bandwidth(-4.0)

    @pytest.mark.parametrize("bytes_per_cycle",
                             [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_bytes_per_cycle(self, bytes_per_cycle):
        with pytest.raises(ValueError, match="must be finite and positive"):
            DRAMConfig(bytes_per_cycle=bytes_per_cycle)

    @pytest.mark.parametrize("gbps", [math.nan, math.inf, -math.inf])
    def test_from_bandwidth_rejects_non_finite(self, gbps):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            DRAMConfig.from_bandwidth(gbps)

    def test_bandwidth_roundtrip(self):
        dram = DRAMConfig.from_bandwidth(25.6, clock_ghz=0.8)
        assert dram.bytes_per_cycle * 0.8 == pytest.approx(25.6)


class TestSRAMStaging:
    def test_double_buffering_halves_capacity(self):
        sram = SRAMStaging(wb_bytes=512 * 1024, ab_bytes=2 * 1024 * 1024)
        assert sram.usable_wb == 256 * 1024
        assert sram.usable_ab == 1024 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            SRAMStaging(wb_bytes=0)


class TestOperandStream:
    def test_stored_bytes(self):
        assert OperandStream(100, 20).stored_bytes == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            OperandStream(-1)
        with pytest.raises(ValueError):
            OperandStream(1, passes=0)
        with pytest.raises(ValueError):
            LayerTraffic(OperandStream(1), OperandStream(1), out_bytes=-1)


class TestSplitAndWalk:
    def test_split_even_sums_exactly(self):
        out = _split_even(10, 3)
        assert out.sum() == 10
        assert out.max() - out.min() <= 1

    def test_tile_read_bytes_conserved(self):
        """The walker distributes exactly the class totals over tiles."""
        traffic = _traffic(w=999, a=517, out=101, tiles_m=3, tiles_n=4)
        for w_once in (True, False):
            for a_once in (True, False):
                reads, writes = _tile_dma_bytes(
                    traffic, 999, 517, w_once, a_once)
                assert len(reads) == 12
                assert reads.sum() == pytest.approx(999 + 517)
                assert writes.sum() == pytest.approx(101)

    def test_resident_weights_fetch_at_pass_starts(self):
        traffic = _traffic(w=800, a=0, out=0, tiles_m=4, tiles_n=2)
        reads, _ = _tile_dma_bytes(traffic, 800, 0,
                                   weights_once=True, acts_once=True)
        # strips land at schedule indices 0 and tiles_m
        assert reads[0] == 400 and reads[4] == 400
        assert reads[1:4].sum() == 0 and reads[5:].sum() == 0

    def test_overlap_exposes_first_fill_only(self):
        """With DMA far below compute, total = compute + first fill."""
        dram = DRAMConfig(bytes_per_cycle=32, burst_bytes=1)
        reads = np.array([320.0, 320.0, 320.0, 320.0])
        writes = np.zeros(4)
        total = _overlapped_cycles(dram, reads, writes, compute_cycles=4000)
        assert total == 4000 + 10  # 320 B / 32 B-per-cycle = 10 cycles

    def test_overlap_memory_paced_when_dma_dominates(self):
        dram = DRAMConfig(bytes_per_cycle=32, burst_bytes=1)
        reads = np.full(4, 3200.0)
        writes = np.zeros(4)
        total = _overlapped_cycles(dram, reads, writes, compute_cycles=40)
        # paced by fills: first fill + 3 hidden fills + last compute slot
        assert total >= 4 * 100
        assert total <= 4 * 100 + 40


class TestMemorySystemProfile:
    def _system(self, **dram_kw):
        return MemorySystem(dram=DRAMConfig(**dram_kw),
                            sram=SRAMStaging(wb_bytes=2048, ab_bytes=4096))

    def test_single_resident_operand_streams_other_once(self):
        """As long as one operand fits, neither re-streams."""
        sys = self._system()
        # weights overflow the 1024-usable WB, acts fit the 2048 AB
        traffic = _traffic(w=5000, a=1000, tiles_m=8, tiles_n=8)
        prof = sys.profile(traffic, compute_cycles=1000)
        assert not prof.weights_resident and prof.acts_resident
        assert prof.weight_bytes == 5000      # streamed once
        assert prof.act_bytes == 1000

    def test_both_overflow_picks_cheaper_loop_order(self):
        sys = self._system()
        # both overflow; re-streaming acts (3000 * 2) beats weights
        # (5000 * 8), so the scheduler holds weight strips
        traffic = _traffic(w=5000, a=3000, tiles_m=8, tiles_n=2)
        prof = sys.profile(traffic, compute_cycles=1000)
        assert prof.weight_bytes == 5000
        assert prof.act_bytes == 3000 * 2
        # flipped costs: now weights re-stream
        traffic = _traffic(w=3000, a=5000, tiles_m=2, tiles_n=8)
        prof = sys.profile(traffic, compute_cycles=1000)
        assert prof.weight_bytes == 3000 * 2
        assert prof.act_bytes == 5000

    def test_fixed_schedule_applies_declared_passes(self):
        """Fixed dataflows (SCNN/SparTen/Eyeriss) refill every
        non-resident operand at its declared pass count — no free
        loop-order trick, matching their own SRAM accounting."""
        sys = self._system()
        traffic = LayerTraffic(
            weights=OperandStream(5000, passes=1),   # overflows 1024 WB
            acts=OperandStream(3000, passes=4),      # overflows 2048 AB
            out_bytes=10, tiles_m=1, tiles_n=4,
            fixed_schedule=True,
        )
        prof = sys.profile(traffic, compute_cycles=10)
        assert prof.weight_bytes == 5000        # declared once
        assert prof.act_bytes == 3000 * 4       # declared refills applied
        # resident operands still stream once under a fixed schedule
        small = LayerTraffic(
            weights=OperandStream(5000, passes=1),
            acts=OperandStream(100, passes=4),
            out_bytes=10, tiles_m=1, tiles_n=4, fixed_schedule=True,
        )
        assert sys.profile(small, 10).act_bytes == 100

    def test_meta_bytes_tracked_separately(self):
        sys = self._system()
        traffic = LayerTraffic(
            weights=OperandStream(800, 200, passes=4),
            acts=OperandStream(900, 100, passes=2),
            out_bytes=50, tiles_m=4, tiles_n=2,
        )
        prof = sys.profile(traffic, compute_cycles=10)
        assert prof.weight_meta_bytes == 200
        assert prof.act_meta_bytes == 100
        assert prof.meta_bytes == 300
        assert prof.by_class()["dbb_metadata"] == 300

    def test_read_write_split(self):
        prof = self._system().profile(
            _traffic(w=1000, a=500, out=300), compute_cycles=10)
        assert prof.dram_read_bytes == 1500
        assert prof.dram_write_bytes == 300
        assert prof.total_dram_bytes == 1800

    def test_memory_cycles_is_fill_bound(self):
        """The cap covers operand fills; write-back drains overlapped."""
        prof = self._system(burst_bytes=1).profile(
            _traffic(w=320, a=320, out=999999), compute_cycles=10)
        assert prof.fill_cycles == (320 + 320) / 32
        assert prof.memory_cycles == math.ceil((320 + 320) / 32)

    def test_burst_rounding_inflates_bus_bytes(self):
        """The fill moves whole bursts: 65 B of weights take two 64 B
        bursts and 1 B of activations one."""
        prof = self._system(burst_bytes=64).profile(
            _traffic(w=65, a=1, out=1), compute_cycles=10)
        assert prof.fill_cycles == (128 + 64) / 32
        assert prof.dram_read_bytes == 65 + 1

    def test_memory_bound_flag(self):
        sys = self._system()
        assert sys.profile(_traffic(w=32000), compute_cycles=10).memory_bound
        assert not sys.profile(_traffic(w=32),
                               compute_cycles=10_000).memory_bound


class TestWindowDuplication:
    def test_conv_windows_recovered(self):
        for k, dup in ((363, 121), (1200, 25), (2304, 9), (512, 1)):
            layer = LayerSpec("c", LayerKind.CONV, m=4, k=k, n=4)
            assert window_duplication(layer) == dup

    def test_explicit_window_overrides_inference(self):
        """A 1x1 conv with C divisible by 9 would be mis-detected as a
        3x3; stating the window on the spec bypasses the heuristic."""
        inferred = LayerSpec("pw", LayerKind.CONV, m=4, k=1152, n=4)
        assert window_duplication(inferred) == 9  # heuristic collision
        explicit = LayerSpec("pw", LayerKind.CONV, m=4, k=1152, n=4,
                             window=1)
        assert window_duplication(explicit) == 1
        with pytest.raises(ValueError):
            LayerSpec("bad", LayerKind.CONV, m=4, k=10, n=4, window=3)

    def test_fc_and_dwconv_stream_expanded(self):
        """FC has no window; depthwise defeats the im2col generators
        (the Sec. 8.3 convention keeping them DMA bound)."""
        assert window_duplication(
            LayerSpec("f", LayerKind.FC, m=1, k=9216, n=10)) == 1
        assert window_duplication(
            LayerSpec("d", LayerKind.DWCONV, m=100, k=9, n=1)) == 1


class TestAcceleratorIntegration:
    def test_default_cap_reproduces_legacy_fc_floor(self):
        """DenseSA FC layer: the fill cap is the legacy DMA stream
        (dense weights + activations at 32 B/cycle), burst-quantized
        per operand class."""
        from repro.accel import DenseSA

        layer = LayerSpec("fc", LayerKind.FC, m=4, k=9216, n=4096,
                          w_nnz=8, a_nnz=8)
        result = DenseSA().run_layer(layer)
        expected = (math.ceil(layer.k * layer.n / 32)
                    + math.ceil(layer.m * layer.k / 32))
        assert result.memory_cycles == expected
        assert result.memory_bound

    def test_default_cap_skips_conv_but_profile_is_honest(self):
        from repro.accel import S2TAAW
        from repro.models import get_spec

        layer = get_spec("alexnet").layer("conv5")
        result = S2TAAW().run_layer(layer)
        assert result.memory_cycles == 0          # paper staging semantics
        assert result.memory.memory_cycles > 0    # honest fill time kept
        assert result.memory.total_dram_bytes > 0

    def test_explicit_bandwidth_enforces_wall_on_conv(self):
        from repro.accel import S2TAAW
        from repro.models import get_spec

        layer = get_spec("alexnet").layer("conv5")
        slow = S2TAAW(dram_gbps=2.0).run_layer(layer)
        assert slow.memory_cycles > 0
        assert slow.memory_bound
        fast = S2TAAW(dram_gbps=512.0).run_layer(layer)
        assert not fast.memory_bound

    def test_dram_energy_reported_beside_onchip_total(self):
        from repro.accel import ZvcgSA
        from repro.models import get_spec

        layer = get_spec("alexnet").layer("conv2")
        result = ZvcgSA().run_layer(layer)
        b = result.breakdown
        assert b.dram > 0
        assert b.total_with_dram_pj == pytest.approx(b.total_pj + b.dram)
        # the paper-calibrated total stays die-only
        assert b.total_pj == pytest.approx(
            b.datapath + b.buffers + b.sram + b.dap + b.actfn)
        assert result.events.dram_read_bytes \
            == result.memory.dram_read_bytes

    @pytest.mark.parametrize("gbps", [0, -1, math.nan, math.inf])
    def test_bad_bandwidth_rejected_at_construction(self, gbps):
        """A bad ``dram_gbps`` fails when the accelerator is built, with
        the channel's own message, not later inside a run."""
        from repro.accel import ZvcgSA

        with pytest.raises(ValueError, match="bandwidth must be positive"):
            ZvcgSA(dram_gbps=gbps)

    def test_eyeriss_converts_bandwidth_at_its_own_clock(self):
        """dram_gbps must convert against the 200 MHz published clock,
        not the node's nominal 500 MHz (the memory builds lazily)."""
        from repro.accel import EyerissV2

        accel = EyerissV2(dram_gbps=6.4)
        assert accel.memory.dram.bytes_per_cycle == pytest.approx(32.0)

    def test_outer_product_models_profile_compressed_streams(self):
        from repro.accel import SCNN, EyerissV2, SparTen
        from repro.models import get_spec

        layer = get_spec("alexnet").layer("conv3")
        for accel in (SCNN(), SparTen(), EyerissV2()):
            result = accel.run_layer(layer)
            prof = result.memory
            assert prof.meta_bytes > 0, accel.name
            # sparse payloads: fewer bytes than the dense footprints
            dense_w = layer.k * layer.n
            assert prof.weight_bytes < dense_w, accel.name
