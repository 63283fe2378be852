"""S2TA accelerator models: S2TA-W and the time-unrolled S2TA-AW.

Both are TPE-array systolic designs at the paper's chosen design points
(Sec. 7): 2048 hardware MACs, 4 TOPS dense peak at 1 GHz in 16 nm.

- ``S2TAW`` — 4x8x4_4x8: a 4x8 grid of TPEs, each an outer product of
  A=4 activation blocks x C=4 weight blocks over DP4M8 dot-product
  datapaths (4 MACs each). Exploits 4/8 W-DBB for a fixed 2x speedup
  (Fig. 9c) plus ZVCG on the dense activations. This is the
  "A100-featured" baseline.
- ``S2TAAW`` — 8x4x4_8x8: an 8x8 grid of TPEs, each A=8 x C=4 DP1M4
  time-unrolled datapaths. Weight DBB halves weight traffic and gates
  mask-mismatch MACs; activation DBB serializes ``a_nnz`` cycles per
  block, so speedup is ``BZ / a_nnz`` (Fig. 9d), tuned per layer.

Layers whose weights are not pruned (``w_nnz == 8``, e.g. first conv
layers) run in dense-fallback mode: S2TA-W takes two passes per block,
S2TA-AW holds full blocks; both match the dense SA's throughput, as the
paper requires (Sec. 4, "fall back to dense operation").
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.accel.base import AcceleratorModel
from repro.arch.events import EventCounts, _max, _min, _round, _where
from repro.core.dbb import DBBSpec
from repro.models.specs import BLOCK_SIZE, LayerSpec

__all__ = ["S2TAW", "S2TAAW", "S2TAWA"]

_MASK_BYTES = 1  # BZ=8 positional bitmask


class TPEArray(AcceleratorModel):
    """The geometry every S2TA model shares: a ``rows x cols`` grid of
    TPEs, each a ``tpe_a x tpe_c`` outer product of datapath units.

    The S2TA-W and S2TA-AW closed forms (events, block layouts, the MAC
    count) are written once for Python ints and numpy columns alike
    (:mod:`repro.arch.events`): the DSE array pass runs them on a copy
    of the accelerator whose geometry and DBB bound are per-point
    columns.
    """

    #: MACs per datapath unit: a time-unrolled unit serializes its block
    #: through one MAC.
    unit_macs = 1

    def __init__(self, tech: str, rows: int, cols: int, tpe_a: int,
                 tpe_c: int, **kwargs):
        super().__init__(tech=tech, **kwargs)
        self.rows = rows
        self.cols = cols
        self.tpe_a = tpe_a
        self.tpe_c = tpe_c

    @property
    def hardware_macs(self) -> int:
        return self.rows * self.cols * self.tpe_a * self.tpe_c * self.unit_macs

    @property
    def eff_rows(self) -> int:
        return self.rows * self.tpe_a

    @property
    def eff_cols(self) -> int:
        return self.cols * self.tpe_c

    @property
    def skew(self) -> int:
        return self.rows + self.cols - 2

    def _weight_stream_bytes(self, layer: LayerSpec) -> int:
        kb = -(-layer.k // BLOCK_SIZE)
        return layer.n * kb * self._w_block_bytes(layer)


class S2TAW(TPEArray):
    """S2TA-W: 4x8x4_4x8 DP4M8 TPE array (W-DBB + activation ZVCG).

    The geometry is parameterizable (used by the Sec. 7 design-space
    sweep); defaults are the paper's published design point.
    """

    name = "S2TA-W"
    datapath_nnz = 4  # DP4M8: 4 MACs per DP unit
    buffer_bytes_per_mac = 0.875  # Table 1

    def __init__(self, tech: str = "16nm", rows: int = 4, cols: int = 8,
                 tpe_a: int = 4, tpe_c: int = 4, datapath_nnz: int = 4,
                 **kwargs):
        super().__init__(tech, rows, cols, tpe_a, tpe_c, **kwargs)
        if not 1 <= datapath_nnz <= BLOCK_SIZE:
            raise ValueError(
                f"datapath_nnz must be in [1, {BLOCK_SIZE}], "
                f"got {datapath_nnz}")
        # The DBB weight bound B: each DPBM8 dot-product unit holds B
        # MACs (the paper's design point is DP4M8). Swept by the DSE
        # engine; everything downstream (passes, block bytes, events)
        # reads the instance attribute.
        self.datapath_nnz = datapath_nnz
        self.buffer_bytes_per_mac = self._buffer_bytes(tpe_a, tpe_c)

    @property
    def unit_macs(self) -> int:
        return self.datapath_nnz

    def _buffer_bytes(self, tpe_a: int, tpe_c: int) -> float:
        """Per-MAC buffer storage for a TPE geometry.

        The A dense activation blocks and C compressed weight blocks are
        shared across the TPE's A*C*4 MACs; each DP4M8 unit's 4 MACs
        share one accumulator. The structural estimate is normalized so
        the paper's design point reproduces Table 1's 0.875 B/MAC
        (the paper counts live single-entry registers only).
        """
        def estimate(a: int, c: int) -> float:
            operand_bytes = a * BLOCK_SIZE + c * (self.datapath_nnz + 1)
            macs = a * c * self.datapath_nnz
            return operand_bytes / macs + 4.0 / self.datapath_nnz
        return estimate(tpe_a, tpe_c) * (0.875 / estimate(4, 4))

    def _w_passes(self, layer: LayerSpec) -> int:
        """Block passes: 1 when pruned to <= NNZ, 2 for dense fallback."""
        return _where(layer.w_nnz <= self.datapath_nnz, 1, 2)

    def _w_block_bytes(self, layer: LayerSpec) -> int:
        """Compressed ``B + mask`` bytes, or the uncompressed block on
        the dense fallback."""
        return _where(layer.w_nnz <= self.datapath_nnz,
                      self.datapath_nnz + _MASK_BYTES, BLOCK_SIZE)

    def _dram_block_layout(self, layer: LayerSpec):
        """Compressed weight blocks carry a 1-byte positional mask
        (DBB metadata on the DRAM bus); activations stream dense."""
        packed = layer.w_nnz <= self.datapath_nnz
        return ((_where(packed, self.datapath_nnz, BLOCK_SIZE),
                 _where(packed, _MASK_BYTES, 0)), (BLOCK_SIZE, 0))

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        kb = -(-layer.k // BLOCK_SIZE)
        passes = self._w_passes(layer)
        tiles_m, tiles_n = self._tile_geometry(layer)
        tiles = tiles_m * tiles_n
        compute_cycles = tiles * kb * passes + self.skew
        slots = (tiles * self.eff_rows * self.eff_cols
                 * kb * passes * self.datapath_nnz)
        fired = _round(layer.macs * layer.w_density * layer.a_density)
        events = EventCounts()
        events.mac_ops = fired
        events.gated_mac_ops = _max(0, slots - fired)
        events.mux_ops = layer.m * layer.n * kb * passes * self.datapath_nnz
        # DP4M8's 4 MACs reduce through an adder tree into one accumulator
        # update per (output, block pass).
        acc_slots = layer.m * layer.n * kb * passes
        acc_fired = _min(acc_slots, fired)
        events.acc_reg_ops = acc_fired
        events.gated_acc_reg_ops = acc_slots - acc_fired
        # Operand hops with intra-TPE reuse. The dot-product TPE reuses
        # activations less than the outer-product one (Sec. 6.1 notes the
        # outer-product TPE is the more efficient due to increased data
        # reuse): the dense 8-wide activation block is broadcast to the
        # DP4M8 muxes, recovering only half of the C-way reuse.
        a_hop_bytes = tiles_n * self.cols * layer.m * layer.k
        w_hop_bytes = (tiles_m * self.rows * layer.n * kb
                       * self._w_block_bytes(layer))
        events.operand_reg_ops = (a_hop_bytes // _max(1, self.tpe_c // 2)
                                  + w_hop_bytes // self.tpe_a)
        events.sram_a_read_bytes = layer.m * layer.k * tiles_n
        events.sram_w_read_bytes = self._weight_stream_bytes(layer) * tiles_m
        events.sram_a_write_bytes = layer.m * layer.n
        events.mcu_elementwise_ops = layer.m * layer.n
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional cross-check bridge
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """The cycle simulator's config for this design point."""
        from repro.arch.systolic import Mode, SystolicConfig

        return SystolicConfig(
            rows=self.rows, cols=self.cols, mode=Mode.WDBB,
            w_spec=DBBSpec(BLOCK_SIZE, self.datapath_nnz),
            tpe_a=self.tpe_a, tpe_c=self.tpe_c,
        )

    def _functional_gemm_kwargs(self, layer: LayerSpec) -> dict:
        """Unpruned layers (e.g. the first conv) run the hardware's
        two-pass dense-weight fallback, matching ``_w_passes``. Events
        are counted without compressing the weights; only reading the
        simulator's ``output`` compresses them, through the shared
        :func:`repro.core.gemm.compress_cached` memo."""
        return {"w_dense": layer.w_nnz > self.datapath_nnz}


class S2TAAW(TPEArray):
    """S2TA-AW: time-unrolled 8x4x4_8x8 DP1M4 TPE array (joint A/W-DBB)."""

    name = "S2TA-AW"
    w_nnz_hw = 4  # DP1M4's 4:1 weight mux
    buffer_bytes_per_mac = 4.75  # Table 1
    has_dap = True

    def __init__(self, tech: str = "16nm", rows: int = 8, cols: int = 8,
                 tpe_a: int = 8, tpe_c: int = 4, w_nnz_hw: int = 4,
                 **kwargs):
        super().__init__(tech, rows, cols, tpe_a, tpe_c, **kwargs)
        if not 1 <= w_nnz_hw <= BLOCK_SIZE:
            raise ValueError(
                f"w_nnz_hw must be in [1, {BLOCK_SIZE}], got {w_nnz_hw}")
        # The DBB weight bound B: each DP1M4 weight mux selects among B
        # stored non-zeros (B:1 mux; the paper's design point is B=4).
        # Time-unrolled, so the MAC count is independent of B.
        self.w_nnz_hw = w_nnz_hw
        self.buffer_bytes_per_mac = self._buffer_bytes(tpe_a, tpe_c)

    def _buffer_bytes(self, tpe_a: int, tpe_c: int) -> float:
        """Per-MAC buffers for a time-unrolled TPE geometry.

        Each DP1M4 holds a 32-bit accumulator; the serialized activation
        element (+ mask) and C compressed weight blocks are shared.
        Normalized so the paper's point matches Table 1's 4.75 B/MAC.
        """
        def estimate(a: int, c: int) -> float:
            operand_bytes = a * 2 + c * (self.w_nnz_hw + 1)
            return operand_bytes / (a * c) + 4.0
        return estimate(tpe_a, tpe_c) * (4.75 / estimate(8, 4))

    def _steps(self, layer: LayerSpec) -> int:
        """Cycles per activation block: a_nnz, or BZ on dense bypass."""
        return _min(layer.a_nnz, BLOCK_SIZE)

    def _w_block_bytes(self, layer: LayerSpec) -> int:
        return _where(layer.w_nnz <= self.w_nnz_hw,
                      self.w_nnz_hw + _MASK_BYTES, BLOCK_SIZE)

    def _dram_block_layout(self, layer: LayerSpec):
        """Both operands stream in compressed block form (payload +
        1-byte mask) unless the layer runs the dense fallback/bypass."""
        steps = self._steps(layer)
        w_packed = layer.w_nnz <= self.w_nnz_hw
        a_packed = steps < BLOCK_SIZE
        return ((_where(w_packed, self.w_nnz_hw, BLOCK_SIZE),
                 _where(w_packed, _MASK_BYTES, 0)),
                (_where(a_packed, steps, BLOCK_SIZE),
                 _where(a_packed, _MASK_BYTES, 0)))

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        kb = -(-layer.k // BLOCK_SIZE)
        steps = self._steps(layer)
        tiles_m, tiles_n = self._tile_geometry(layer)
        tiles = tiles_m * tiles_n
        compute_cycles = (tiles * kb + self.skew) * steps
        slots = tiles * self.eff_rows * self.eff_cols * kb * steps
        # A MAC fires when the streamed activation's position matches a
        # stored non-zero weight: element densities capture both bounds.
        fired = _round(layer.macs * layer.w_density * layer.a_density)
        fired = _min(fired, slots)
        events = EventCounts()
        events.mac_ops = fired
        events.gated_mac_ops = slots - fired
        events.mux_ops = layer.m * layer.n * kb * steps
        # DP1M4: one accumulator RMW per streamed cycle, gated on miss.
        acc_slots = layer.m * layer.n * kb * steps
        acc_fired = _min(acc_slots, fired)
        events.acc_reg_ops = acc_fired
        events.gated_acc_reg_ops = acc_slots - acc_fired
        # Compressed ``steps + mask`` activation blocks, or uncompressed
        # ones on the dense bypass.
        packed = steps < BLOCK_SIZE
        a_block_bytes = _where(packed, steps + _MASK_BYTES, BLOCK_SIZE)
        w_block_bytes = self._w_block_bytes(layer)
        a_hop_bytes = tiles_n * self.cols * layer.m * kb * a_block_bytes
        w_hop_bytes = tiles_m * self.rows * layer.n * kb * w_block_bytes
        # The serialized activation element broadcasts across the TPE's C
        # weight columns; beyond the DP1M4 mux width the broadcast needs
        # repeater stages, capping the free reuse at 4-wide.
        a_reuse = _min(self.tpe_c, self.w_nnz_hw)
        events.operand_reg_ops = (a_hop_bytes // a_reuse
                                  + w_hop_bytes // self.tpe_a)
        events.sram_a_read_bytes = layer.m * kb * a_block_bytes * tiles_n
        events.sram_w_read_bytes = self._weight_stream_bytes(layer) * tiles_m
        events.sram_a_write_bytes = layer.m * kb * a_block_bytes
        events.mcu_elementwise_ops = layer.m * layer.n
        # DAP runs once per activation block produced (at the AB write
        # port), not per tile re-read; bypassed on dense layers.
        events.dap_compare_ops = _where(
            packed, layer.m * kb * (BLOCK_SIZE - 1) * steps, 0)
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional cross-check bridge
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """The cycle simulator's config for this design point."""
        from repro.arch.systolic import Mode, SystolicConfig

        return SystolicConfig(
            rows=self.rows, cols=self.cols, mode=Mode.AWDBB,
            w_spec=DBBSpec(BLOCK_SIZE, self.w_nnz_hw),
            a_spec=DBBSpec(BLOCK_SIZE, self.w_nnz_hw),
            tpe_a=self.tpe_a, tpe_c=self.tpe_c,
        )

    def _functional_gemm_kwargs(self, layer: LayerSpec) -> dict:
        """``a_nnz`` is the per-layer A-DBB cycle knob (dense bypass at
        ``BLOCK_SIZE``); unpruned weights stream uncompressed (dense
        fallback). The time-unrolled simulator needs no operand
        compression at all — its event counts are closed-form over
        non-zero counts — so sweeping ``a_nnz`` costs no compression
        work."""
        return {"a_nnz": min(layer.a_nnz, BLOCK_SIZE),
                "w_dense": layer.w_nnz > self.w_nnz_hw}


class S2TAWA(TPEArray):
    """Time-unrolled variable *weight* DBB with fixed activation DBB.

    The paper's footnote 2 (Sec. 8.4): "S2TA time-unrolled architecture
    can also be implemented to support variable weight DBB sparsity and
    fixed activation DBB sparsity." This is that dual design: weight
    block non-zeros are serialized over ``w_nnz`` cycles (so per-layer
    *weight* density is the cycle knob, speedup ``BZ / w_nnz``), while
    activations are DAP-pruned to a fixed 4/8 bound and unrolled
    spatially through 4:1 muxes.

    Used by the unrolling-axis ablation benchmark: it wins throughput on
    models whose weights are pruned harder than their activations
    (e.g. 3/8-weight VGG/ResNet), but it cannot harvest the wide
    per-layer *activation* density range that motivates S2TA-AW, and
    forcing a fixed 4/8 A-DBB on dense-activation layers costs accuracy
    the paper's per-layer tuning avoids.
    """

    name = "S2TA-WA"
    a_nnz_hw = 4  # fixed 4/8 activation DBB (4:1 activation mux)
    buffer_bytes_per_mac = 4.75
    has_dap = True

    def __init__(self, tech: str = "16nm", rows: int = 8, cols: int = 8,
                 tpe_a: int = 4, tpe_c: int = 8, **kwargs):
        super().__init__(tech, rows, cols, tpe_a, tpe_c, **kwargs)

    def _steps(self, layer: LayerSpec) -> int:
        """Cycles per weight block: w_nnz, or BZ on unpruned layers."""
        return layer.w_nnz if layer.w_nnz < BLOCK_SIZE else BLOCK_SIZE

    def _a_density(self, layer: LayerSpec) -> float:
        """Element activation density under the fixed 4/8 A-DBB bound."""
        return min(layer.a_density, self.a_nnz_hw / BLOCK_SIZE)

    def _w_block_bytes(self, layer: LayerSpec) -> int:
        steps = self._steps(layer)
        if steps >= BLOCK_SIZE:
            return BLOCK_SIZE
        return steps + _MASK_BYTES

    def _a_block_bytes(self) -> int:
        return self.a_nnz_hw + _MASK_BYTES

    def _dram_block_layout(self, layer: LayerSpec):
        """Serialized weights and fixed-4/8 activations both stream
        compressed (payload + mask) on the DRAM bus."""
        steps = self._steps(layer)
        w_layout = ((steps, _MASK_BYTES) if steps < BLOCK_SIZE
                    else (BLOCK_SIZE, 0))
        return w_layout, (self.a_nnz_hw, _MASK_BYTES)

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        kb = math.ceil(layer.k / BLOCK_SIZE)
        steps = self._steps(layer)
        tiles_m = math.ceil(layer.m / self.eff_rows)
        tiles_n = math.ceil(layer.n / self.eff_cols)
        tiles = tiles_m * tiles_n
        compute_cycles = (tiles * kb + self.skew) * steps
        slots = tiles * self.eff_rows * self.eff_cols * kb * steps
        a_density = self._a_density(layer)
        fired = min(round(layer.macs * layer.w_density * a_density), slots)
        events = EventCounts()
        events.mac_ops = fired
        events.gated_mac_ops = slots - fired
        events.mux_ops = layer.m * layer.n * kb * steps
        acc_slots = layer.m * layer.n * kb * steps
        acc_fired = min(acc_slots, fired)
        events.acc_reg_ops = acc_fired
        events.gated_acc_reg_ops = acc_slots - acc_fired
        a_block_bytes = self._a_block_bytes()
        w_block_bytes = self._w_block_bytes(layer)
        a_hop_bytes = tiles_n * self.cols * layer.m * kb * a_block_bytes
        w_hop_bytes = tiles_m * self.rows * layer.n * kb * w_block_bytes
        w_reuse = min(self.tpe_a, self.a_nnz_hw)
        events.operand_reg_ops = (a_hop_bytes // self.tpe_c
                                  + w_hop_bytes // w_reuse)
        events.sram_a_read_bytes = layer.m * kb * a_block_bytes * tiles_n
        events.sram_w_read_bytes = self._weight_stream_bytes(layer) * tiles_m
        events.sram_a_write_bytes = layer.m * kb * a_block_bytes
        events.mcu_elementwise_ops = layer.m * layer.n
        # DAP always runs (fixed 4/8 bound on every layer).
        events.dap_compare_ops = (
            layer.m * kb * (BLOCK_SIZE - 1) * self.a_nnz_hw
        )
        return compute_cycles, events
