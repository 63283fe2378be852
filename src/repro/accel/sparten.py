"""SparTen analytical model (Gondimalla et al., MICRO'19).

SparTen exploits fully unstructured weight *and* activation sparsity
with bitmask-encoded vectors: inner joins of the bitmasks locate
matching non-zero pairs (prefix-sum gather), products scatter into a
large output buffer (Table 1: ~1 KB of buffering per MAC). The paper
compares against SparTen's published 45 nm design: 32 MACs at 0.8 GHz.

This is a calibrated analytical model: per *useful* MAC it charges the
gather and scatter machinery, and per stored element the bitmask scan.
The structure makes the paper's Fig. 12 shape emerge naturally: on
high-sparsity layers few useful MACs -> low energy (SparTen wins); on
dense layers useful ~ dense -> the per-pair machinery costs several
times a systolic array's per-slot cost (SparTen loses on conv1/conv2).

The functional tier runs the same design point on the cycle-level
bitmask inner-join engine (:mod:`repro.arch.sparten`): matched pairs,
stored bytes and the greedy filter schedule are *measured* on concrete
operands, and the DRAM streams derive from the measured counters
through the shared :class:`~repro.accel.fixed.FixedDataflowModel`
machinery — the cross-validation suite asserts the agreement contract.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.accel.fixed import FixedDataflowModel
from repro.arch.events import EventCounts
from repro.models.specs import LayerSpec

__all__ = ["SparTen"]


class SparTen(FixedDataflowModel):
    """SparTen at its published design point (45 nm, 32 INT8 MACs)."""

    name = "SparTen"
    hardware_macs = 32
    buffer_bytes_per_mac = 992.0  # Table 1: ~0.99 KB
    sram_mb = 0.5
    mcus = 1
    # Sustained fraction of the 32 MACs doing useful work.
    utilization = 0.65
    # Gather steps per useful pair (bitmask inner-join + prefix sums).
    gather_steps_per_pair = 3
    # Bitmask streams: the tiny PE count forces activation re-streams
    # across the output tiling — one pass per group of ``hardware_macs``
    # filters (each PE owns one filter of the group), so the stream
    # grouping is the PE count by construction.
    stream_group_cols = hardware_macs
    stream_pass_cap = 8

    def __init__(self, tech: str = "45nm", **kwargs):
        super().__init__(tech=tech, **kwargs)

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        useful = max(1, round(layer.macs * layer.w_density * layer.a_density))
        compute_cycles = math.ceil(
            useful / (self.hardware_macs * self.utilization)
        )
        events = EventCounts()
        events.mac_ops = useful
        events.gather_ops = useful * self.gather_steps_per_pair
        # Outer scatter: each product read-modify-writes the big output
        # buffer at the right (non-contiguous) offset.
        events.scatter_acc_ops = useful
        # Bitmask-compressed operand storage, scanned once per use; the
        # tiny PE count forces full re-reads across the output tiling.
        n_passes = max(1, math.ceil(layer.n / self.stream_group_cols))
        a_stored = round(layer.m * layer.k * layer.a_density) + layer.m * layer.k // 8
        w_stored = round(layer.k * layer.n * layer.w_density) + layer.k * layer.n // 8
        events.sram_a_read_bytes = a_stored * min(n_passes, self.stream_pass_cap)
        events.sram_w_read_bytes = w_stored
        events.sram_a_write_bytes = layer.m * layer.n
        events.mcu_elementwise_ops = layer.m * layer.n
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional tier: the bitmask inner-join engine
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """The inner-join engine's config for this design point."""
        from repro.arch.sparten import SparTenConfig

        return SparTenConfig(
            pes=self.hardware_macs,
            gather_steps_per_pair=self.gather_steps_per_pair,
            pipeline_utilization=self.utilization,
            pass_cap=self.stream_pass_cap,
        )

    def run_gemm_functional(self, operands, **kwargs):
        from repro.arch.sparten import SparTenEngine

        return SparTenEngine(self.functional_sim_config()).run(operands)
