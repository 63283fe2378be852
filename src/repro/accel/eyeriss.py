"""Eyeriss v2 analytical model (Chen et al., JETCAS'19).

Eyeriss v2 is a 384-MAC (INT8) row-stationary accelerator at 200 MHz in
65 nm, with CSC-compressed weights/activations and a hierarchical mesh
NoC. Like SparTen it pays gather machinery per useful pair, but with
smaller per-PE buffering (Table 1: ~205 B/MAC) and NoC traffic instead
of a monolithic scatter buffer.

Calibrated so the published comparison points hold: ~3.1x more AlexNet
energy than 65 nm S2TA-AW (Fig. 12) and ~4.7x worse MobileNet
efficiency (Sec. 8.3), with low absolute throughput (0.2 GHz, 384 MACs
-> ~0.28 kInf/s on AlexNet, Table 4).

The functional tier runs the same design point on the cycle-level CSC
row-stationary mesh (:mod:`repro.arch.eyeriss`): matched pairs, stored
bytes and the cluster/PE occupancy are *measured* on concrete operands,
and the DRAM streams derive from the measured counters through the
shared :class:`~repro.accel.fixed.FixedDataflowModel` machinery — the
cross-validation suite asserts the agreement contract.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.accel.fixed import FixedDataflowModel
from repro.arch.events import EventCounts
from repro.models.specs import LayerSpec

__all__ = ["EyerissV2"]


class EyerissV2(FixedDataflowModel):
    """Eyeriss v2 at its published design point (65 nm, 384 INT8 MACs)."""

    name = "Eyeriss-v2"
    hardware_macs = 384
    buffer_bytes_per_mac = 205.0  # Table 1
    sram_mb = 0.246  # 246 KB
    mcus = 1
    utilization = 0.7
    # CSC decode + address generation per useful pair.
    gather_steps_per_pair = 3
    # NoC hops per operand delivery (hierarchical mesh), priced as
    # operand-register events.
    noc_hops_per_operand = 6
    # CSC streams: the small 246 KB storage forces extra activation
    # refills on large layers (row-stationary tiling).
    stream_group_cols = 64
    stream_pass_cap = 6

    def __init__(self, tech: str = "65nm", **kwargs):
        super().__init__(tech=tech, **kwargs)
        # Eyeriss v2's published clock, below the node's nominal rate.
        # (The memory system builds lazily, so a dram_gbps spec converts
        # against this clock, not the node's nominal one.)
        self.clock_ghz = 0.2

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        useful = max(1, round(layer.macs * layer.w_density * layer.a_density))
        compute_cycles = math.ceil(
            useful / (self.hardware_macs * self.utilization)
        )
        events = EventCounts()
        events.mac_ops = useful
        events.gather_ops = useful * self.gather_steps_per_pair
        events.operand_reg_ops = useful * 2 * self.noc_hops_per_operand
        # Partial sums spiral through the PE cluster and the psum NoC.
        events.acc_reg_ops = useful * 2
        # CSC-compressed operands; the small (246 KB) on-chip storage
        # forces extra refills on large layers.
        n_passes = max(1, math.ceil(layer.n / self.stream_group_cols))
        a_stored = round(layer.m * layer.k * layer.a_density) + layer.m * layer.k // 8
        w_stored = round(layer.k * layer.n * layer.w_density) + layer.k * layer.n // 8
        events.sram_a_read_bytes = a_stored * min(n_passes, self.stream_pass_cap)
        events.sram_w_read_bytes = w_stored
        events.sram_a_write_bytes = layer.m * layer.n
        events.mcu_elementwise_ops = layer.m * layer.n
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional tier: the CSC row-stationary mesh
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """The row-stationary mesh's config for this design point."""
        from repro.arch.eyeriss import EyerissV2Config

        config = EyerissV2Config(
            gather_steps_per_pair=self.gather_steps_per_pair,
            noc_hops_per_operand=self.noc_hops_per_operand,
            pipeline_utilization=self.utilization,
            group_cols=self.stream_group_cols,
            pass_cap=self.stream_pass_cap,
        )
        # The mesh factorization (clusters x PEs x MACs) lives on the
        # engine config; a design-point change on either side that
        # breaks the cross-tier contract must fail loudly here, not
        # show up as an xval divergence later.
        if config.hardware_macs != self.hardware_macs:
            raise ValueError(
                f"engine mesh provides {config.hardware_macs} MACs but "
                f"the analytic model prices {self.hardware_macs}")
        return config

    def run_gemm_functional(self, operands, **kwargs):
        from repro.arch.eyeriss import EyerissV2Engine

        return EyerissV2Engine(self.functional_sim_config()).run(operands)
