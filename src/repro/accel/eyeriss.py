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

The design point is the engine config
(:class:`~repro.arch.eyeriss.EyerissV2Config`: 16 clusters x 12 PEs x
2 MACs, CSC streams whose small 246 KB storage forces extra activation
refills on large layers), and both tiers count events through one tail
(see :mod:`repro.accel.fixed`). The functional tier runs the
cycle-level CSC row-stationary mesh (:mod:`repro.arch.eyeriss`):
matched pairs, stored bytes and the cluster/PE occupancy are *measured*
on concrete operands — the cross-validation suite asserts the agreement
contract.
"""

from __future__ import annotations

from repro.accel.fixed import FixedDataflowModel
from repro.arch.eyeriss import EyerissV2Config, EyerissV2Engine

__all__ = ["EyerissV2"]


class EyerissV2(FixedDataflowModel):
    """Eyeriss v2 at its published design point (65 nm, 384 INT8 MACs)."""

    name = "Eyeriss-v2"
    engine = EyerissV2Engine(EyerissV2Config())
    buffer_bytes_per_mac = 205.0  # Table 1
    sram_mb = 0.246  # 246 KB
    mcus = 1

    def __init__(self, tech: str = "65nm", **kwargs):
        super().__init__(tech=tech, **kwargs)
        # Eyeriss v2's published clock, below the node's nominal rate.
        # (The memory system builds lazily, so a dram_gbps spec converts
        # against this clock, not the node's nominal one.)
        self.clock_ghz = 0.2
