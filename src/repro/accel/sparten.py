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

The design point is the engine config
(:class:`~repro.arch.sparten.SparTenConfig`), and both tiers count
events through one tail (see :mod:`repro.accel.fixed`). The functional
tier runs the cycle-level bitmask inner-join engine
(:mod:`repro.arch.sparten`): matched pairs, stored bytes and the greedy
filter schedule are *measured* on concrete operands — the
cross-validation suite asserts the agreement contract.
"""

from __future__ import annotations

from repro.accel.fixed import FixedDataflowModel
from repro.arch.sparten import SparTenConfig, SparTenEngine

__all__ = ["SparTen"]


class SparTen(FixedDataflowModel):
    """SparTen at its published design point (45 nm, 32 INT8 MACs)."""

    name = "SparTen"
    engine = SparTenEngine(SparTenConfig())
    buffer_bytes_per_mac = 992.0  # Table 1: ~0.99 KB
    sram_mb = 0.5
    mcus = 1

    def __init__(self, tech: str = "45nm", **kwargs):
        super().__init__(tech=tech, **kwargs)
