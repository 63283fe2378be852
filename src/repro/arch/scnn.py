"""SCNN functional simulator: Cartesian-product PEs (ISCA'17).

Cycle-level model of SCNN (Parashar et al.) for one GEMM ``C = A @ W``:
the canonical result-scatter design. Input activations are partitioned
*spatially* (output pixels interleave across the PE grid) and every PE
computes all output channels for its pixels: per reduction index the PE
multiplies its ``I``-wide non-zero activation vector against the
``F``-wide non-zero weight vector — an all-pairs Cartesian product in
which every product is useful — and scatters the products through a
crossbar into the distributed accumulator banks (Table 1's 1.65 KB of
buffering per MAC; charged as ``scatter_acc_ops``).

The cycle model counts *multiplier issue slots*: per (PE, reduction
index) the ``I x F`` multiplier array needs
``ceil(nnz_act / I) * ceil(nnz_w / F)`` cycles, and the busiest PE
paces the array. Fragmentation is therefore emergent rather than a
constant: on large feature maps the quantization loss approaches the
analytic model's flat ``utilization``, while on late layers with tiny
spatial extents (few pixels per PE) the measured utilization collapses
below it — SCNN's published small-feature-map weakness, which the
cross-validation artifact reports as a genuine (documented) cycle
divergence between the tiers. ``m < pes`` leaves PEs idle outright,
the degenerate FC case.

All counting is vectorized: per-PE activation non-zero counts are summed
from bounded row chunks of the activations' DBB bitmasks, and the
issue-slot sums are row-vector arithmetic, one PE at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.arch.events import EventCounts
from repro.core.gemm import dense_gemm
from repro.core.sparsity import GemmOperands

__all__ = ["SCNNConfig", "SCNNResult", "SCNNEngine"]


@dataclass(frozen=True)
class SCNNConfig:
    """SCNN design point (published: 16 nm, 64 PEs x 4x4 multipliers)."""

    pes: int = 64
    #: Multiplier-array width along the activation axis (I).
    mults_i: int = 4
    #: Multiplier-array width along the weight axis (F).
    mults_f: int = 4
    #: Crossbar traversal + accumulator-bank RMW steps per product.
    scatter_ops_per_product: int = 3
    #: Output-channel group width of one activation pass.
    group_cols: int = 64
    #: Activation refill cap across output-channel groups.
    pass_cap: int = 8

    def __post_init__(self) -> None:
        for name in ("pes", "mults_i", "mults_f", "group_cols", "pass_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.scatter_ops_per_product < 0:
            raise ValueError("scatter_ops_per_product must be >= 0")

    @property
    def hardware_macs(self) -> int:
        return self.pes * self.mults_i * self.mults_f


@dataclass
class SCNNResult:
    """Result of one simulated GEMM on the Cartesian-product array."""

    cycles: int
    events: EventCounts
    #: Multiplier issue slots consumed per PE.
    pe_issue_slots: np.ndarray
    #: The executed operands; ``output`` is computed from them.
    operands: GemmOperands = field(repr=False, compare=False)
    #: Fired products / available multiplier slots over the makespan —
    #: the emergent fragmentation the module doc describes.
    multiplier_utilization: float = 0.0

    @cached_property
    def output(self) -> np.ndarray:
        """The bit-exact ``A @ W`` result, computed on first read."""
        return dense_gemm(self.operands.a, self.operands.w)


class SCNNEngine:
    """Functional/cycle simulator for one SCNN configuration."""

    def __init__(self, config: SCNNConfig = SCNNConfig()):
        self.config = config

    def run_gemm(self, a: np.ndarray, w: np.ndarray) -> SCNNResult:
        """Execute ``C = A @ W`` on the Cartesian-product PE array.

        Events mirror the analytic :class:`repro.accel.scnn.SCNN` term
        for term with measured counts; the cross-validation suite
        asserts the agreement.
        """
        return self.run(GemmOperands(a, w))

    def run(self, operands: GemmOperands) -> SCNNResult:
        """:meth:`run_gemm` reading its counts from ``operands``'
        non-zero census."""
        cfg = self.config
        m, n = operands.m, operands.n
        # Spatial interleave: pixel i lives on PE i mod pes. Per-PE
        # non-zero activation counts per reduction index, summed over
        # the strip axis a bounded chunk of the bitmasks at a time.
        na = operands.a_class_nnz(cfg.pes)
        nw = operands.w_row_nnz
        # All-pairs products are useful; fired = sum_k nnz_a(k)*nw(k).
        fired = int(operands.a_col_nnz @ nw)
        # Issue slots: the I x F multiplier array consumes the Cartesian
        # product in ceil-quantized chunks per (PE, reduction index),
        # one PE's row at a time (never a widened pes x k copy).
        slots_w = -(-nw // cfg.mults_f)
        issue = np.zeros(cfg.pes, dtype=np.int64)
        for pe, row in enumerate(na):
            issue[pe] = -(-row.astype(np.int64) // cfg.mults_i) @ slots_w
        cycles = int(issue.max(initial=0))

        events = EventCounts(cycles=cycles)
        events.mac_ops = fired
        # The outer product needs no operand gather, but every product
        # pays the crossbar and the distributed-accumulator RMW.
        events.scatter_acc_ops = fired * cfg.scatter_ops_per_product
        # CSR-style compressed storage: one coordinate byte per stored
        # non-zero rides with the payload; activations re-stream per
        # output-channel group when not resident.
        passes = min(max(1, math.ceil(n / cfg.group_cols)), cfg.pass_cap)
        a_stored = operands.a_nonzeros * 2
        w_stored = operands.w_nonzeros * 2
        events.sram_a_read_bytes = a_stored * passes
        events.sram_w_read_bytes = w_stored
        events.sram_a_write_bytes = m * n
        events.mcu_elementwise_ops = m * n
        avail = cycles * cfg.hardware_macs
        return SCNNResult(cycles=cycles, events=events,
                          pe_issue_slots=issue, operands=operands,
                          multiplier_utilization=fired / avail if avail
                          else 0.0)
