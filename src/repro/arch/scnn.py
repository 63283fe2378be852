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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.arch.events import EventCounts
from repro.arch.memory import FixedDataflowConfig, fixed_dataflow_events
from repro.core.gemm import dense_gemm
from repro.core.sparsity import GemmOperands

__all__ = ["SCNNConfig", "SCNNResult", "SCNNEngine"]


@dataclass(frozen=True)
class SCNNConfig(FixedDataflowConfig):
    """SCNN design point (published: 16 nm, 64 PEs x 4x4 multipliers)."""

    pes: int = 64
    #: Multiplier-array width along the activation axis (I).
    mults_i: int = 4
    #: Multiplier-array width along the weight axis (F).
    mults_f: int = 4
    #: Crossbar traversal + accumulator-bank RMW steps per product (the
    #: outer product needs no operand gather); the 1.65 KB/MAC buffer
    #: hierarchy costs more per access than SparTen's, which the paper
    #: credits with "superior results to SCNN".
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

    #: CSR-style streams: one coordinate byte rides with each stored
    #: non-zero (the DBB-metadata analogue).
    coordinate_meta = True

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

        The events come from the tail the analytic
        :class:`repro.accel.scnn.SCNN` shares
        (:func:`repro.arch.memory.fixed_dataflow_events`), fed with
        measured counts instead of the density closed forms.
        """
        return self.run(GemmOperands(a, w))

    def run(self, operands: GemmOperands) -> SCNNResult:
        """:meth:`run_gemm` reading its counts from ``operands``'
        non-zero census."""
        cfg = self.config
        m, k, n = operands.m, operands.k, operands.n
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
        avail = cycles * cfg.hardware_macs
        return SCNNResult(
            cycles=cycles,
            events=fixed_dataflow_events(cfg, m, k, n, fired,
                                         operands.a_nonzeros,
                                         operands.w_nonzeros, cycles),
            pe_issue_slots=issue, operands=operands,
            multiplier_utilization=fired / avail if avail else 0.0)
