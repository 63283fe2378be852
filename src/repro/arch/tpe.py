"""The Tensor PE (Fig. 7b/c) as an explicit composable unit.

A TPE accepts a pair of operand *blocks* per exchange — ``A`` activation
blocks and ``C`` weight blocks — and computes their ``A x C`` outer
product of block-dot-products on a grid of DP units. The time-unrolled
variant (Fig. 7c) wires DP1M4 datapaths; the dot-product variant wires
DP4M8. The degenerate 1x1 TPE with a single dense lane is the classic
scalar PE (Fig. 7b).

The systolic simulator uses equivalent closed-form event math for
speed; this module is the unit-level ground truth it is validated
against in the tests (same psums, cycles and fired MACs on a one-TPE,
one-block GEMM, in both datapath styles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.arch.datapath import dp1m4_block, dp4m8_block
from repro.arch.events import EventCounts
from repro.core.dbb import DBBBlock

__all__ = ["TensorPE", "TPEStepResult"]


@dataclass
class TPEStepResult:
    """One operand exchange: the A x C psum tile and its events."""

    psums: np.ndarray  # (A, C) int64 partial sums
    cycles: int
    events: EventCounts


class TensorPE:
    """An ``A x B x C`` tensor PE.

    Parameters
    ----------
    tpe_a, tpe_c:
        Outer-product dims (activation blocks x weight blocks).
    time_unrolled:
        DP1M4 lanes (serialize activation non-zeros) when True, DP4M8
        dot-product lanes (dense activation blocks) when False.
    """

    def __init__(self, tpe_a: int, tpe_c: int, time_unrolled: bool = True):
        if tpe_a < 1 or tpe_c < 1:
            raise ValueError("TPE dims must be >= 1")
        self.tpe_a = tpe_a
        self.tpe_c = tpe_c
        self.time_unrolled = time_unrolled

    @property
    def dp_units(self) -> int:
        return self.tpe_a * self.tpe_c

    @property
    def macs(self) -> int:
        return self.dp_units * (1 if self.time_unrolled else 4)

    def step(self, a_blocks: Sequence, w_blocks: Sequence[DBBBlock]
             ) -> TPEStepResult:
        """Process one block exchange.

        ``a_blocks`` holds ``A`` activation blocks — :class:`DBBBlock`
        for the time-unrolled TPE, dense arrays for the dot-product TPE.
        ``w_blocks`` holds ``C`` compressed weight blocks. All DP units
        run in lockstep; the step takes as many cycles as the slowest
        lane (they are uniform by construction: ``a_nnz`` cycles
        time-unrolled, 1 cycle dot-product).
        """
        if len(a_blocks) != self.tpe_a:
            raise ValueError(
                f"expected {self.tpe_a} activation blocks, got {len(a_blocks)}"
            )
        if len(w_blocks) != self.tpe_c:
            raise ValueError(
                f"expected {self.tpe_c} weight blocks, got {len(w_blocks)}"
            )
        psums = np.zeros((self.tpe_a, self.tpe_c), dtype=np.int64)
        events = EventCounts()
        lane_cycles: List[int] = []
        for i, a_block in enumerate(a_blocks):
            for j, w_block in enumerate(w_blocks):
                if self.time_unrolled:
                    psum, lane_events = dp1m4_block(a_block, w_block)
                    lane_cycles.append(lane_events.cycles)
                    lane_events.cycles = 0  # lanes run in parallel
                else:
                    psum, lane_events = dp4m8_block(
                        np.asarray(a_block), w_block)
                    lane_cycles.append(1)
                psums[i, j] = psum
                events += lane_events
        cycles = max(lane_cycles)
        events.cycles = cycles
        # every DP unit updates its private accumulator each lane cycle
        events.acc_reg_ops += self.dp_units * cycles
        return TPEStepResult(psums=psums, cycles=cycles, events=events)

    def __repr__(self) -> str:
        style = "time-unrolled" if self.time_unrolled else "dot-product"
        return f"TensorPE({self.tpe_a}x{self.tpe_c}, {style})"
