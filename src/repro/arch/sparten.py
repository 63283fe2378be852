"""SparTen functional simulator: bitmask inner-join PEs (MICRO'19).

Cycle-level model of SparTen's sparse vector-vector datapath
(Gondimalla et al.) for one GEMM ``C = A @ W``: both operands are
bitmask-encoded sparse vectors, and each PE computes one output's
inner product by *inner-joining* the two bitmasks — AND the masks,
prefix-sum the result to gather the matching non-zero pairs, and feed
the pairs to the PE's single multiplier, one pair per cycle. The join
machinery is charged as ``gather_ops`` (three prefix-sum/gather steps
per matched pair) and the output-buffer read-modify-write as
``scatter_acc_ops``.

Scheduling follows SparTen's software *greedy balance* pass: whole
output columns (filters) are the work chunks, and the scheduler assigns
them to the ``pes`` processing elements longest-first (LPT). The
simulated makespan is the busiest PE's matched-pair count; dividing by
``pipeline_utilization`` models the join pipeline's sustained
efficiency (chunk restarts, prefix-sum latency, output-buffer port
conflicts) — the same constant the analytic model
(:class:`repro.accel.sparten.SparTen`) divides by, so the two cycle
models differ only by the *measured* filter-load imbalance.

Everything is struct-of-arrays numpy (the :mod:`repro.arch.systolic`
idiom): the per-pair triple loop collapses into one dot product of
per-reduction-index non-zero counts per output column — read from the
weights' DBB bitmasks a bounded chunk of filters at a time — and the
LPT pass walks columns, not pairs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.arch.events import EventCounts
from repro.arch.memory import FixedDataflowConfig, fixed_dataflow_events
from repro.core.gemm import dense_gemm
from repro.core.sparsity import GemmOperands

__all__ = ["SparTenConfig", "SparTenResult", "SparTenEngine"]


@dataclass(frozen=True)
class SparTenConfig(FixedDataflowConfig):
    """SparTen design point (published: 45 nm, 32 PEs x 1 MAC)."""

    pes: int = 32
    #: Prefix-sum/gather steps charged per matched pair (bitmask AND,
    #: prefix-sum offset, operand gather).
    gather_steps_per_pair: int = 3
    #: Sustained fraction of a PE's MAC issue slots doing useful work
    #: once the join pipeline's restarts and port conflicts are paid.
    pipeline_utilization: float = 0.65
    #: Activation refill cap across output-column groups (the published
    #: dataflow re-reads the bitmask-compressed activations once per
    #: group of ``pes`` filters, up to this many passes).
    pass_cap: int = 8

    def __post_init__(self) -> None:
        if self.pes < 1:
            raise ValueError(f"pes must be >= 1, got {self.pes}")
        if self.gather_steps_per_pair < 0:
            raise ValueError("gather_steps_per_pair must be >= 0")
        if not 0.0 < self.pipeline_utilization <= 1.0:
            raise ValueError(
                f"pipeline_utilization must be in (0, 1], "
                f"got {self.pipeline_utilization}")
        if self.pass_cap < 1:
            raise ValueError(f"pass_cap must be >= 1, got {self.pass_cap}")

    #: Every product read-modify-writes the large output buffer at a
    #: non-contiguous offset (the scatter side of Table 1's ~1 KB of
    #: buffering per MAC).
    scatter_ops_per_product = 1

    @property
    def hardware_macs(self) -> int:
        return self.pes

    @property
    def group_cols(self) -> int:
        """Output columns per activation pass: each PE owns one filter
        of the group, so the tiny PE count forces re-streams."""
        return self.pes


@dataclass
class SparTenResult:
    """Result of one simulated GEMM on the bitmask inner-join engine."""

    cycles: int
    events: EventCounts
    #: Final per-PE matched-pair loads of the greedy schedule.
    pe_loads: np.ndarray
    #: The executed operands; ``output`` is computed from them.
    operands: GemmOperands = field(repr=False, compare=False)

    @cached_property
    def output(self) -> np.ndarray:
        """The bit-exact ``A @ W`` result, computed on first read."""
        return dense_gemm(self.operands.a, self.operands.w)

    @property
    def load_balance(self) -> float:
        """Mean/max PE load — 1.0 is a perfectly balanced schedule."""
        peak = self.pe_loads.max(initial=0)
        return float(self.pe_loads.mean() / peak) if peak else 1.0


def greedy_lpt_loads(job_lengths: np.ndarray, workers: int) -> np.ndarray:
    """Longest-processing-time-first greedy assignment.

    Returns the per-worker total load after assigning every job,
    longest first, to the least-loaded worker — SparTen's software
    greedy-balance pass over filters. Deterministic: ties break on
    worker index via the heap ordering.
    """
    loads = [(0, w) for w in range(workers)]
    heapq.heapify(loads)
    out = np.zeros(workers, dtype=np.int64)
    for length in sorted((int(j) for j in job_lengths), reverse=True):
        load, w = heapq.heappop(loads)
        load += length
        out[w] = load
        heapq.heappush(loads, (load, w))
    return out


class SparTenEngine:
    """Functional/cycle simulator for one SparTen configuration."""

    def __init__(self, config: SparTenConfig = SparTenConfig()):
        self.config = config

    def run_gemm(self, a: np.ndarray, w: np.ndarray) -> SparTenResult:
        """Execute ``C = A @ W`` on the bitmask inner-join array.

        The events come from the tail the analytic
        :class:`repro.accel.sparten.SparTen` shares
        (:func:`repro.arch.memory.fixed_dataflow_events`), fed with
        counts measured on the concrete operands (stored non-zeros,
        matched pairs) instead of the density closed forms.
        """
        return self.run(GemmOperands(a, w))

    def run(self, operands: GemmOperands) -> SparTenResult:
        """:meth:`run_gemm` reading its counts from ``operands``'
        non-zero census."""
        cfg = self.config
        m, k, n = operands.m, operands.k, operands.n
        # Matched pairs of one output (i, j) = popcount(mask_a[i] &
        # mask_w[j]); summed over a column the triple loop separates
        # per reduction index into a dot product (the systolic-family
        # trick): col_fired[j] = sum_k nnz_a(k) * w_nz[k, j], one
        # bounded chunk of filters' bitmasks at a time.
        col_fired = np.empty(n, dtype=np.int64)
        for start, filters in operands.row_chunks("w"):
            col_fired[start:start + filters.shape[0]] = \
                filters @ operands.a_col_nnz
        fired = int(col_fired.sum())
        # Greedy balance: filters to PEs, longest first; the busiest
        # PE's pair count paces the array.
        pe_loads = greedy_lpt_loads(col_fired, cfg.pes)
        makespan = int(pe_loads.max(initial=0))
        cycles = math.ceil(makespan / cfg.pipeline_utilization)

        return SparTenResult(
            cycles=cycles,
            events=fixed_dataflow_events(cfg, m, k, n, fired,
                                         operands.a_nonzeros,
                                         operands.w_nonzeros, cycles),
            pe_loads=pe_loads, operands=operands)
