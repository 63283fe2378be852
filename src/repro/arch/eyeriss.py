"""Eyeriss v2 functional simulator: CSC row-stationary mesh (JETCAS'19).

Cycle-level model of Eyeriss v2 (Chen et al.) for one GEMM
``C = A @ W``: CSC-compressed weights and activations stream through a
hierarchical mesh of PE clusters; each PE walks its CSC columns,
decodes (row index, value) pairs and multiplies the matching non-zero
operands — the decode/address-generation work charged as
``gather_ops``, with every operand delivery crossing
``noc_hops_per_operand`` hops of the hierarchical NoC (priced as
operand-register events) and the partial sums spiralling through the
cluster's psum network (two accumulator events per pair).

The mapper follows the row-stationary rule: output channels spread
across clusters (the top mesh dimension) and output pixels across the
PEs inside a cluster, with a rotation along the channel groups so that
small-``m`` layers (down to the FC extreme ``m = 1``) still occupy the
whole cluster. Per-PE matched-pair loads come straight from the
measured match matrix; the busiest PE paces the array
(*mesh occupancy*), and ``pipeline_utilization`` models the sustained
CSC-decode efficiency on top — the constant the analytic model folds
into its ``utilization``, so the two cycle models differ only by the
measured mesh imbalance.

All counting is vectorized and never materializes the m x n match
matrix: the mesh slot of a matched pair depends only on the pixel and
channel *residue classes*, so per-PE occupancy reduces to tiny
class-count matmuls over bounded chunks of the operands' DBB bitmasks
plus a rotation fold (see ``_mesh_loads``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.arch.events import EventCounts
from repro.arch.memory import FixedDataflowConfig, fixed_dataflow_events
from repro.core.gemm import dense_gemm
from repro.core.sparsity import GemmOperands

__all__ = ["EyerissV2Config", "EyerissV2Result", "EyerissV2Engine"]


@dataclass(frozen=True)
class EyerissV2Config(FixedDataflowConfig):
    """Eyeriss v2 design point (published: 65 nm, 16 clusters x 12 PEs
    x 2 MACs = 384 INT8 MACs at 200 MHz)."""

    clusters: int = 16
    pes_per_cluster: int = 12
    macs_per_pe: int = 2
    #: CSC decode + address-generation steps per matched pair.
    gather_steps_per_pair: int = 3
    #: Hierarchical-mesh hops per operand delivery.
    noc_hops_per_operand: int = 6
    #: Sustained CSC-decode pipeline efficiency of a PE.
    pipeline_utilization: float = 0.7
    #: Output-channel group width of one activation pass.
    group_cols: int = 64
    #: Activation refill cap across output-channel groups.
    pass_cap: int = 6

    def __post_init__(self) -> None:
        for name in ("clusters", "pes_per_cluster", "macs_per_pe",
                     "group_cols", "pass_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gather_steps_per_pair < 0 or self.noc_hops_per_operand < 0:
            raise ValueError("per-pair step counts must be >= 0")
        if not 0.0 < self.pipeline_utilization <= 1.0:
            raise ValueError(
                f"pipeline_utilization must be in (0, 1], "
                f"got {self.pipeline_utilization}")

    #: Partial sums spiral through the PE cluster and the psum NoC.
    psum_ops_per_pair = 2

    @property
    def hardware_macs(self) -> int:
        return self.clusters * self.pes_per_cluster * self.macs_per_pe


@dataclass
class EyerissV2Result:
    """Result of one simulated GEMM on the row-stationary mesh."""

    cycles: int
    events: EventCounts
    #: Matched-pair loads per (cluster, PE) mesh slot.
    pe_loads: np.ndarray
    #: The executed operands; ``output`` is computed from them.
    operands: GemmOperands = field(repr=False, compare=False)

    @cached_property
    def output(self) -> np.ndarray:
        """The bit-exact ``A @ W`` result, computed on first read."""
        return dense_gemm(self.operands.a, self.operands.w)

    @property
    def mesh_occupancy(self) -> float:
        """Mean/max PE load — 1.0 is a perfectly balanced mapping."""
        peak = self.pe_loads.max(initial=0)
        return float(self.pe_loads.mean() / peak) if peak else 1.0


class EyerissV2Engine:
    """Functional/cycle simulator for one Eyeriss v2 configuration."""

    def __init__(self, config: EyerissV2Config = EyerissV2Config()):
        self.config = config

    def _mesh_loads(self, operands: GemmOperands) -> np.ndarray:
        """Per-(cluster, PE) matched-pair loads of the row-stationary
        mapping: cluster = channel mod clusters, PE = (pixel + channel
        group) mod PEs — the group rotation keeps single-pixel (FC)
        layers from collapsing onto one PE per cluster.

        The mesh slot of a pair depends on the pixel only through
        ``i mod P`` and on the channel only through ``(j mod C,
        (j // C) mod P)``, so instead of materializing the m x n match
        matrix the loads reduce over *classes*: per-pixel-class non-zero
        counts (P x k) against each bounded chunk of filters' bitmasks,
        folded into the chunk's channel classes by a one-hot matmul,
        then the rotation folds the two pixel/group phases together.
        Bit-identical with the match-matrix bincount it replaces
        (:func:`repro.core.reference.naive_eyeriss_mesh_loads`; integer
        counts below 2**53, exact in float64 whatever the chunking), at
        O((m + n + CP)k) instead of O(mkn).
        """
        cfg = self.config
        pes = cfg.pes_per_cluster
        clusters = cfg.clusters
        # row_counts[r, k] = number of non-zero activations at reduction
        # index k among pixels with i mod P == r.
        row_counts = operands.a_class_nnz(pes).astype(np.float64)
        # pair_loads[r, c * P + g]: matched pairs between pixel class r
        # and channel class (c, g); the PE of such a pair is
        # (r + g) mod P.
        pair_loads = np.zeros((pes, clusters * pes))
        for start, filters in operands.row_chunks("w"):
            j = np.arange(start, start + filters.shape[0])
            onehot = np.zeros((j.size, clusters * pes))
            onehot[j - start, (j % clusters) * pes
                   + (j // clusters) % pes] = 1.0
            pair_loads += (row_counts
                           @ filters.T.astype(np.float64)) @ onehot
        pair_loads = np.rint(pair_loads).astype(np.int64).reshape(
            pes, clusters, pes)
        loads = np.zeros((clusters, pes), dtype=np.int64)
        for r in range(pes):
            loads += np.roll(pair_loads[r], r, axis=1)
        return loads.reshape(-1)

    def run_gemm(self, a: np.ndarray, w: np.ndarray) -> EyerissV2Result:
        """Execute ``C = A @ W`` on the CSC row-stationary mesh.

        The events come from the tail the analytic
        :class:`repro.accel.eyeriss.EyerissV2` shares
        (:func:`repro.arch.memory.fixed_dataflow_events`), fed with
        measured counts instead of the density closed forms.
        """
        return self.run(GemmOperands(a, w))

    def run(self, operands: GemmOperands) -> EyerissV2Result:
        """:meth:`run_gemm` reading its counts from ``operands``'
        non-zero census."""
        cfg = self.config
        m, k, n = operands.m, operands.k, operands.n
        # Matched pairs per output = popcount of the CSC column
        # intersection; the mesh mapping reduces over pixel/channel
        # classes without materializing the m x n match matrix (counts
        # below 2**53 keep the float64 BLAS exact — the repo-wide
        # integer-GEMM idiom).
        pe_loads = self._mesh_loads(operands)
        fired = int(pe_loads.sum())
        makespan = -(-int(pe_loads.max(initial=0)) // cfg.macs_per_pe)
        cycles = math.ceil(makespan / cfg.pipeline_utilization)

        return EyerissV2Result(
            cycles=cycles,
            events=fixed_dataflow_events(cfg, m, k, n, fired,
                                         operands.a_nonzeros,
                                         operands.w_nonzeros, cycles),
            pe_loads=pe_loads, operands=operands)
