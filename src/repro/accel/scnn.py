"""SCNN analytical model (Parashar et al., ISCA'17).

SCNN is the canonical *result-scatter* (outer-product) unstructured
sparse CNN accelerator (Fig. 2b): every non-zero weight multiplies
every non-zero activation of a tile, and partial products route through
a crossbar into a large distributed accumulator buffer — Table 1's
1.65 KB of buffering per MAC, the highest of any design the paper
quotes. The paper compares against SparTen (which supersedes SCNN) in
the evaluation; SCNN is modelled here to complete Table 1/Table 5 and
the scatter-overhead analysis of Sec. 2.3.

Published design point: 64 PEs x 16 multipliers = 1024 MACs in 16 nm at
1 GHz (original paper); the scatter crossbar and accumulator RMWs are
charged per product. The design point is the engine config
(:class:`~repro.arch.scnn.SCNNConfig`), and both tiers count events
through one tail (see :mod:`repro.accel.fixed`).

The functional tier runs the cycle-level Cartesian-product engine
(:mod:`repro.arch.scnn`): products, stored bytes and the per-PE
multiplier issue slots are *measured* on concrete operands. Note the
cycle models *diverge by design* on small feature maps: the analytic
tier assumes a flat sustained utilization while the engine's 4x4
multiplier quantization measures SCNN's published small-feature-map
fragmentation (the cross-validation artifact reports the divergence;
the energy/fired/DRAM contract still holds).
"""

from __future__ import annotations

from repro.accel.fixed import FixedDataflowModel
from repro.arch.scnn import SCNNConfig, SCNNEngine

__all__ = ["SCNN"]


class SCNN(FixedDataflowModel):
    """SCNN at its published design point (16 nm, 1024 INT16->INT8 MACs)."""

    name = "SCNN"
    engine = SCNNEngine(SCNNConfig())
    buffer_bytes_per_mac = 1650.0  # Table 1
    sram_mb = 1.0
    mcus = 1
    #: The analytic tier's flat sustained utilization; the engine
    #: measures its multiplier fragmentation instead.
    utilization = 0.6
