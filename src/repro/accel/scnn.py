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
charged per product.

The functional tier runs the same design point on the cycle-level
Cartesian-product engine (:mod:`repro.arch.scnn`): products, stored
bytes and the per-PE multiplier issue slots are *measured* on concrete
operands, and the DRAM streams derive from the measured counters
through the shared :class:`~repro.accel.fixed.FixedDataflowModel`
machinery. Note the cycle models *diverge by design* on small feature
maps: the analytic tier assumes a flat sustained utilization while the
engine's 4x4 multiplier quantization measures SCNN's published
small-feature-map fragmentation (the cross-validation artifact reports
the divergence; the energy/fired/DRAM contract still holds).
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.accel.fixed import FixedDataflowModel
from repro.arch.events import EventCounts
from repro.models.specs import LayerSpec

__all__ = ["SCNN"]


class SCNN(FixedDataflowModel):
    """SCNN at its published design point (16 nm, 1024 INT16->INT8 MACs)."""

    name = "SCNN"
    hardware_macs = 1024
    buffer_bytes_per_mac = 1650.0  # Table 1
    sram_mb = 1.0
    mcus = 1
    utilization = 0.6
    # Crossbar traversal + distributed accumulator RMW per product; the
    # 1.65 KB/MAC buffer hierarchy costs more per access than SparTen's
    # (which the paper credits with "superior results to SCNN").
    scatter_ops_per_product = 3
    # CSR-style streams: 1 coordinate byte per stored non-zero (the
    # DBB-metadata analogue); activations re-stream per output-channel
    # group when they do not stay resident.
    stream_group_cols = 64
    stream_pass_cap = 8
    coordinate_meta = True

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        useful = max(1, round(layer.macs * layer.w_density * layer.a_density))
        compute_cycles = math.ceil(
            useful / (self.hardware_macs * self.utilization)
        )
        events = EventCounts()
        events.mac_ops = useful
        # Outer product needs no operand gather, but every product pays
        # the crossbar + distributed-accumulator read-modify-write.
        events.scatter_acc_ops = useful * self.scatter_ops_per_product
        a_stored = round(layer.m * layer.k * layer.a_density) * 2  # CSR idx
        w_stored = round(layer.k * layer.n * layer.w_density) * 2
        n_passes = max(1, math.ceil(layer.n / self.stream_group_cols))
        events.sram_a_read_bytes = a_stored * min(n_passes, self.stream_pass_cap)
        events.sram_w_read_bytes = w_stored
        events.sram_a_write_bytes = layer.m * layer.n
        events.mcu_elementwise_ops = layer.m * layer.n
        return compute_cycles, events

    # -------------------------------------------------------------- #
    # Functional tier: the Cartesian-product engine
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """The Cartesian-product engine's config for this design point."""
        from repro.arch.scnn import SCNNConfig

        config = SCNNConfig(
            scatter_ops_per_product=self.scatter_ops_per_product,
            group_cols=self.stream_group_cols,
            pass_cap=self.stream_pass_cap,
        )
        # PE-grid factorization (PEs x I x F) lives on the engine
        # config; keep it in lockstep with the analytic MAC count.
        if config.hardware_macs != self.hardware_macs:
            raise ValueError(
                f"engine grid provides {config.hardware_macs} MACs but "
                f"the analytic model prices {self.hardware_macs}")
        return config

    def run_gemm_functional(self, operands, **kwargs):
        from repro.arch.scnn import SCNNEngine

        return SCNNEngine(self.functional_sim_config()).run(operands)
