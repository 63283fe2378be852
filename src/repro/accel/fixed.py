"""Shared machinery of the fixed-dataflow comparison points.

The three published non-systolic accelerators the paper compares
against — SCNN, SparTen and Eyeriss v2 — share model structure that is
orthogonal to their datapaths:

- **One design point.** Each model holds its functional engine, and the
  engine's config is the only home of the design point: the MAC count,
  the pipeline utilization, the stream grouping and pass cap, the
  metadata encoding and the per-pair costs are read from it by both
  tiers.
- **One event tail.** Both tiers count events through
  :func:`repro.arch.memory.fixed_dataflow_events`: the analytic tier
  with the density closed forms, the functional tier with the matched
  pairs and stored non-zeros measured on concrete operands.
- **DRAM streams from counters.** Their sparsity-compressed operand
  streams (CSR coordinates, bitmasks, CSC columns) derive from the SRAM
  byte counters via
  :func:`repro.arch.memory.compressed_stream_traffic_from_events`, so
  bit-equal counters give bit-equal per-operand-class DRAM bytes, the
  same cross-validation mechanism the systolic family uses.
- **No MCU cluster.** Their published numbers include their own
  post-processing, so the S2TA background-power term is replaced with a
  per-output cost (~2 pJ/output, 16 nm-equivalent) in *both* tiers.

Each subclass supplies its engine at the published design point; what
differs between the tiers is only where the counts come from and how
the cycles are found (a flat sustained utilization here, the measured
schedule in the engine).
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.accel.base import AcceleratorModel
from repro.arch.events import EventCounts
from repro.arch.memory import (
    LayerTraffic,
    compressed_stream_traffic_from_events,
    fixed_dataflow_events,
)
from repro.models.specs import LayerSpec

__all__ = ["FixedDataflowModel"]


class FixedDataflowModel(AcceleratorModel):
    """Base of the SCNN / SparTen / Eyeriss v2 comparison points."""

    #: The functional engine at this design point (subclass sets).
    engine = None

    @property
    def config(self):
        """The engine config: the one home of the design point."""
        return self.engine.config

    @property
    def hardware_macs(self) -> int:
        return self.config.hardware_macs

    @property
    def utilization(self) -> float:
        """Sustained fraction of the MACs doing useful work."""
        return self.config.pipeline_utilization

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        fired = max(1, round(layer.macs * layer.w_density * layer.a_density))
        compute_cycles = math.ceil(
            fired / (self.hardware_macs * self.utilization))
        return compute_cycles, fixed_dataflow_events(
            self.config, layer.m, layer.k, layer.n, fired,
            round(layer.m * layer.k * layer.a_density),
            round(layer.k * layer.n * layer.w_density))

    def layer_traffic(self, layer: LayerSpec, events: EventCounts
                      ) -> LayerTraffic:
        """Compressed DRAM streams derived from the (analytic or
        measured) SRAM counters — shared by both fidelity tiers."""
        return compressed_stream_traffic_from_events(layer, events,
                                                     self.config)

    def _finalize_layer(self, layer: LayerSpec, compute_cycles: int,
                        events: EventCounts):
        """Replace the S2TA MCU-cluster background with the design's own
        per-output post-processing cost (both tiers; see module doc)."""
        result = super()._finalize_layer(layer, compute_cycles, events)
        scale = self.energy_model.tech.energy_scale
        result.breakdown.actfn = (
            result.events.mcu_elementwise_ops * 2.0 * scale
        )
        return result

    # -------------------------------------------------------------- #
    # Functional tier: the design's own engine
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        return self.config

    def run_gemm_functional(self, operands, **kwargs):
        return self.engine.run(operands)
