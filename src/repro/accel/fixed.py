"""Shared machinery of the fixed-dataflow comparison points.

The three published non-systolic accelerators the paper compares
against — SCNN, SparTen and Eyeriss v2 — share model structure that is
orthogonal to their datapaths:

- **DRAM streams from counters.** Their sparsity-compressed operand
  streams (CSR coordinates, bitmasks, CSC columns) derive from the SRAM
  byte counters via
  :func:`repro.arch.memory.compressed_stream_traffic_from_events`, so
  the analytic tier (density closed forms) and the functional tier
  (counts measured on concrete operands) route through one derivation —
  bit-equal counters give bit-equal per-operand-class DRAM bytes, the
  same cross-validation mechanism the systolic family uses.
- **No MCU cluster.** Their published numbers include their own
  post-processing, so the S2TA background-power term is replaced with a
  per-output cost (~2 pJ/output, 16 nm-equivalent) in *both* tiers.
- **Weight streams don't subsample.** Quick-mode row subsampling
  shrinks ``m`` only; the weight operand (and its SRAM/stream bytes)
  is independent of ``m``, so the linear event extrapolation exempts
  the weight-read counter.

Each subclass supplies its dataflow constants (stream grouping,
metadata encoding) and its functional engine; the analytic event
formulas stay in the subclass modules.
"""

from __future__ import annotations

from repro.accel.base import AcceleratorModel
from repro.arch.events import EventCounts
from repro.arch.memory import (
    LayerTraffic,
    compressed_stream_traffic_from_events,
)
from repro.models.specs import LayerSpec

__all__ = ["FixedDataflowModel"]


class FixedDataflowModel(AcceleratorModel):
    """Base of the SCNN / SparTen / Eyeriss v2 comparison points."""

    #: Output-channel group width of one activation pass.
    stream_group_cols = 64
    #: Activation refill cap across output-channel groups.
    stream_pass_cap = 8
    #: True for CSR-style one-coordinate-byte-per-non-zero sideband
    #: (SCNN); False for ~1-bit-per-element occupancy masks
    #: (SparTen bitmasks, Eyeriss v2 CSC columns).
    coordinate_meta = False

    def layer_traffic(self, layer: LayerSpec, events: EventCounts
                      ) -> LayerTraffic:
        """Compressed DRAM streams derived from the (analytic or
        measured) SRAM counters — shared by both fidelity tiers."""
        return compressed_stream_traffic_from_events(
            layer, events,
            group_cols=self.stream_group_cols,
            pass_cap=self.stream_pass_cap,
            coordinate_meta=self.coordinate_meta)

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
