"""On-chip capacity and tiling analysis.

S2TA's operands live in software-managed, double-buffered SRAM: a
512 KB weight buffer and a 2 MB activation buffer (Sec. 6.3). This
module checks how a layer's (possibly DBB-compressed) operands map onto
those capacities under the output-stationary tiling, and quantifies the
off-chip (DMA) traffic when they do not fit — e.g. VGG-16's fc6 weights
(~98 MB dense) stream from DRAM every inference, which is why FC layers
are memory bound at batch 1 (Sec. 8.3).

This is *capacity* analysis tooling on top of the accelerator models; the
timing and energy of the off-chip traffic it quantifies live in the
memory-hierarchy subsystem (:mod:`repro.arch.memory`), which every
accelerator model now runs per layer (per-operand-class DRAM bytes,
fill-bandwidth caps, roofline placement — see
``repro experiment roofline``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.memory import window_duplication
from repro.models.specs import BLOCK_SIZE, LayerSpec, ModelSpec

__all__ = ["TilingAnalysis", "analyze_layer", "analyze_model",
           "WB_BYTES", "AB_BYTES"]

WB_BYTES = 512 * 1024
AB_BYTES = 2 * 1024 * 1024


@dataclass
class TilingAnalysis:
    """How one layer's operands fit the on-chip buffers."""

    layer: LayerSpec
    weight_bytes_stored: int      # compressed weight footprint
    act_bytes_stored: int         # compressed input-activation footprint
    weights_fit: bool             # whole layer's weights in half the WB
    acts_fit: bool
    weight_dma_bytes: int         # off-chip weight traffic per inference
    act_dma_bytes: int

    @property
    def total_dma_bytes(self) -> int:
        return self.weight_dma_bytes + self.act_dma_bytes

    @property
    def fully_resident(self) -> bool:
        return self.weights_fit and self.acts_fit


def _compressed_weight_bytes(layer: LayerSpec) -> int:
    kb = math.ceil(layer.k / BLOCK_SIZE)
    if layer.w_nnz < BLOCK_SIZE:
        return layer.n * kb * (min(layer.w_nnz, 4) + 1)
    return layer.n * layer.k


def _compressed_act_bytes(layer: LayerSpec) -> int:
    # The AB stores the underlying feature map; the im2col expansion is
    # produced on the fly by the address generators (shared convention
    # with the DRAM traffic model in repro.arch.memory).
    footprint_k = layer.k // window_duplication(layer, streaming=False)
    kb = math.ceil(footprint_k / BLOCK_SIZE)
    if layer.a_nnz < BLOCK_SIZE:
        return layer.m * kb * (layer.a_nnz + 1)
    return layer.m * footprint_k


def analyze_layer(
    layer: LayerSpec,
    wb_bytes: int = WB_BYTES,
    ab_bytes: int = AB_BYTES,
    double_buffered: bool = True,
    eff_rows: int = 64,
    eff_cols: int = 32,
) -> TilingAnalysis:
    """Capacity analysis for one layer at a given array tile size.

    Double buffering halves the usable capacity (one half computes while
    the other fills). Weights that fit are DMA'd once; otherwise every
    output-row tile pass re-streams them from off-chip. Activations
    analogously, per output-column tile pass.
    """
    usable_wb = wb_bytes // 2 if double_buffered else wb_bytes
    usable_ab = ab_bytes // 2 if double_buffered else ab_bytes
    w_stored = _compressed_weight_bytes(layer)
    a_stored = _compressed_act_bytes(layer)
    weights_fit = w_stored <= usable_wb
    acts_fit = a_stored <= usable_ab
    tiles_m = math.ceil(layer.m / eff_rows)
    tiles_n = math.ceil(layer.n / eff_cols)
    weight_dma = w_stored if weights_fit else w_stored * tiles_m
    act_dma = a_stored if acts_fit else a_stored * tiles_n
    return TilingAnalysis(
        layer=layer,
        weight_bytes_stored=w_stored,
        act_bytes_stored=a_stored,
        weights_fit=weights_fit,
        acts_fit=acts_fit,
        weight_dma_bytes=weight_dma,
        act_dma_bytes=act_dma,
    )


def analyze_model(spec: ModelSpec, **kwargs) -> dict:
    """Per-layer analyses plus whole-model residency statistics."""
    analyses = {layer.name: analyze_layer(layer, **kwargs)
                for layer in spec.layers}
    resident = sum(1 for a in analyses.values() if a.fully_resident)
    return {
        "layers": analyses,
        "resident_layers": resident,
        "total_layers": len(analyses),
        "total_dma_bytes": sum(a.total_dma_bytes for a in analyses.values()),
    }
