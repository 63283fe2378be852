"""Analytic layer/model descriptions for the performance model.

A :class:`LayerSpec` captures what the accelerator models need about one
GEMM-lowered layer: the GEMM shape, the (post-pruning) weight density
profile, and the activation density profile (both the DBB structure —
``a_nnz``/``w_nnz`` — and the resulting element densities).

Density conventions (BZ = 8 throughout, as in the paper):

- ``w_nnz``: W-DBB bound for this layer; ``8`` means unpruned/dense
  (e.g. the first conv layer, excluded from pruning per Table 3 note 2).
- ``a_nnz``: per-layer tuned A-DBB bound; ``8`` means dense bypass
  (early layers; also anything above the 5-stage DAP hardware cap).
- ``weight_density`` / ``act_density``: actual element-level non-zero
  fractions seen at run time (used for ZVCG gating and switching
  activity). These can be lower than ``nnz/8`` because DBB blocks may be
  underfull.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["LayerKind", "LayerSpec", "ModelSpec", "BLOCK_SIZE"]

BLOCK_SIZE = 8


class LayerKind(enum.Enum):
    CONV = "conv"
    DWCONV = "dwconv"
    FC = "fc"

    @property
    def memory_bound(self) -> bool:
        """FC and depthwise layers are memory bound on S2TA (Sec. 8.3)."""
        return self in (LayerKind.FC, LayerKind.DWCONV)


@dataclass(frozen=True)
class LayerSpec:
    """One GEMM-lowered layer of a benchmark network."""

    name: str
    kind: LayerKind
    m: int  # output pixels (rows of the activation matrix)
    k: int  # reduction length (im2col patch size)
    n: int  # output channels
    w_nnz: int = 4
    a_nnz: int = 8
    weight_density: Optional[float] = None
    act_density: Optional[float] = None
    #: Explicit im2col window size (KH*KW). ``None`` lets the memory
    #: model infer it from K's square-kernel divisors — exact for the
    #: current zoo, but a 1x1 layer whose channel count divides by 9/25
    #: would be mis-detected, so new specs should state it.
    window: Optional[int] = None

    def __post_init__(self) -> None:
        for dim, label in ((self.m, "m"), (self.k, "k"), (self.n, "n")):
            if dim < 1:
                raise ValueError(f"{label} must be >= 1, got {dim}")
        for nnz, label in ((self.w_nnz, "w_nnz"), (self.a_nnz, "a_nnz")):
            if not 1 <= nnz <= BLOCK_SIZE:
                raise ValueError(f"{label} must be in [1, {BLOCK_SIZE}], got {nnz}")
        if self.window is not None and (
                self.window < 1 or self.k % self.window != 0):
            raise ValueError(
                f"window must be >= 1 and divide k={self.k}, "
                f"got {self.window}")

    @property
    def macs(self) -> int:
        """Dense MAC count of the lowered GEMM."""
        return self.m * self.k * self.n

    @property
    def w_density(self) -> float:
        """Element-level weight density (defaults to the DBB bound)."""
        if self.weight_density is not None:
            return self.weight_density
        return self.w_nnz / BLOCK_SIZE

    @property
    def a_density(self) -> float:
        """Element-level activation density (defaults to the DBB bound)."""
        if self.act_density is not None:
            return self.act_density
        return self.a_nnz / BLOCK_SIZE

    @property
    def weight_pruned(self) -> bool:
        return self.w_nnz < BLOCK_SIZE

    @property
    def dap_bypassed(self) -> bool:
        return self.a_nnz >= BLOCK_SIZE

    @property
    def memory_bound(self) -> bool:
        return self.kind.memory_bound

    @property
    def weight_bytes(self) -> int:
        """Dense INT8 weight footprint of the layer."""
        return self.k * self.n

    @property
    def activation_bytes(self) -> int:
        """Dense INT8 input-activation footprint (im2col matrix)."""
        return self.m * self.k


@dataclass
class ModelSpec:
    """A benchmark network as the list of its GEMM-lowered layers."""

    name: str
    dataset: str
    layers: List[LayerSpec]
    baseline_accuracy: Optional[float] = None
    notes: str = ""
    _by_name: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in {self.name}: {names}")
        self._by_name = {layer.name: layer for layer in self.layers}

    def layer(self, name: str) -> LayerSpec:
        return self._by_name[name]

    @property
    def conv_layers(self) -> List[LayerSpec]:
        return [l for l in self.layers if l.kind is LayerKind.CONV]

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def conv_macs(self) -> int:
        return sum(l.macs for l in self.conv_layers)

    def mac_weighted_a_nnz(self, conv_only: bool = True) -> float:
        """MAC-weighted average A-DBB density bound (Table 3 reports this)."""
        layers = self.conv_layers if conv_only else self.layers
        total = sum(l.macs for l in layers)
        if total == 0:
            return float(BLOCK_SIZE)
        return sum(l.a_nnz * l.macs for l in layers) / total

    def __repr__(self) -> str:
        return (f"ModelSpec({self.name!r}, layers={len(self.layers)}, "
                f"macs={self.total_macs / 1e6:.1f}M)")
