"""Trainable layers for the DBB fine-tuning experiments.

``Dense`` carries an optional *weight keep-mask*: once W-DBB pruning
fixes which per-block positions survive, the mask is re-applied after
every optimizer step so pruned weights stay exactly zero while the
survivors keep learning — the standard magnitude-pruning fine-tune.

``DAPLayer`` applies Top-NNZ activation pruning in the forward pass and
the binary-mask straight-through estimator in the backward pass, mirror
of the inference-time DAP hardware (Sec. 8.1, "Training for A-DBB").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.dbb import DBBSpec
from repro.core.pruning import topk_block_mask
from repro.train.autograd import Tensor

__all__ = ["Module", "Dense", "ReLULayer", "DAPLayer", "Sequential", "MLP"]


class Module:
    """Base trainable module."""

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def parameters(self) -> List[Tensor]:
        return []

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Dense(Module):
    """Fully connected layer with optional W-DBB weight mask."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / in_features)
        self.weight = Tensor(rng.normal(0.0, scale,
                                        size=(in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        self.weight_mask: Optional[np.ndarray] = None

    def forward(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias

    def parameters(self) -> List[Tensor]:
        return [self.weight, self.bias]

    def prune_to_dbb(self, spec: DBBSpec, keep: Optional[int] = None) -> None:
        """Fix the W-DBB keep-mask (blocks along the input-feature axis,
        i.e. down each weight column) and zero the pruned weights."""
        keep = spec.max_nnz if keep is None else keep
        k, n = self.weight.data.shape
        if k % spec.block_size:
            raise ValueError(
                f"in_features ({k}) must be a multiple of BZ="
                f"{spec.block_size} for W-DBB pruning"
            )
        columns = self.weight.data.T.reshape(-1, spec.block_size)
        mask = topk_block_mask(columns, keep)
        self.weight_mask = mask.reshape(n, k).T
        self.apply_weight_mask()

    def apply_weight_mask(self) -> None:
        """Re-zero pruned weights (called after each optimizer step)."""
        if self.weight_mask is not None:
            self.weight.data *= self.weight_mask

    def weight_density(self) -> float:
        return float(np.count_nonzero(self.weight.data)
                     / self.weight.data.size)


class ReLULayer(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class DAPLayer(Module):
    """Dynamic Activation Pruning with a straight-through estimator.

    Forward: keep the Top-``nnz`` magnitudes of every ``BZ`` block along
    the feature axis. Backward: gradients flow only through the kept
    positions. ``enabled`` lets fine-tuning schedules switch DAP on/off.
    """

    def __init__(self, spec: DBBSpec, nnz: Optional[int] = None,
                 enabled: bool = True):
        self.spec = spec
        self.nnz = spec.max_nnz if nnz is None else nnz
        if not 1 <= self.nnz <= spec.block_size:
            raise ValueError(
                f"nnz must be in [1, {spec.block_size}], got {self.nnz}"
            )
        self.enabled = enabled

    def forward(self, x: Tensor) -> Tensor:
        if not self.enabled or self.nnz >= self.spec.block_size:
            return x
        features = x.data.shape[-1]
        if features % self.spec.block_size:
            raise ValueError(
                f"features ({features}) must be a multiple of BZ="
                f"{self.spec.block_size}"
            )
        blocks = x.data.reshape(-1, self.spec.block_size)
        mask = topk_block_mask(blocks, self.nnz).reshape(x.data.shape)
        return x.apply_mask(mask)


class Sequential(Module):
    def __init__(self, modules: List[Module]):
        if not modules:
            raise ValueError("need at least one module")
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for module in self.modules:
            params.extend(module.parameters())
        return params

    def prunable_layers(self) -> List[Dense]:
        """The GEMM-bearing modules W-DBB pruning applies to."""
        return [m for m in self.modules if isinstance(m, Dense)]

    def dap_layers(self) -> List[DAPLayer]:
        return [m for m in self.modules if isinstance(m, DAPLayer)]

    def apply_weight_masks(self) -> None:
        for layer in self.prunable_layers():
            layer.apply_weight_mask()


def MLP(
    in_features: int,
    hidden: List[int],
    classes: int,
    dap_spec: Optional[DBBSpec] = None,
    dap_nnz: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """A ReLU MLP, optionally with DAP in front of each hidden GEMM.

    Mirrors the paper's placement: DAP sits before convolutions/GEMMs,
    never in front of the first layer (its input is the raw sample).
    """
    rng = rng or np.random.default_rng(0)
    modules: List[Module] = []
    widths = [in_features] + list(hidden)
    for i in range(len(hidden)):
        modules.append(Dense(widths[i], widths[i + 1], rng=rng))
        modules.append(ReLULayer())
        if dap_spec is not None:
            modules.append(DAPLayer(dap_spec, nnz=dap_nnz))
    modules.append(Dense(widths[-1], classes, rng=rng))
    return Sequential(modules)
