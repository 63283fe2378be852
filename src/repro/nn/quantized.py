"""Integer-only inference — the INT8 pipeline S2TA actually executes.

Post-training quantization of a float :class:`~repro.nn.model.Sequential`:
weights quantize symmetrically per layer, activation scales calibrate
from sample data, and inference then runs entirely in integers — INT8
operands, INT32 accumulation, fixed-point requantization between layers
(the M33 cluster's job on S2TA, Sec. 6.3). This is the representation
the DBB pipeline operates on: W-DBB pruning applies to the INT8 weights
and DAP to the INT8 activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant, prune_weights_dbb
from repro.nn.layers import AvgPool2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU
from repro.nn.model import Sequential
from repro.quant.int8 import (
    QuantParams,
    quantize,
    quantize_params,
    requantize,
    requantize_multiplier,
)

__all__ = ["QuantizedGemmLayer", "QuantizedSequential"]


@dataclass
class QuantizedGemmLayer:
    """One integer GEMM layer: INT8 weights, INT32 bias, requant params."""

    name: str
    weights_q: np.ndarray          # int8, (K, N)
    bias_q: Optional[np.ndarray]   # int32, (N,)
    multiplier: int
    shift: int
    source: Layer                  # the float layer (for lowering geometry)

    def gemm(self, a_q: np.ndarray) -> np.ndarray:
        """INT8 x INT8 -> INT32 accumulate -> requantized INT8."""
        acc = a_q.astype(np.int64) @ self.weights_q.astype(np.int64)
        if self.bias_q is not None:
            acc = acc + self.bias_q
        return requantize(acc, self.multiplier, self.shift)

    def prune_weights(self, spec: DBBSpec) -> None:
        """W-DBB pruning directly on the INT8 weights (column blocks)."""
        k = self.weights_q.shape[0]
        pad = (-k) % spec.block_size
        wt = self.weights_q.T
        if pad:
            wt = np.concatenate(
                [wt, np.zeros((wt.shape[0], pad), dtype=wt.dtype)], axis=1
            )
        self.weights_q = prune_weights_dbb(wt, spec)[:, :k].T

    def weights_compliant(self, spec: DBBSpec) -> bool:
        return is_dbb_compliant(self.weights_q.T, spec)


class QuantizedSequential:
    """Integer-only executor for a calibrated float model."""

    def __init__(self, float_model: Sequential,
                 gemm_layers: List[QuantizedGemmLayer],
                 act_params: List[QuantParams],
                 input_params: QuantParams):
        self._float_model = float_model
        self.gemm_layers = {g.name: g for g in gemm_layers}
        self._act_params = dict(zip((g.name for g in gemm_layers),
                                    act_params))
        self.input_params = input_params

    # ---------------------------------------------------------------- #

    @classmethod
    def quantize_model(
        cls, model: Sequential, calibration_x: np.ndarray
    ) -> "QuantizedSequential":
        """Post-training quantization with activation calibration.

        Runs the float model once on ``calibration_x`` to observe each
        GEMM layer's input/output ranges, then freezes symmetric INT8
        scales and per-layer fixed-point requant multipliers.
        """
        # capture per-layer float inputs/outputs
        captures: List[Tuple[Layer, np.ndarray, np.ndarray]] = []
        x = calibration_x
        for layer in model.layers:
            y = layer.forward(x)
            captures.append((layer, x, y))
            x = y
        input_params = quantize_params(
            float(calibration_x.min()), float(calibration_x.max()))
        gemm_layers: List[QuantizedGemmLayer] = []
        act_params: List[QuantParams] = []
        for layer, layer_in, layer_out in captures:
            if not isinstance(layer, (Conv2d, Linear)):
                continue
            w = layer.weights
            w_params = quantize_params(float(w.min()), float(w.max()))
            in_params = quantize_params(
                float(layer_in.min()), float(layer_in.max()))
            out_params = quantize_params(
                float(layer_out.min()), float(layer_out.max()))
            weights_q = quantize(w, w_params)
            scale_in_w = in_params.scale * w_params.scale
            bias_q = None
            if layer.bias is not None:
                bias_q = np.round(layer.bias / scale_in_w).astype(np.int64)
            multiplier, shift = requantize_multiplier(
                scale_in_w / out_params.scale)
            gemm_layers.append(QuantizedGemmLayer(
                name=layer.name,
                weights_q=weights_q,
                bias_q=bias_q,
                multiplier=multiplier,
                shift=shift,
                source=layer,
            ))
            act_params.append(out_params)
        return cls(model, gemm_layers, act_params, input_params)

    # ---------------------------------------------------------------- #

    def prune_weights(self, spec: DBBSpec,
                      skip: Optional[List[str]] = None) -> None:
        """W-DBB pruning of every quantized GEMM layer."""
        skip = set(skip or [])
        for name, layer in self.gemm_layers.items():
            if name not in skip:
                layer.prune_weights(spec)

    def forward(
        self,
        x: np.ndarray,
        dap_spec: Optional[DBBSpec] = None,
        dap_nnz: Optional[int] = None,
    ) -> np.ndarray:
        """Integer-only inference; returns dequantized outputs.

        With ``dap_spec``, DAP prunes the INT8 activations entering every
        GEMM layer after the first — operating on quantized codes exactly
        as the hardware DAP array does at the AB write port.
        """
        q = quantize(x, self.input_params)
        first_gemm_seen = False
        for layer in self._float_model.layers:
            if isinstance(layer, (Conv2d, Linear)):
                qlayer = self.gemm_layers[layer.name]
                if dap_spec is not None and first_gemm_seen:
                    nnz = dap_nnz if dap_nnz is not None else dap_spec.max_nnz
                    q = dap_prune(q, dap_spec, nnz=nnz).pruned
                first_gemm_seen = True
                if isinstance(layer, Linear):
                    q = qlayer.gemm(q)
                else:
                    n = q.shape[0]
                    patches, oh, ow = layer.lower(q.astype(np.int64))
                    q = qlayer.gemm(patches).reshape(
                        n, oh, ow, layer.out_channels)
            elif isinstance(layer, ReLU):
                q = np.maximum(q, 0)
            elif isinstance(layer, MaxPool2d):
                q = layer.forward(q)
            elif isinstance(layer, AvgPool2d):
                # integer average with round-to-nearest
                q = np.rint(layer.forward(q.astype(np.float64))).astype(q.dtype)
            elif isinstance(layer, Flatten):
                q = layer.forward(q)
            else:
                raise NotImplementedError(
                    f"integer execution of {type(layer).__name__} "
                    f"({layer.name!r}) is not supported"
                )
        final_gemm = self._float_model.gemm_layers[-1]
        out_params = self._act_params[final_gemm.name]
        return (q.astype(np.float64)
                - out_params.zero_point) * out_params.scale
