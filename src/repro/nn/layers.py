"""Inference layers for the benchmark CNNs.

Layers are plain numpy and layout NHWC. GEMM-bearing layers (conv,
depthwise conv, linear) expose their lowered GEMM so the accelerator
models and the DBB pipeline can operate on exactly the matrices the
hardware would see. Weight tensors for conv layers are stored already
lowered as ``(KH*KW*C, F)`` with the channel axis innermost along the
reduction dim — the DBB blocking axis.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant, prune_weights_dbb
from repro.nn.im2col import conv_output_size, im2col

__all__ = [
    "Layer",
    "Conv2d",
    "DepthwiseConv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
]


class Layer:
    """Base inference layer."""

    name: str = "layer"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def has_gemm(self) -> bool:
        """True for layers lowered to GEMM on the accelerator."""
        return False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Conv2d(Layer):
    """2-D convolution, NHWC, lowered to im2col GEMM.

    ``weights`` is ``(KH*KW*C_in, F)``; ``bias`` is ``(F,)`` or None.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: Tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        name: str = "conv",
        rng: Optional[np.random.Generator] = None,
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.name = name
        k = kernel[0] * kernel[1] * in_channels
        if weights is None:
            rng = rng or np.random.default_rng()
            weights = rng.normal(0.0, np.sqrt(2.0 / k), size=(k, out_channels))
        weights = np.asarray(weights)
        if weights.shape != (k, out_channels):
            raise ValueError(
                f"weights must be ({k}, {out_channels}), got {weights.shape}"
            )
        self.weights = weights
        self.bias = None if bias is None else np.asarray(bias)

    @property
    def has_gemm(self) -> bool:
        return True

    @property
    def reduction_dim(self) -> int:
        return self.weights.shape[0]

    def lower(self, x: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """im2col-lower the input: returns (A matrix, OH, OW)."""
        return im2col(x, self.kernel, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        a, oh, ow = self.lower(x)
        out = a @ self.weights
        if self.bias is not None:
            out = out + self.bias
        return out.reshape(n, oh, ow, self.out_channels)

    def gemm_shape(self, input_hw: Tuple[int, int], batch: int = 1
                   ) -> Tuple[int, int, int]:
        """(M, K, N) of the lowered GEMM for a given input size."""
        oh = conv_output_size(input_hw[0], self.kernel[0], self.stride, self.padding)
        ow = conv_output_size(input_hw[1], self.kernel[1], self.stride, self.padding)
        return batch * oh * ow, self.reduction_dim, self.out_channels

    def prune_weights(self, spec: DBBSpec) -> None:
        """Prune this layer's weights in place to a W-DBB bound.

        Blocks run along the reduction (channel) axis, i.e. down each
        weight column, so the pruned matrix is compressed column-wise —
        matching :func:`repro.core.gemm.compress_operands`.
        """
        k = self.reduction_dim
        pad = (-k) % spec.block_size
        wt = self.weights.T  # (F, K), blocks along last axis
        if pad:
            wt = np.concatenate(
                [wt, np.zeros((wt.shape[0], pad), dtype=wt.dtype)], axis=1
            )
        pruned = prune_weights_dbb(wt, spec)[:, :k].T
        self.weights = pruned.astype(self.weights.dtype)

    def weights_compliant(self, spec: DBBSpec) -> bool:
        return is_dbb_compliant(self.weights.T, spec)


class Linear(Conv2d):
    """Fully connected layer as a 1x1 convolution over a 1x1 "image"."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        name: str = "fc",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(
            in_channels=in_features,
            out_channels=out_features,
            kernel=(1, 1),
            weights=weights,
            bias=bias,
            name=name,
            rng=rng,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, features), got {x.shape}")
        out = x @ self.weights
        if self.bias is not None:
            out = out + self.bias
        return out


class DepthwiseConv2d(Layer):
    """Depthwise 3x3-style convolution (one filter per channel), NHWC.

    ``weights`` is ``(KH, KW, C)``. Depthwise layers are memory bound on
    S2TA (Sec. 8.3); they are still pruned and executed, just modelled with
    a bandwidth cap by the performance model.
    """

    def __init__(
        self,
        channels: int,
        kernel: Tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        weights: Optional[np.ndarray] = None,
        name: str = "dwconv",
        rng: Optional[np.random.Generator] = None,
    ):
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.name = name
        if weights is None:
            rng = rng or np.random.default_rng()
            fan = kernel[0] * kernel[1]
            weights = rng.normal(0.0, np.sqrt(2.0 / fan),
                                 size=(kernel[0], kernel[1], channels))
        weights = np.asarray(weights)
        if weights.shape != (kernel[0], kernel[1], channels):
            raise ValueError(
                f"weights must be {(kernel[0], kernel[1], channels)}, "
                f"got {weights.shape}"
            )
        self.weights = weights

    @property
    def has_gemm(self) -> bool:
        return True

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        patches, oh, ow = im2col(x, self.kernel, self.stride, self.padding)
        # patches: (N*OH*OW, KH*KW*C) -> (N*OH*OW, KH*KW, C)
        patches = patches.reshape(-1, self.kernel[0] * self.kernel[1], c)
        w_flat = self.weights.reshape(-1, c)
        out = np.einsum("pkc,kc->pc", patches, w_flat)
        return out.reshape(n, oh, ow, c)

    def gemm_shape(self, input_hw: Tuple[int, int], batch: int = 1
                   ) -> Tuple[int, int, int]:
        oh = conv_output_size(input_hw[0], self.kernel[0], self.stride, self.padding)
        ow = conv_output_size(input_hw[1], self.kernel[1], self.stride, self.padding)
        # Depthwise: per output element the reduction is KH*KW only.
        return batch * oh * ow * self.channels, self.kernel[0] * self.kernel[1], 1


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0)


class _Pool2d(Layer):
    def __init__(self, kernel: int, stride: Optional[int] = None, name: str = "pool"):
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.name = name

    def _windows(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        oh = conv_output_size(h, self.kernel, self.stride, 0)
        ow = conv_output_size(w, self.kernel, self.stride, 0)
        out = np.empty((n, oh, ow, self.kernel * self.kernel, c), dtype=x.dtype)
        for i in range(oh):
            for j in range(ow):
                window = x[
                    :,
                    i * self.stride:i * self.stride + self.kernel,
                    j * self.stride:j * self.stride + self.kernel,
                    :,
                ]
                out[:, i, j] = window.reshape(n, -1, c)
        return out


class MaxPool2d(_Pool2d):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._windows(x).max(axis=3)


class AvgPool2d(_Pool2d):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._windows(x).mean(axis=3)


class Flatten(Layer):
    def __init__(self, name: str = "flatten"):
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)
