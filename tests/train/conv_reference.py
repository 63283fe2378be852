"""Naive NHWC convolution, the loop-nest reference for the im2col
lowering and the autograd convolution built on it."""

import numpy as np


def reference_conv(x, w, kernel, stride, padding):
    """Convolve NHWC ``x`` with lowered ``(KH*KW*C, F)`` weights ``w``
    one output pixel at a time."""
    n, h, width, c = x.shape
    kh, kw = kernel
    f = w.shape[-1]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (width + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oh, ow, f))
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = xp[b, i * stride:i * stride + kh,
                           j * stride:j * stride + kw, :]
                out[b, i, j] = patch.reshape(-1) @ w
    return out
