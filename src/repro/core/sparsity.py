"""Sparsity statistics and synthetic sparse-tensor generators.

The paper's microbenchmarks (Sec. 8.2, Fig. 9) sweep synthetic DNN layers
with controlled weight/activation sparsity. This module provides the
generators for unstructured (random) sparsity and DBB-compliant sparsity,
plus the statistics used throughout the evaluation (density, per-block NNZ
histograms, DBB violation rates).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dbb import DBBSpec, block_nnz

__all__ = [
    "density",
    "sparsity",
    "block_nnz",
    "block_nnz_histogram",
    "dbb_violation_rate",
    "random_unstructured",
    "random_dbb_tensor",
    "relu_activations",
    "effective_block_density",
]


def density(tensor: np.ndarray) -> float:
    """Fraction of non-zero elements."""
    tensor = np.asarray(tensor)
    if tensor.size == 0:
        return 0.0
    return float(np.count_nonzero(tensor)) / tensor.size


def sparsity(tensor: np.ndarray) -> float:
    """Fraction of zero elements (``1 - density``)."""
    return 1.0 - density(tensor)


def block_nnz_histogram(tensor: np.ndarray, block_size: int) -> Dict[int, int]:
    """Histogram {nnz: block count} over all blocks."""
    counts = block_nnz(tensor, block_size)
    values, freqs = np.unique(counts, return_counts=True)
    return {int(v): int(f) for v, f in zip(values, freqs)}


def dbb_violation_rate(tensor: np.ndarray, spec: DBBSpec) -> float:
    """Fraction of blocks exceeding the spec's density bound.

    For an unstructured tensor this predicts how much DAP/pruning must
    remove; for a correctly pruned tensor it is exactly 0.
    """
    counts = block_nnz(tensor, spec.block_size)
    if counts.size == 0:
        return 0.0
    return float(np.mean(counts > spec.max_nnz))


def effective_block_density(tensor: np.ndarray, spec: DBBSpec) -> float:
    """Average post-DAP stored density: mean(min(nnz, NNZ)) / BZ.

    This is the density the time-unrolled S2TA-AW datapath actually
    processes when blocks with fewer than NNZ non-zeros finish early is
    not exploited (the paper serializes ``na`` cycles per block where
    ``na`` is the layer's configured NNZ); it is used to estimate what a
    given NNZ choice preserves.
    """
    counts = np.minimum(block_nnz(tensor, spec.block_size), spec.max_nnz)
    return float(np.mean(counts)) / spec.block_size


def random_unstructured(
    shape: Tuple[int, ...],
    density_target: float,
    rng: Optional[np.random.Generator] = None,
    dtype=np.int8,
    value_range: Tuple[int, int] = (-127, 127),
) -> np.ndarray:
    """Random tensor with i.i.d. Bernoulli(density) non-zero pattern.

    Non-zero values are uniform over ``value_range`` excluding 0, matching
    the INT8 operand distributions used for switching-activity annotation.
    """
    if not 0.0 <= density_target <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density_target}")
    rng = rng or np.random.default_rng()
    mask = rng.random(shape) < density_target
    lo, hi = value_range
    magnitude = rng.integers(max(1, lo if lo > 0 else 1), hi + 1, size=shape)
    sign = rng.choice([-1, 1], size=shape)
    values = (magnitude * sign).astype(np.int64)
    out = np.where(mask, values, 0)
    return out.astype(dtype)


def random_dbb_tensor(
    shape: Tuple[int, ...],
    spec: DBBSpec,
    rng: Optional[np.random.Generator] = None,
    nnz: Optional[int] = None,
    dtype=np.int8,
    value_range: Tuple[int, int] = (-127, 127),
) -> np.ndarray:
    """Random dense-layout tensor that satisfies a DBB bound exactly.

    Each ``BZ`` block along the last axis receives exactly ``nnz``
    (default ``spec.max_nnz``) non-zeros at uniformly random positions.
    The returned array is dense-layout (zeros included); compress with
    :func:`repro.core.dbb.compress`.
    """
    rng = rng or np.random.default_rng()
    nnz = spec.max_nnz if nnz is None else nnz
    if not 0 <= nnz <= spec.block_size:
        raise ValueError(f"nnz must be in [0, BZ={spec.block_size}], got {nnz}")
    if shape[-1] % spec.block_size != 0:
        raise ValueError(
            f"last axis ({shape[-1]}) must be a multiple of BZ={spec.block_size}"
        )
    out = np.zeros(shape, dtype=np.int64)
    flat = out.reshape(-1, spec.block_size)
    lo, hi = value_range
    for i in range(flat.shape[0]):
        positions = rng.choice(spec.block_size, size=nnz, replace=False)
        magnitude = rng.integers(1, hi + 1, size=nnz)
        sign = rng.choice([-1, 1], size=nnz)
        flat[i, positions] = magnitude * sign
    return out.reshape(shape).astype(dtype)


def relu_activations(
    shape: Tuple[int, ...],
    density_target: float,
    rng: Optional[np.random.Generator] = None,
    dtype=np.int8,
) -> np.ndarray:
    """Synthetic post-ReLU activations: non-negative with controlled density.

    CNN activations after ReLU are zero-or-positive; the non-zero magnitudes
    follow a half-normal-ish distribution which matters for DAP magnitude
    ranking. Used by the DAP microbenchmarks.
    """
    rng = rng or np.random.default_rng()
    raw = rng.normal(0.0, 42.0, size=shape)
    threshold = np.quantile(raw, 1.0 - density_target) if density_target < 1.0 else -np.inf
    out = np.where(raw > threshold, np.clip(np.abs(raw), 1, 127), 0)
    return out.astype(dtype)
