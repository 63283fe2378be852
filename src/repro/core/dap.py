"""Dynamic Activation Pruning — DAP (paper Sec. 5.1 and 6.2).

Activations are produced at runtime, so unlike weights they cannot be
pruned offline. DAP applies *Top-NNZ* pruning per ``BZ`` block: the
``NNZ`` largest-magnitude elements are kept, the rest are forced to zero,
making every block DBB-compliant on the fly.

This module is the *algorithmic* (numpy) model used by training and by the
performance model; :mod:`repro.arch.dap_hw` models the cascaded
magnitude-maxpool hardware of Fig. 8 and is tested for bit-exact agreement
with this implementation (identical tie-breaking: lowest index wins among
equal magnitudes).

The paper caps hardware DAP at NNZ <= 5 (Sec. 6.2): above 5/8 the gains are
marginal and the layer simply runs dense (8/8). :func:`tune_layer_nnz`
implements the per-layer density tuning that yields profiles such as
ResNet50's 8/8 (early layers) down to 2/8 (late layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dbb import DBBSpec, block_nnz, blocked_rows
from repro.core.pruning import topk_block_mask

__all__ = [
    "DAP_MAX_HARDWARE_NNZ",
    "DAPResult",
    "dap_prune_blocks",
    "dap_prune",
    "dap_keep_fraction",
    "tune_layer_nnz",
]

# The DAP array cascades at most 5 maxpool stages (Sec. 6.2); layers
# needing more density bypass DAP and run dense.
DAP_MAX_HARDWARE_NNZ = 5


@dataclass
class DAPResult:
    """Outcome of pruning one tensor with DAP.

    Attributes
    ----------
    pruned:
        Dense-layout tensor after Top-NNZ pruning (same shape as input).
    keep_mask:
        Boolean mask of surviving elements (the STE gradient mask used by
        DAP-aware fine-tuning, Sec. 8.1).
    spec:
        The DBB bound that was enforced.
    pruned_fraction:
        Fraction of originally non-zero elements that DAP removed.
    """

    pruned: np.ndarray
    keep_mask: np.ndarray
    spec: DBBSpec
    pruned_fraction: float


def dap_prune_blocks(blocks: np.ndarray, nnz: int) -> np.ndarray:
    """Top-``nnz`` magnitude pruning on ``(n_blocks, BZ)`` rows."""
    mask = topk_block_mask(blocks, nnz)
    return np.where(mask, blocks, np.zeros_like(blocks))


def dap_prune(
    activations: np.ndarray, spec: DBBSpec, nnz: Optional[int] = None
) -> DAPResult:
    """Apply DAP to an activation tensor (blocks along the last axis).

    The last axis is the channel axis (the paper decomposes activations
    into 1x1xBZ channel blocks); it is zero-padded to a whole number of
    blocks internally, and the padding is stripped from the result.

    When every block (the padded tail included) already holds at most
    ``nnz`` non-zeros, Top-NNZ keeps exactly the non-zeros, so the
    result is a copy of the input with ``keep_mask = activations != 0``
    and ``pruned_fraction = 0.0``, returned without the magnitude
    selection. Activations synthesized A-DBB-compliant take this path.
    """
    activations = np.asarray(activations)
    nnz = spec.max_nnz if nnz is None else nnz
    if not 0 < nnz <= spec.block_size:
        raise ValueError(f"nnz must be in [1, BZ={spec.block_size}], got {nnz}")
    spec = spec.with_nnz(nnz) if nnz != spec.max_nnz else spec
    if block_nnz(activations, spec.block_size).max(initial=0) <= nnz:
        return DAPResult(pruned=activations.copy(),
                         keep_mask=activations != 0,
                         spec=spec, pruned_fraction=0.0)
    original_shape = activations.shape
    blocks, work_shape, last = blocked_rows(activations, spec.block_size)
    mask_blocks = topk_block_mask(blocks, nnz)
    pruned_blocks = np.where(mask_blocks, blocks, np.zeros_like(blocks))
    pruned = pruned_blocks.reshape(work_shape)[:, :last].reshape(original_shape)
    keep_mask = mask_blocks.reshape(work_shape)[:, :last].reshape(original_shape)
    nonzero_before = np.count_nonzero(activations)
    nonzero_after = np.count_nonzero(pruned)
    pruned_fraction = (
        (nonzero_before - nonzero_after) / nonzero_before if nonzero_before else 0.0
    )
    return DAPResult(
        pruned=pruned.astype(activations.dtype),
        keep_mask=keep_mask,
        spec=spec,
        pruned_fraction=float(pruned_fraction),
    )


def dap_keep_fraction(activations: np.ndarray, spec: DBBSpec, nnz: int) -> float:
    """Fraction of the tensor's L1 mass that Top-``nnz`` DAP preserves.

    Used as the tuning signal for per-layer density selection: keeping the
    largest magnitudes preserves most of the signal energy even at low NNZ.
    """
    result = dap_prune(activations, spec, nnz=nnz)
    total = np.abs(activations.astype(np.float64)).sum()
    if total == 0:
        return 1.0
    kept = np.abs(result.pruned.astype(np.float64)).sum()
    return float(kept / total)


def tune_layer_nnz(
    activations: np.ndarray,
    spec: DBBSpec,
    keep_threshold: float = 0.98,
    max_nnz: int = DAP_MAX_HARDWARE_NNZ,
) -> int:
    """Choose the smallest per-layer NNZ preserving ``keep_threshold`` L1 mass.

    Models the paper's per-layer A-DBB tuning (Sec. 5.2, 8.1): early layers
    with dense, information-rich activations come out near 8/8 (dense
    bypass), later high-sparsity layers come out at 2/8–3/8. Returns
    ``spec.block_size`` (dense bypass) when even ``max_nnz`` falls short of
    the threshold, matching the hardware's 5-stage DAP cap.
    """
    if not 0.0 < keep_threshold <= 1.0:
        raise ValueError(f"keep_threshold must be in (0, 1], got {keep_threshold}")
    # Single-pass sweep: Top-k DAP keeps the k largest magnitudes of each
    # block, so the kept L1 mass at every candidate NNZ is one descending
    # sort + cumulative sum per block — instead of re-pruning the tensor
    # once per candidate as the naive loop did.
    raw_blocks, _, _ = blocked_rows(np.asarray(activations), spec.block_size)
    blocks = np.abs(raw_blocks.astype(np.float64))
    total = blocks.sum()
    if total == 0:
        return 1  # keep fraction is 1.0 at every NNZ; smallest wins
    descending = -np.sort(-blocks, axis=1)
    kept_at_nnz = descending.cumsum(axis=1).sum(axis=0)
    for nnz in range(1, max_nnz + 1):
        if kept_at_nnz[nnz - 1] / total >= keep_threshold:
            return nnz
    return spec.block_size
