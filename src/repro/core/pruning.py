"""Static weight DBB pruning (paper Sec. 4 and 8.1, "Training for W-DBB").

Weights are pruned *per block*: within every ``BZ`` block along the channel
axis, only the ``NNZ`` largest-magnitude elements are kept. The paper runs
this progressively over 20–50 epochs ("progressively pruning small-magnitude
weights within each DBB block"); :class:`PruningSchedule` models the ramp.

Tie-breaking matches the hardware DAP comparator cascade
(:mod:`repro.arch.dap_hw`): among equal magnitudes the lowest expanded
position wins, so software pruning and hardware selection agree bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dbb import DBBSpec, block_nnz

__all__ = [
    "topk_block_mask",
    "prune_blocks",
    "prune_weights_dbb",
    "is_dbb_compliant",
    "PruningSchedule",
]


def topk_block_mask(blocks: np.ndarray, keep: int) -> np.ndarray:
    """Boolean keep-mask of the ``keep`` largest-magnitude entries per row.

    ``blocks`` has shape ``(n_blocks, BZ)``. Zeros never count as kept
    unless a block has fewer than ``keep`` non-zeros, in which case all of
    its non-zeros are kept and the mask has fewer than ``keep`` bits set.
    Ties break toward the lowest index (stable sort), matching hardware.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2:
        raise ValueError(f"expected (n_blocks, BZ), got shape {blocks.shape}")
    n, bz = blocks.shape
    if not 0 <= keep <= bz:
        raise ValueError(f"keep must be in [0, BZ={bz}], got {keep}")
    if keep == 0:
        return np.zeros((n, bz), dtype=bool)
    if keep >= bz:
        return np.asarray(blocks != 0)
    # Integer inputs select on a widened integer magnitude (abs(-128)
    # overflows int8); floats go through float64 as before. Selection is
    # threshold-based rather than a stable argsort on -magnitude, but
    # implements the identical ordering: everything strictly above the
    # keep-th largest magnitude is kept, and ties *at* the threshold
    # fill the remaining quota lowest-index-first (exactly what a
    # stable descending sort yields — the hardware comparator-cascade
    # tie rule).
    widen = np.int16 if blocks.dtype.itemsize == 1 else (
        np.int64 if blocks.dtype.kind in "iu" else np.float64)
    magnitude = np.abs(blocks.astype(widen))
    threshold = np.sort(magnitude, axis=1)[:, bz - keep:bz - keep + 1]
    above = magnitude > threshold
    quota = keep - np.count_nonzero(above, axis=1, keepdims=True)
    at = magnitude == threshold
    mask = above | (at & (np.cumsum(at, axis=1) <= quota))
    return mask & (blocks != 0)


def prune_blocks(blocks: np.ndarray, keep: int) -> np.ndarray:
    """Zero all but the ``keep`` largest-magnitude entries of each row."""
    mask = topk_block_mask(blocks, keep)
    return np.where(mask, blocks, np.zeros_like(blocks))


def _as_blocks(tensor: np.ndarray, block_size: int) -> np.ndarray:
    flat = tensor.reshape(-1)
    if flat.size % block_size:
        raise ValueError(
            f"tensor size {flat.size} is not a multiple of BZ={block_size}; "
            f"pad the channel axis first"
        )
    return flat.reshape(-1, block_size)


def prune_weights_dbb(
    weights: np.ndarray, spec: DBBSpec, keep: Optional[int] = None
) -> np.ndarray:
    """Prune a weight tensor to satisfy a DBB bound (one-shot Top-NNZ).

    Blocks run along the last axis, which after im2col lowering is the GEMM
    reduction (input-channel) axis. The last axis length must be a multiple
    of ``BZ``. Returns a dense-layout array with the same shape and dtype.
    """
    weights = np.asarray(weights)
    keep = spec.max_nnz if keep is None else keep
    original_shape = weights.shape
    blocks = _as_blocks(weights, spec.block_size)
    pruned = prune_blocks(blocks, keep)
    return pruned.reshape(original_shape).astype(weights.dtype)


def is_dbb_compliant(tensor: np.ndarray, spec: DBBSpec) -> bool:
    """True when no block (along the last axis, ragged tail
    zero-padded) exceeds the spec's NNZ bound."""
    return bool(block_nnz(tensor, spec.block_size).max(initial=0)
                <= spec.max_nnz)


@dataclass
class PruningSchedule:
    """Progressive per-block magnitude pruning over fine-tuning epochs.

    The paper prunes progressively until the DBB constraint is met
    (Sec. 8.1). The schedule linearly ramps the per-block keep count from
    ``BZ`` (dense) at ``start_epoch`` down to the target ``NNZ`` at
    ``end_epoch``; between epochs the keep count is held.
    """

    spec: DBBSpec
    start_epoch: int = 0
    end_epoch: int = 20

    def __post_init__(self) -> None:
        if self.end_epoch < self.start_epoch:
            raise ValueError("end_epoch must be >= start_epoch")

    def keep_at(self, epoch: int) -> int:
        """Per-block keep count in effect at ``epoch``."""
        if epoch <= self.start_epoch:
            return self.spec.block_size
        if epoch >= self.end_epoch:
            return self.spec.max_nnz
        span = self.end_epoch - self.start_epoch
        progress = (epoch - self.start_epoch) / span
        keep_range = self.spec.block_size - self.spec.max_nnz
        return self.spec.block_size - int(round(progress * keep_range))

    def apply(self, weights: np.ndarray, epoch: int) -> np.ndarray:
        """Prune ``weights`` to the keep count for ``epoch``."""
        return prune_weights_dbb(weights, self.spec, keep=self.keep_at(epoch))

    def done(self, epoch: int) -> bool:
        """True once the target NNZ bound is in force."""
        return epoch >= self.end_epoch
