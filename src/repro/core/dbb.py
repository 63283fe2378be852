"""Density Bound Block (DBB) tensor format (paper Sec. 3.1, Fig. 4 and 5).

A DBB tensor divides a data tensor into 1-D blocks of ``block_size`` (``BZ``)
elements along the channel (innermost) dimension, and bounds the number of
non-zero elements per block by ``max_nnz`` (``NNZ``). Each block is stored
compressed: the (up to ``NNZ``) non-zero values, plus a ``BZ``-bit positional
bitmask ``M`` with bit *i* set when expanded position *i* holds a non-zero.

A block with fewer than ``NNZ`` non-zeros stores explicit zeros in the unused
value slots (Fig. 5), so the compressed value payload always has a fixed
size — this is what makes the hardware's worst-case workload statically
known. The paper writes a DBB configuration as the ratio ``NNZ/BZ`` (e.g.
``4/8``).

Storage layout (struct-of-arrays backend)
-----------------------------------------
:class:`DBBTensor` holds three ndarrays instead of per-block Python objects:

- ``values``    — ``(rows, n_blocks, NNZ)``, the fixed-size value payload.
  Slot order is the hardware stream order: stored non-zeros in ascending
  expanded position, then explicit zeros for the unused slots.
- ``masks``     — ``(rows, n_blocks)`` unsigned ints, the positional
  bitmasks (bit *i* set when expanded position *i* is non-zero).
- ``positions`` — ``(rows, n_blocks, NNZ)``, the expanded position each
  value slot scatters to. Invariant: positions are *distinct within a
  block*, and every unused slot points at a position whose expanded value
  is zero — so ``decompress`` is a single collision-free
  ``put_along_axis`` scatter.

Everything on the hot path (``compress``, ``decompress``, the GEMM kernels
in :mod:`repro.core.gemm`, the event counting in
:mod:`repro.arch.systolic`) operates on these arrays with whole-tensor
NumPy primitives (reshape, stable ``argsort``, ``take_along_axis``), never
per-block Python loops. Compression/expansion is exact (values are moved,
never transformed), so every consumer is bit-identical with the retained
per-block reference implementation in :mod:`repro.core.reference` — this
equivalence is fuzz-tested.

:class:`DBBBlock` remains as a thin, lazily-materialized per-block view
(:meth:`DBBTensor.row_blocks` / :attr:`DBBTensor.blocks`) for API
compatibility and for the unit-level datapath models that consume single
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "DBBSpec",
    "DBBBlock",
    "DBBTensor",
    "compress",
    "compress_block",
    "decompress",
    "expand_block",
    "pad_to_blocks",
    "blocked_rows",
    "block_nnz",
    "mask_to_positions",
    "positions_to_mask",
    "popcount",
]

# Largest BZ the array backend can bitmask (uint64). The serialized format
# (repro.core.serialize) has the same 64-element limit.
MAX_BLOCK_SIZE = 64

#: 256-entry popcount lookup table: NumPy<2 compatible (no np.bitwise_count).
_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)],
                         dtype=np.uint8)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned integer array.

    Views each element as its constituent bytes and sums a 256-entry
    lookup table, so it works on any NumPy (no ``np.bitwise_count``
    dependency) and any unsigned dtype.
    """
    masks = np.ascontiguousarray(masks)
    if masks.dtype.kind != "u":
        masks = masks.astype(np.uint64)
    as_bytes = masks.view(np.uint8).reshape(masks.shape + (masks.dtype.itemsize,))
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1, dtype=np.int64)


def _mask_dtype(block_size: int):
    return np.uint32 if block_size <= 32 else np.uint64


@dataclass(frozen=True)
class DBBSpec:
    """A DBB configuration ``NNZ/BZ``.

    Parameters
    ----------
    block_size:
        ``BZ``, number of expanded elements per block (paper uses 8).
    max_nnz:
        ``NNZ``, the density bound — maximum non-zeros per block.
    """

    block_size: int = 8
    max_nnz: int = 4

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not 0 < self.max_nnz <= self.block_size:
            raise ValueError(
                f"max_nnz must be in [1, block_size={self.block_size}], "
                f"got {self.max_nnz}"
            )

    @property
    def density_bound(self) -> float:
        """Maximum density this spec permits (``NNZ / BZ``)."""
        return self.max_nnz / self.block_size

    @property
    def is_dense(self) -> bool:
        """True when the bound is vacuous (``NNZ == BZ``, dense fallback)."""
        return self.max_nnz == self.block_size

    @property
    def ratio(self) -> str:
        """The paper's ``NNZ/BZ`` notation, e.g. ``"4/8"``."""
        return f"{self.max_nnz}/{self.block_size}"

    def compressed_value_bytes(self, element_bytes: int = 1) -> int:
        """Bytes of value payload per compressed block."""
        return self.max_nnz * element_bytes

    def mask_bytes(self) -> float:
        """Bytes of positional bitmask per block (may be fractional)."""
        return self.block_size / 8.0

    def compressed_block_bytes(self, element_bytes: int = 1) -> float:
        """Total compressed bytes per block: values plus bitmask."""
        return self.compressed_value_bytes(element_bytes) + self.mask_bytes()

    def compression_ratio(self, element_bytes: int = 1) -> float:
        """Dense bytes over compressed bytes for one block."""
        dense = self.block_size * element_bytes
        return dense / self.compressed_block_bytes(element_bytes)

    def with_nnz(self, max_nnz: int) -> "DBBSpec":
        """Return a copy of this spec with a different density bound."""
        return DBBSpec(block_size=self.block_size, max_nnz=max_nnz)


def positions_to_mask(positions: Iterable[int], block_size: int) -> int:
    """Encode non-zero positions as a bitmask (bit i == position i non-zero).

    Matches Fig. 5/8 of the paper, where e.g. positions {0, 2, 3, 6} in a
    BZ=8 block give ``M = 8'h4D`` (0b0100_1101).
    """
    mask = 0
    for pos in positions:
        if not 0 <= pos < block_size:
            raise ValueError(f"position {pos} out of range for BZ={block_size}")
        if mask & (1 << pos):
            raise ValueError(f"duplicate position {pos}")
        mask |= 1 << pos
    return mask


def mask_to_positions(mask: int, block_size: int) -> List[int]:
    """Decode a positional bitmask into an ascending list of positions."""
    if mask < 0 or mask >= (1 << block_size):
        raise ValueError(f"mask {mask:#x} out of range for BZ={block_size}")
    return [i for i in range(block_size) if mask & (1 << i)]


@dataclass(frozen=True)
class DBBBlock:
    """One compressed DBB block.

    ``values`` always has exactly ``spec.max_nnz`` entries; trailing slots of
    a block with fewer non-zeros hold explicit zeros and their positions are
    absent from ``mask``. Values are stored in ascending position order,
    which is the order the hardware streams them.
    """

    spec: DBBSpec
    values: Tuple
    mask: int

    def __post_init__(self) -> None:
        if len(self.values) != self.spec.max_nnz:
            raise ValueError(
                f"values must have {self.spec.max_nnz} slots, got {len(self.values)}"
            )
        positions = mask_to_positions(self.mask, self.spec.block_size)
        if len(positions) > self.spec.max_nnz:
            raise ValueError(
                f"mask {self.mask:#x} encodes {len(positions)} non-zeros, "
                f"exceeding the density bound {self.spec.ratio}"
            )

    @property
    def nnz(self) -> int:
        """Number of positions present in the bitmask."""
        return bin(self.mask).count("1")

    @property
    def positions(self) -> List[int]:
        """Ascending expanded positions of the stored non-zeros."""
        return mask_to_positions(self.mask, self.spec.block_size)

    def expand(self) -> np.ndarray:
        """Expand back to the dense ``BZ``-element block."""
        return expand_block(self, dtype=None)

    def nonzero_pairs(self) -> List[Tuple[int, object]]:
        """(position, value) pairs for the stored non-zeros, in stream order."""
        return list(zip(self.positions, self.values))


def compress_block(block: Sequence, spec: DBBSpec) -> DBBBlock:
    """Compress one dense ``BZ``-element block into a :class:`DBBBlock`.

    This is the per-block reference path; whole tensors go through the
    vectorized :func:`compress`.

    Raises
    ------
    ValueError
        If the block violates the density bound (more than ``NNZ`` non-zeros).
        Use :func:`repro.core.dap.dap_prune` or
        :func:`repro.core.pruning.prune_weights_dbb` first to enforce it.
    """
    arr = np.asarray(block)
    if arr.shape != (spec.block_size,):
        raise ValueError(
            f"block must have shape ({spec.block_size},), got {arr.shape}"
        )
    positions = np.flatnonzero(arr)
    if len(positions) > spec.max_nnz:
        raise ValueError(
            f"block has {len(positions)} non-zeros, exceeds bound {spec.ratio}; "
            f"prune first (DAP for activations, magnitude pruning for weights)"
        )
    mask = positions_to_mask(positions.tolist(), spec.block_size)
    values = [arr[p] for p in positions]
    values += [arr.dtype.type(0)] * (spec.max_nnz - len(values))
    return DBBBlock(spec=spec, values=tuple(values), mask=mask)


def expand_block(block: DBBBlock, dtype=None) -> np.ndarray:
    """Expand a compressed block back to its dense ``BZ`` elements."""
    spec = block.spec
    if dtype is None:
        dtype = np.asarray(block.values).dtype
    out = np.zeros(spec.block_size, dtype=dtype)
    for pos, val in zip(block.positions, block.values):
        out[pos] = val
    return out


def pad_to_blocks(vector: np.ndarray, block_size: int) -> np.ndarray:
    """Zero-pad a 1-D vector so its length is a multiple of ``block_size``."""
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
    remainder = vector.shape[0] % block_size
    if remainder == 0:
        return vector
    pad = block_size - remainder
    return np.concatenate([vector, np.zeros(pad, dtype=vector.dtype)])


def blocked_rows(
    tensor: np.ndarray, block_size: int
) -> Tuple[np.ndarray, Tuple[int, int], int]:
    """Block any tensor along its last axis: ``(blocks, work_shape, last)``.

    Flattens all leading axes, zero-pads the last axis to a whole number
    of blocks, and returns the ``(n_total_blocks, block_size)`` view plus
    the padded 2-D working shape and the original last-axis length —
    enough to undo the transform:
    ``blocks.reshape(work_shape)[:, :last].reshape(original_shape)``.
    Shared by DAP (software and hardware models) and the DBB codec.
    """
    tensor = np.asarray(tensor)
    last = tensor.shape[-1]
    pad = (-last) % block_size
    work = tensor.reshape(-1, last)
    if pad:
        work = np.concatenate(
            [work, np.zeros((work.shape[0], pad), dtype=work.dtype)], axis=1
        )
    return work.reshape(-1, block_size), work.shape, last


def block_nnz(tensor: np.ndarray, block_size: int) -> np.ndarray:
    """Non-zero count of every block of :func:`blocked_rows`, in the
    same order (blocks run along the last axis; the zero padding of a
    ragged tail counts nothing).

    Counts on the ``!= 0`` pattern: at ``block_size == 8`` each block is
    one ``uint64`` of 0/1 bytes, counted by ``np.bitwise_count``;
    otherwise the pattern's bytes are summed per block. A ``bool``
    tensor is its own pattern: C-contiguous with a whole number of
    8-blocks per row, it is counted in place through a ``uint64`` view;
    any other ``bool`` layout is copied into the padded buffer instead
    of compared (a copy costs a quarter of ``!= 0`` on ``bool``).
    """
    tensor = np.asarray(tensor)
    if tensor.size == 0:
        return np.zeros(0, dtype=np.uint8)
    last = tensor.shape[-1]
    is_bool = tensor.dtype == bool
    if (is_bool and block_size == 8 and last % 8 == 0
            and tensor.flags.c_contiguous):
        return np.bitwise_count(tensor.reshape(-1, last).view(np.uint64)
                                ).reshape(-1)
    work = tensor.reshape(-1, last)
    # C-ordered and zero-padded whatever the input's layout (the weight
    # path passes a transposed view).
    nonzero = np.zeros((work.shape[0], last + (-last) % block_size),
                       dtype=bool)
    if is_bool:
        nonzero[:, :last] = work
    else:
        np.not_equal(work, 0, out=nonzero[:, :last])
    if block_size == 8:
        return np.bitwise_count(nonzero.view(np.uint64)).reshape(-1)
    return nonzero.reshape(-1, block_size).view(np.uint8).sum(axis=1)


def _compress_arrays(
    matrix: np.ndarray, spec: DBBSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core of :func:`compress`: dense 2-D -> (values, masks,
    positions) arrays. ``matrix`` must already be 2-D."""
    rows, cols = matrix.shape
    bz = spec.block_size
    if bz > MAX_BLOCK_SIZE:
        raise ValueError(
            f"block_size {bz} exceeds the {MAX_BLOCK_SIZE}-element limit of "
            f"the array backend"
        )
    n_blocks = -(-cols // bz)
    padded = np.zeros((rows, n_blocks * bz), dtype=matrix.dtype)
    padded[:, :cols] = matrix
    work = padded.reshape(rows, n_blocks, bz)
    nonzero = work != 0
    counts = nonzero.sum(axis=-1)
    if counts.size and int(counts.max()) > spec.max_nnz:
        r, b = np.unravel_index(int(np.argmax(counts)), counts.shape)
        raise ValueError(
            f"block has {int(counts[r, b])} non-zeros, exceeds bound "
            f"{spec.ratio}; prune first (DAP for activations, magnitude "
            f"pruning for weights)"
        )
    # Stable argsort of the zero-flag puts non-zero positions first in
    # ascending order, then the zero positions (ascending). The first NNZ
    # entries are therefore the stream-order scatter targets, all distinct,
    # with every unused slot aimed at a zero element — the invariant that
    # makes decompression a collision-free scatter.
    order = np.argsort(~nonzero, axis=-1, kind="stable")
    positions = order[..., : spec.max_nnz].astype(np.uint8)
    values = np.take_along_axis(work, positions, axis=-1)
    bit_weights = (np.uint64(1) << np.arange(bz, dtype=np.uint64))
    masks = (nonzero * bit_weights).sum(axis=-1, dtype=np.uint64)
    return values, masks.astype(_mask_dtype(bz)), positions


class DBBTensor:
    """A 2-D tensor compressed in DBB format along its last axis.

    The paper blocks tensors along the channel dimension (Fig. 5); after
    im2col lowering of an NHWC convolution, the GEMM reduction axis is the
    patch axis ``k = kh * kw * cin`` with the channel innermost, and it is
    the last axis here. Rows are independent; each row is a
    sequence of compressed blocks.

    Attributes
    ----------
    spec: the DBB configuration.
    shape: the original (unpadded) dense shape ``(rows, cols)``.
    values: ``(rows, n_blocks, NNZ)`` fixed-size value payload.
    masks: ``(rows, n_blocks)`` positional bitmasks.
    positions: ``(rows, n_blocks, NNZ)`` per-slot scatter targets.

    The arrays are shared, not copied — treat a ``DBBTensor`` as immutable.
    ``blocks[r][b]`` / :meth:`row_blocks` materialize :class:`DBBBlock`
    views lazily for per-block consumers.
    """

    def __init__(self, spec: DBBSpec, shape: Tuple[int, int],
                 values=None, masks=None, positions=None, blocks=None):
        self.spec = spec
        self.shape = shape
        if blocks is None and isinstance(values, list):
            # Legacy positional call: DBBTensor(spec, shape, blocks).
            blocks, values = values, None
        if blocks is not None:
            values, masks, positions = self._arrays_from_blocks(
                spec, shape, blocks)
        if values is None or masks is None or positions is None:
            raise ValueError(
                "DBBTensor needs either (values, masks, positions) arrays "
                "or a blocks list"
            )
        self.values = np.asarray(values)
        self.masks = np.asarray(masks)
        self.positions = np.asarray(positions)
        self._blocks_cache: Optional[List[List[DBBBlock]]] = None

    @staticmethod
    def _arrays_from_blocks(spec: DBBSpec, shape: Tuple[int, int], blocks):
        """Convert a legacy list-of-lists of :class:`DBBBlock` to arrays."""
        rows = len(blocks)
        n_blocks = len(blocks[0]) if rows else 0
        dense = np.zeros((rows, n_blocks * spec.block_size))
        for r, row in enumerate(blocks):
            for b, block in enumerate(row):
                start = b * spec.block_size
                dense[r, start:start + spec.block_size] = expand_block(
                    block, dtype=np.float64)
        return _compress_arrays(dense, spec)

    @property
    def blocks_per_row(self) -> int:
        return self.masks.shape[1] if self.masks.ndim == 2 else 0

    @property
    def num_rows(self) -> int:
        return self.masks.shape[0]

    @property
    def nnz(self) -> int:
        """Total non-zeros stored (from the bitmasks)."""
        return int(popcount(self.masks).sum())

    @property
    def density(self) -> float:
        """Stored non-zeros over the original dense element count."""
        rows, cols = self.shape
        return self.nnz / float(rows * cols) if rows * cols else 0.0

    def storage_bytes(self, element_bytes: int = 1) -> float:
        """Compressed footprint: fixed value payload + bitmasks."""
        n_blocks = self.num_rows * self.blocks_per_row
        return n_blocks * self.spec.compressed_block_bytes(element_bytes)

    def dense_bytes(self, element_bytes: int = 1) -> int:
        rows, cols = self.shape
        return rows * cols * element_bytes

    def _dense_padded(self, dtype=np.float64) -> np.ndarray:
        """Expand to the block-padded dense array ``(rows, n_blocks * BZ)``.

        One collision-free scatter: positions are distinct per block and
        unused slots carry zero values aimed at zero positions.
        """
        rows = self.num_rows
        bz = self.spec.block_size
        out = np.zeros((rows, self.blocks_per_row, bz), dtype=dtype)
        if self.values.size:
            np.put_along_axis(out, self.positions.astype(np.intp),
                              self.values.astype(dtype), axis=-1)
        return out.reshape(rows, self.blocks_per_row * bz)

    def to_dense(self, dtype=None) -> np.ndarray:
        """Decompress to the original dense array (padding removed)."""
        rows, cols = self.shape
        dense = self._dense_padded(
            dtype=dtype if dtype is not None else np.float64)
        return dense[:, :cols]

    def row_blocks(self, row: int) -> List[DBBBlock]:
        """Materialize row ``row`` as :class:`DBBBlock` views (lazy)."""
        if self._blocks_cache is not None:
            return self._blocks_cache[row]
        return [
            DBBBlock(spec=self.spec,
                     values=tuple(self.values[row, b]),
                     mask=int(self.masks[row, b]))
            for b in range(self.blocks_per_row)
        ]

    @property
    def blocks(self) -> List[List[DBBBlock]]:
        """Lazily-materialized (and cached) per-block object view."""
        if self._blocks_cache is None:
            cache = []
            for r in range(self.num_rows):
                cache.append([
                    DBBBlock(spec=self.spec,
                             values=tuple(self.values[r, b]),
                             mask=int(self.masks[r, b]))
                    for b in range(self.blocks_per_row)
                ])
            self._blocks_cache = cache
        return self._blocks_cache

    def __repr__(self) -> str:
        return (f"DBBTensor(spec={self.spec.ratio}, shape={self.shape}, "
                f"density={self.density:.3f})")


def compress(matrix: np.ndarray, spec: DBBSpec) -> DBBTensor:
    """Compress a 1-D or 2-D array into DBB format along the last axis.

    The array must already satisfy the density bound per block; 1-D input is
    treated as a single row. Rows are zero-padded to a whole number of
    blocks (padding never violates the bound). Fully vectorized — no
    per-block Python objects are created; :class:`DBBBlock` views
    materialize lazily on access.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {matrix.shape}")
    values, masks, positions = _compress_arrays(matrix, spec)
    return DBBTensor(spec=spec, shape=matrix.shape,
                     values=values, masks=masks, positions=positions)


def decompress(tensor: DBBTensor, dtype=None) -> np.ndarray:
    """Inverse of :func:`compress` (round-trips exactly)."""
    return tensor.to_dense(dtype=dtype)
