"""Operand non-zero censuses and synthetic sparse-tensor generators.

:class:`GemmOperands` is the non-zero census every functional engine
reads its counts from (with :func:`column_nnz`, its per-column count
kernel). Beside it: :func:`density`, the non-zero fraction, and the
random generators of unstructured and DBB-compliant INT8 tensors that
the ablations and the kernel tests draw their operands from.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dbb import DBBSpec, block_nnz
from repro.obs import trace as obs_trace

__all__ = [
    "GemmOperands",
    "column_nnz",
    "density",
    "block_nnz",
    "random_unstructured",
    "random_dbb_tensor",
]


def density(tensor: np.ndarray) -> float:
    """Fraction of non-zero elements."""
    tensor = np.asarray(tensor)
    if tensor.size == 0:
        return 0.0
    return float(np.count_nonzero(tensor)) / tensor.size


#: Rows per ``uint8`` partial sum of :func:`column_nnz`: 255 ones still
#: fit in a byte.
_CHUNK_ROWS = 255


def column_nnz(tensor: np.ndarray) -> np.ndarray:
    """Non-zero count of every column of a 2-D tensor, as ``int64``.

    Bit-equal to ``np.count_nonzero(tensor, axis=0)``: the 0/1 bytes of
    the ``bool`` pattern are summed as ``uint8`` over chunks of at most
    255 rows, and only the chunk sums widen to ``int64`` (a fraction of
    ``count_nonzero``'s per-column cost). A non-``bool`` tensor is
    compared with zero first.
    """
    tensor = np.asarray(tensor)
    ones = (tensor if tensor.dtype == bool else tensor != 0).view(np.uint8)
    rows, cols = ones.shape
    full = rows - rows % _CHUNK_ROWS
    counts = ones[full:].sum(axis=0, dtype=np.int64)
    if full:
        chunks = ones[:full].reshape(full // _CHUNK_ROWS, _CHUNK_ROWS, cols)
        counts += chunks.sum(axis=1, dtype=np.uint8).sum(axis=0,
                                                         dtype=np.int64)
    return counts


#: Elements per unpacked ``bool`` row chunk of
#: :meth:`GemmOperands.row_chunks` (rounded up to whole row groups).
_CHUNK_ELEMENTS = 1 << 16


def _unpacked(bits: np.ndarray, width: int) -> np.ndarray:
    """The ``bool`` ``(rows, width)`` pattern of DBB bitmasks ``bits``."""
    return np.unpackbits(bits, axis=1, count=width,
                         bitorder="little").view(bool)


class GemmOperands:
    """The operands of one GEMM ``C = A @ W`` and their non-zero census.

    ``A`` is ``(m, k)`` and ``W`` is ``(k, n)``; DBB blocks run along
    the reduction axis ``k`` of ``A`` and of ``W.T``. Engines read the
    shape from :attr:`m` / :attr:`k` / :attr:`n` and every count from
    the census: per-index non-zeros, totals and DBB block maxima, each
    shared by every engine run on the same operands (the layer runner
    builds one census per operand group). Engines that read positions
    read them as the operands' DBB bitmasks (:attr:`a_bits`,
    :attr:`w_bits`: one byte per 8-block, as S2TA stores them), unpacked
    a bounded row chunk at a time (:meth:`row_chunks`), so no engine
    widens a whole operand.

    ``GemmOperands(a, w)`` wraps concrete tensors: each count is taken
    on first use, inside a ``count`` trace span. The counts are pure
    functions of the operands, so the arrays must not change while the
    census is alive. :meth:`from_census` starts from a drawn census
    instead (:func:`repro.workloads.from_spec.spec_census`): the counts
    are known up front, the bitmasks are drawn — read-only, inside a
    ``materialize`` trace span — only when an engine first reads
    positions, and ``A`` / ``W`` are unpacked from them only when read.
    """

    def __init__(self, a: np.ndarray, w: np.ndarray):
        a = np.asarray(a)
        w = np.asarray(w)
        if a.ndim != 2 or w.ndim != 2 or a.shape[1] != w.shape[0]:
            raise ValueError(f"shape mismatch: A {a.shape} @ W {w.shape}")
        self.m, self.k = a.shape
        self.n = w.shape[1]
        self.a = a
        self.w = w
        self._census = {}
        self._block_max: Dict[Tuple[str, int], int] = {}

    @classmethod
    def from_census(cls, a, w) -> "GemmOperands":
        """Operands known by their censuses: ``a`` of ``A`` and ``w`` of
        ``W.T``, each a :class:`~repro.workloads.from_spec.DbbCensus`
        (``rows``, ``width``, ``col_nnz``, ``block_size``,
        ``block_max`` and a ``bitmasks()`` returning the ``uint8``
        ``(rows, ceil(width / 8))`` DBB bitmasks)."""
        if a.width != w.width:
            raise ValueError(
                f"shape mismatch: A ({a.rows}, {a.width}) @ W "
                f"({w.width}, {w.rows})")
        self = cls.__new__(cls)
        self.m, self.k, self.n = a.rows, a.width, w.rows
        self._census = {"a": a, "w": w}
        self.a_col_nnz = a.col_nnz
        self.w_row_nnz = w.col_nnz
        self._block_max = {("a", a.block_size): a.block_max,
                           ("w", w.block_size): w.block_max}
        return self

    @property
    def masks_materialized(self) -> int:
        """How many of the census's operands have had their positions
        (bitmasks) drawn."""
        return sum(f"{name}_bits" in self.__dict__ for name in self._census)

    def _bits(self, name: str, mask) -> np.ndarray:
        census = self._census.get(name)
        if census is None:
            with obs_trace.span(f"{name}_bits", "count"):
                return np.packbits(mask(), axis=1, bitorder="little")
        with obs_trace.span(name, "materialize", rows=census.rows,
                            width=census.width):
            return census.bitmasks()

    @cached_property
    def a_bits(self) -> np.ndarray:
        """DBB bitmasks of ``A``'s rows, ``uint8`` ``(m, ceil(k / 8))``
        (bit *i* of a byte set when position *i* of its block is
        non-zero)."""
        return self._bits("a", lambda: self.a_mask)

    @cached_property
    def w_bits(self) -> np.ndarray:
        """DBB bitmasks of ``W.T``'s rows, ``uint8`` ``(n, ceil(k /
        8))``."""
        return self._bits("w", lambda: self.w_mask.T)

    @cached_property
    def a(self) -> np.ndarray:
        """``A`` (unpacked from :attr:`a_bits` for a drawn census)."""
        out = _unpacked(self.a_bits, self.k)
        out.flags.writeable = False
        return out

    @cached_property
    def w(self) -> np.ndarray:
        """``W`` (unpacked from :attr:`w_bits` for a drawn census)."""
        out = _unpacked(self.w_bits, self.k).T
        out.flags.writeable = False
        return out

    @cached_property
    def a_mask(self) -> np.ndarray:
        """``A != 0`` (``A`` itself when it is already ``bool``)."""
        if self.a.dtype == bool:
            return self.a
        with obs_trace.span("a_mask", "count"):
            return self.a != 0

    @cached_property
    def w_mask(self) -> np.ndarray:
        """``W != 0`` (``W`` itself when it is already ``bool``)."""
        if self.w.dtype == bool:
            return self.w
        with obs_trace.span("w_mask", "count"):
            return self.w != 0

    def row_chunks(self, operand: str, align: int = 1):
        """Yield ``(start, chunk)`` over the rows of ``A`` (``operand``
        ``"a"``) or ``W.T`` (``"w"``): ``chunk`` is rows ``start:start +
        len(chunk)`` as a C-ordered ``bool`` ``(rows, k)`` array unpacked
        from the bitmasks, at most about :data:`_CHUNK_ELEMENTS`
        elements and never more than 255 row groups. Every ``start`` is
        a multiple of ``align``, so row ``start + i`` is in residue
        class ``i % align``."""
        bits = self.a_bits if operand == "a" else self.w_bits
        groups = _CHUNK_ELEMENTS // (align * max(self.k, 1))
        rows = align * min(max(groups, 1), 255)
        for start in range(0, bits.shape[0], rows):
            yield start, _unpacked(bits[start:start + rows], self.k)

    def a_class_nnz(self, period: int) -> np.ndarray:
        """Non-zeros of ``A`` per (row class ``i % period``, reduction
        index): a fresh ``(period, k)`` array of the narrowest unsigned
        dtype that holds ``ceil(m / period)``, summed chunk by chunk
        from the bitmasks."""
        out = np.zeros((period, self.k),
                       dtype=np.min_scalar_type(-(-self.m // period)))
        if not self.k:
            return out
        for _, chunk in self.row_chunks("a", align=period):
            rows = chunk.shape[0]
            full = rows - rows % period
            if full:
                # At most 255 row groups per chunk: the sums fit a byte.
                out += chunk[:full].view(np.uint8).reshape(
                    -1, period, self.k).sum(axis=0, dtype=np.uint8)
            out[:rows - full] += chunk[full:]
        return out

    @cached_property
    def a_col_nnz(self) -> np.ndarray:
        """Non-zeros of ``A`` per reduction index, ``(k,)`` int64."""
        with obs_trace.span("a_col_nnz", "count"):
            return column_nnz(self.a_mask)

    @cached_property
    def w_row_nnz(self) -> np.ndarray:
        """Non-zeros of ``W`` per reduction index, ``(k,)`` int64."""
        with obs_trace.span("w_row_nnz", "count"):
            return column_nnz(self.w_mask.T)

    @property
    def a_nonzeros(self) -> int:
        """Total non-zeros of ``A``."""
        return int(self.a_col_nnz.sum())

    @property
    def w_nonzeros(self) -> int:
        """Total non-zeros of ``W``."""
        return int(self.w_row_nnz.sum())

    @property
    def a_density(self) -> float:
        """:func:`density` of ``A``, bit-equal."""
        size = self.m * self.k
        return float(self.a_nonzeros) / size if size else 0.0

    @property
    def w_density(self) -> float:
        """:func:`density` of ``W``, bit-equal."""
        size = self.k * self.n
        return float(self.w_nonzeros) / size if size else 0.0

    def a_block_max(self, block_size: int) -> int:
        """Most non-zeros in any ``block_size`` block of ``A`` along
        ``k`` (0 for an empty ``A``)."""
        return self._max_block("a", block_size)

    def w_block_max(self, block_size: int) -> int:
        """Most non-zeros in any ``block_size`` block of ``W.T`` along
        ``k`` — what the W-DBB compliance check compares."""
        return self._max_block("w", block_size)

    def _max_block(self, operand: str, block_size: int) -> int:
        key = (operand, block_size)
        if key not in self._block_max:
            tensor = self.a_mask if operand == "a" else self.w_mask.T
            with obs_trace.span(f"{operand}_block_max", "count",
                                block_size=block_size):
                self._block_max[key] = int(
                    block_nnz(tensor, block_size).max(initial=0))
        return self._block_max[key]


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

