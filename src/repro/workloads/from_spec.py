"""Concrete operand synthesis from analytic :class:`LayerSpec`s.

The functional full-model pipeline (``AcceleratorModel.run_model_functional``)
needs, for every layer of a benchmark network, the non-zero census of
its two GEMM operands, matched to the analytic density profile the
performance model prices:

- the GEMM shape is the spec's ``m``/``k``/``n`` (the im2col lowering of
  the layer: ``k = kh * kw * cin`` is the patch axis DBB blocks run along,
  and need not be a multiple of ``BZ``);
- weights satisfy the layer's W-DBB bound (``w_nnz`` per ``BZ`` block)
  with element density ``layer.w_density``;
- activations satisfy the layer's A-DBB bound (``a_nnz`` per block, so
  the simulator's DAP pass is a no-op and all four execution modes see
  the *same* element density ``layer.a_density``, exactly as the analytic
  models assume).

Density is hit *exactly in total*: the per-block non-zero counts are a
largest-remainder allocation of ``round(rows * width * density)``
non-zeros across blocks (the blocks that get the rounding "+1" are a
uniformly random subset of each remainder class, which keeps the
allocation unbiased), and each block's pattern is uniform among the
8-bit masks with that popcount inside the block's valid width. The
exact total is what lets the fixed-dataflow baselines (SparTen /
Eyeriss v2 / SCNN) cross-validate their sparsity-compressed SRAM and
DRAM byte counters *bit-for-bit* between the analytic and functional
tiers: the non-zero count of a synthesized operand equals the analytic
models' ``round(elements * density)`` closed form whenever
``density <= nnz_cap / BLOCK_SIZE`` (above the cap the operand
saturates at the cap).

Because DBB sparsity is statically predictable, the census is drawn
first and positions only on demand (:func:`blocked_density_census`).
Rows are exchangeable within a block column (they share its cap, floor
and remainder), so the law above factors into three steps:

1. *allocation*: per round and remainder class (descending), one
   ``multivariate_hypergeometric`` draw picks how many blocks of each
   (block column, popcount level) get the "+1" — the counts of a
   uniform subset of the class's blocks with room, multi-round
   allocations included;
2. *patterns*: per popcount level, one multinomial draw (every column
   at once: a ``multinomial``, or one pick per block when a column has
   few blocks per mask) spreads each block column's blocks at that
   level uniformly over the masks of that popcount. Picks are drawn
   from the same stream in runs of whole rows of at most a fixed
   number of picks, which draws exactly what one call would, so the
   draw's working set does not grow with the operand. The mask
   histograms are kept in the narrowest unsigned dtype that holds
   ``rows``. The per-index non-zeros are the mask histograms times the
   masks' bits; the total is exact by construction and the DBB block
   maximum is the highest occupied level;
3. *positions*, only when they are read (:meth:`DbbCensus.bitmasks`):
   each block column's multiset of 1-byte DBB bitmasks is expanded and
   one ``permuted(..., axis=0)`` shuffles every column independently —
   given the census, a uniform arrangement, which is exactly the joint
   law of drawing each block's pattern in place.
   :meth:`DbbCensus.materialize` unpacks those bitmasks to a ``bool``
   mask.

:func:`spec_census` draws the census of both operands of a layer into
a :class:`~repro.core.sparsity.GemmOperands` that draws the bitmasks of
``A`` / ``W`` on first read, each permuted from its own
``SeedSequence`` child, so a pattern never depends on whether or in
which order the other operand or the values were drawn. SA, SA-ZVCG,
SA-SMT, S2TA-W and S2TA-AW read only counts, so a Fig. 11 task never
draws a position; SparTen (``W``), Eyeriss v2 (both) and SCNN (``A``)
read the bitmasks in bounded row chunks, and anything that reads a GEMM
output or DAP-prunes unpacks the whole mask. :func:`spec_operands`
is the census followed by both materializations: read-only ``bool``
masks.

Callers that read a GEMM output need values: :func:`spec_int8_operands`
puts uniform non-zero INT8 magnitudes on exactly the patterns
:func:`spec_operands` returns. The values come from a separate stream
of the same ``SeedSequence`` entropy, so the patterns never depend on
whether values were drawn.

Nothing is memoized here. The layer runner (:mod:`repro.eval.runner`)
groups the tasks of a batch by :func:`operand_key`, draws each key's
census once with :func:`spec_census`, runs every accelerator of
the group on it and drops it, so each process holds at most one
group's operands at a time.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.sparsity import GemmOperands
from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace

__all__ = [
    "DbbCensus",
    "blocked_density_census",
    "blocked_density_mask",
    "spec_census",
    "spec_operands",
    "spec_int8_operands",
    "operand_key",
    "operand_densities",
]


@lru_cache(maxsize=None)
def _mask_table(valid: int):
    """The ``valid``-bit block bitmasks (``uint8``, bit *i* set when
    position *i* holds a non-zero — the order of
    :mod:`repro.core.dbb`) sorted by (popcount, value), with the offset
    and count of each popcount group in that order."""
    masks = np.arange(1 << valid, dtype=np.uint16).astype(np.uint8)
    pop = np.bitwise_count(masks)
    groups = [np.flatnonzero(pop == c) for c in range(valid + 1)]
    counts = np.array([g.size for g in groups])
    offsets = np.cumsum(counts) - counts
    return (masks[np.concatenate(groups)], offsets.astype(np.int16),
            counts.astype(np.float64))


def _allocation(rows: int, width: int, nnz_cap: int, density: float):
    """Per block column of a ``(rows, width)`` pattern — its cap, the
    floor of its real-valued target clipped to the cap, and the
    target's remainder — plus the pattern's exact non-zero total.

    The total is ``round(rows * width * density)`` (the same expression
    as the analytic models' stored-byte closed forms, so the two tiers
    agree bit-for-bit on nnz), clipped to what the caps allow and never
    below the per-block floors: it is exactly what
    :func:`blocked_density_census` allocates.
    """
    kb = -(-width // BLOCK_SIZE)
    valid = np.full(kb, BLOCK_SIZE, dtype=np.int64)
    valid[-1] = width - (kb - 1) * BLOCK_SIZE
    cap = np.minimum(nnz_cap, valid)
    target = density * valid
    base = np.minimum(np.floor(target).astype(np.int64), cap)
    frac = target - np.floor(target)
    total = min(int(round(rows * width * density)), rows * int(cap.sum()))
    return cap, base, frac, max(total, rows * int(base.sum()))


def _allocate_levels(rows: int, cap: np.ndarray, base: np.ndarray,
                     frac: np.ndarray, total: int,
                     rng: np.random.Generator) -> np.ndarray:
    """``(block columns, BLOCK_SIZE + 1)`` count of the blocks at each
    non-zero level after the largest-remainder allocation of ``total``.

    Every block starts at its column's floor. Each round visits the
    (at most two: full blocks and the ragged tail) remainder classes in
    descending order and bumps a uniformly random subset of the class's
    blocks still below their cap — one ``multivariate_hypergeometric``
    draw of how many come from each (column, level) group, which is how
    many a uniform subset of the class's blocks holds.
    """
    counts = np.zeros((cap.size, BLOCK_SIZE + 1), dtype=np.int64)
    counts[np.arange(cap.size), base] = rows
    room = np.arange(BLOCK_SIZE + 1) < cap[:, None]
    deficit = total - rows * int(base.sum())
    while deficit > 0:
        for remainder in sorted(set(frac.tolist()), reverse=True):
            if deficit == 0:
                break
            bumped = np.where(room & (frac == remainder)[:, None], counts, 0)
            eligible = int(bumped.sum())
            take = min(deficit, eligible)
            if take < eligible:
                groups = np.flatnonzero(bumped)
                bumped.flat[groups] = rng.multivariate_hypergeometric(
                    bumped.flat[groups], take)
            counts -= bumped
            counts[:, 1:] += bumped[:, :-1]
            deficit -= take
    return counts


#: Blocks per mask below which :func:`_uniform_counts` draws one mask
#: per block instead of one multinomial per block column (whose cost
#: grows with the number of masks, not of blocks).
_DRAWS_PER_MASK = 16

#: Most picks :func:`_uniform_counts` draws at once. Its pick arrays
#: are bounded by this, not by the operand (a row with more blocks is
#: a run of its own).
_PICK_RUN = 1 << 16


def _uniform_counts(blocks: np.ndarray, size: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``(len(blocks), size)`` counts of ``blocks[i]`` blocks spread
    uniformly over ``size`` masks, independently per row — a multinomial
    law, drawn by whichever of two exact methods is cheaper for the
    shape: a uniform pick per block (few blocks per mask) or
    ``multinomial`` (many).

    The picks are drawn in runs of whole rows, at most
    :data:`_PICK_RUN` picks a run. Consecutive ``integers`` calls on
    one generator draw exactly what one call for all the picks would,
    values and generator state alike, so the run size never moves a
    count."""
    total = int(blocks.sum())
    if total >= _DRAWS_PER_MASK * size * blocks.size:
        return rng.multinomial(blocks, np.full(size, 1.0 / size))
    if total <= _PICK_RUN:
        return _picked_counts(blocks, size, rng)
    counts = np.empty((blocks.size, size), dtype=np.int64)
    ends = np.cumsum(blocks)
    start = 0
    while start < blocks.size:
        # The most whole rows from ``start`` within one run.
        stop = max(start + 1, int(np.searchsorted(
            ends, ends[start] - blocks[start] + _PICK_RUN, side="right")))
        counts[start:stop] = _picked_counts(blocks[start:stop], size, rng)
        start = stop
    return counts


def _picked_counts(blocks: np.ndarray, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """One run of :func:`_uniform_counts`' pick path: a uniform pick
    per block, counted per row. Its arrays die on return, before the
    next run draws."""
    picks = rng.integers(0, size, size=int(blocks.sum()))
    # Row offsets in the narrowest dtype that holds them: the repeat is
    # as long as the picks.
    offsets = np.arange(0, blocks.size * size, size,
                        dtype=np.min_scalar_type(blocks.size * size))
    picks += np.repeat(offsets, blocks)
    return np.bincount(picks, minlength=blocks.size * size).reshape(
        blocks.size, size)


class DbbCensus:
    """Non-zero census of one synthesized ``(rows, width)`` DBB pattern
    (blocks of ``BLOCK_SIZE`` along ``width``), from which the pattern's
    bitmasks are drawn on demand.

    ``histograms`` holds, per run of block columns sharing one valid
    width (the full columns, then a ragged tail column), that width and
    the ``(columns, 2**valid)`` count of blocks holding each entry of
    the width's mask table, in the narrowest unsigned dtype that holds
    ``rows``. ``col_nnz`` is the non-zeros per index along ``width``
    (int64) and ``block_max`` the most non-zeros in any block. ``seed``
    (a ``SeedSequence``, or a zero-argument callable that builds one on
    first use) seeds the permutation of :meth:`bitmasks` (and so
    :meth:`materialize`) when no generator is handed to it. This is the
    census protocol :meth:`repro.core.sparsity.GemmOperands.from_census`
    reads.
    """

    block_size = BLOCK_SIZE

    def __init__(self, rows: int, width: int,
                 histograms: Sequence[Tuple[int, np.ndarray]],
                 col_nnz: np.ndarray, block_max: int,
                 seed: Union[np.random.SeedSequence,
                             Callable[[], np.random.SeedSequence],
                             None] = None):
        self.rows = rows
        self.width = width
        self.histograms = tuple(histograms)
        self.col_nnz = col_nnz
        self.block_max = block_max
        self.seed = seed

    def bitmasks(self, rng: Optional[np.random.Generator] = None
                 ) -> np.ndarray:
        """The read-only ``uint8`` ``(rows, blocks)`` DBB bitmasks of the
        pattern (bit *i* of a block set when its position *i* holds a
        non-zero, the order of :mod:`repro.core.dbb`): every block
        column's masks, in a uniformly random row order drawn from
        ``rng`` (default: a generator on :attr:`seed`)."""
        if rng is None:
            seed = self.seed() if callable(self.seed) else self.seed
            rng = np.random.default_rng(seed)
        kb = -(-self.width // BLOCK_SIZE)
        bits = np.empty((self.rows, kb), dtype=np.uint8)
        start = 0
        for valid, hist in self.histograms:
            cols = hist.shape[0]
            masks = np.repeat(np.tile(_mask_table(valid)[0], cols),
                              hist.ravel())
            bits[:, start:start + cols] = masks.reshape(cols, self.rows).T
            start += cols
        rng.permuted(bits, axis=0, out=bits)
        bits.flags.writeable = False
        return bits

    def materialize(self, rng: Optional[np.random.Generator] = None
                    ) -> np.ndarray:
        """The read-only ``bool`` ``(rows, width)`` pattern of
        :meth:`bitmasks`, unpacked into a zero-padded ``(rows,
        blocks * BLOCK_SIZE)`` buffer."""
        out = np.unpackbits(self.bitmasks(rng), axis=1,
                            bitorder="little").view(bool)[:, :self.width]
        out.flags.writeable = False
        return out


def blocked_density_census(
    rows: int,
    width: int,
    nnz_cap: int,
    density: float,
    rng: np.random.Generator,
    seed: Union[np.random.SeedSequence,
                Callable[[], np.random.SeedSequence], None] = None,
) -> DbbCensus:
    """Census of a random ``(rows, width)`` non-zero pattern: per-block
    NNZ cap + element density.

    Blocks of ``BLOCK_SIZE`` run along the last axis; ``width`` need not
    be a multiple of it (the ragged tail block simply has fewer candidate
    positions). Every block holds at most ``nnz_cap`` set bits, and the
    total over the valid ``rows * width`` region equals
    ``round(rows * width * density)`` *exactly* (largest-remainder
    allocation of the per-block real-valued targets, clipped to the cap —
    the exact total holds whenever ``density <= nnz_cap / BLOCK_SIZE``;
    above it the pattern saturates at the cap).

    Draws, in order: the allocation's ``multivariate_hypergeometric``
    per round and remainder class that has more blocks with room than
    the remaining deficit, then per occupied popcount level the uniform
    mask histogram of the full block columns at that level
    (:func:`_uniform_counts`), then the same for the tail column.
    ``seed`` is kept for :meth:`DbbCensus.bitmasks`.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= nnz_cap <= BLOCK_SIZE:
        raise ValueError(
            f"nnz_cap must be in [1, {BLOCK_SIZE}], got {nnz_cap}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    cap, base, frac, total = _allocation(rows, width, nnz_cap, density)
    levels = _allocate_levels(rows, cap, base, frac, total, rng)
    full = width // BLOCK_SIZE
    count = np.min_scalar_type(rows)  # no mask holds more than every row
    histograms, col_nnz = [], []
    for cols, valid in ((slice(0, full), BLOCK_SIZE),
                        (slice(full, cap.size), width - full * BLOCK_SIZE)):
        at_level = levels[cols]
        if not at_level.shape[0]:
            continue
        table, offsets, sizes = _mask_table(valid)
        bits = np.unpackbits(table[:, None], axis=1, count=valid,
                             bitorder="little")
        hist = np.zeros((at_level.shape[0], table.size), dtype=count)
        nnz = np.zeros((at_level.shape[0], valid), dtype=np.int64)
        for level in np.flatnonzero(at_level.any(axis=0)).tolist():
            blocks = np.flatnonzero(at_level[:, level])
            size = int(sizes[level])
            group = slice(offsets[level], offsets[level] + size)
            drawn = _uniform_counts(at_level[blocks, level], size, rng)
            hist[blocks, group] = drawn
            nnz[blocks] += drawn @ bits[group]
        histograms.append((valid, hist))
        col_nnz.append(nnz.ravel())
    occupied = np.flatnonzero(levels.any(axis=0))
    return DbbCensus(rows, width, histograms, np.concatenate(col_nnz),
                     int(occupied[-1]) if occupied.size else 0, seed)


def blocked_density_mask(
    rows: int,
    width: int,
    nnz_cap: int,
    density: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random read-only ``(rows, width)`` ``bool`` pattern: the census
    of :func:`blocked_density_census` materialized with the same
    ``rng``."""
    return blocked_density_census(rows, width, nnz_cap, density,
                                  rng).materialize(rng)


#: The independent seed streams of one layer, as child indices of its
#: ``SeedSequence``: the census, the INT8 values, and the ``A`` and
#: ``W`` mask permutations.
_CENSUS, _VALUES, _A, _W = range(4)


def _stream(layer: LayerSpec, seed: int,
            child: int) -> np.random.SeedSequence:
    """Seed stream ``child`` of one layer, built alone: it equals
    ``SeedSequence(entropy).spawn(4)[child]`` at about a fifth of the
    cost of the whole spawn."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(
        [seed, layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz],
        spawn_key=(child,))


def spec_census(layer: LayerSpec, seed: int = 0) -> GemmOperands:
    """The non-zero census of one analytic layer spec's ``(A, W)``
    operands, as a :class:`~repro.core.sparsity.GemmOperands` that
    materializes each mask on first read.

    ``A`` is ``(m, k)`` with blocks along ``k`` capped at ``a_nnz``;
    ``W`` is ``(k, n)`` whose transpose is W-DBB compliant at ``w_nnz``
    (i.e. compressible by the hardware's static weight path). Densities
    match ``layer.a_density`` / ``layer.w_density`` (exactly in total,
    up to the caps).
    """
    with obs_trace.span(layer.name, "synthesize",
                        m=layer.m, k=layer.k, n=layer.n, seed=seed):
        rng = np.random.default_rng(_stream(layer, seed, _CENSUS))
        w = blocked_density_census(
            layer.n, layer.k, layer.w_nnz, min(layer.w_density, 1.0),
            rng, seed=partial(_stream, layer, seed, _W))
        a = blocked_density_census(
            layer.m, layer.k, layer.a_nnz, min(layer.a_density, 1.0),
            rng, seed=partial(_stream, layer, seed, _A))
        return GemmOperands.from_census(a, w)


def spec_operands(
    layer: LayerSpec,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only ``(A, W)`` ``bool`` non-zero patterns of
    :func:`spec_census`, both materialized."""
    operands = spec_census(layer, seed=seed)
    return operands.a, operands.w


def _int8_on(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-zero INT8 values (``±1..127``) on ``mask``, zeros
    off it."""
    values = rng.integers(-127, 127, size=int(np.count_nonzero(mask)),
                          dtype=np.int8)
    values[values >= 0] += 1
    out = np.zeros(mask.shape, dtype=np.int8)
    out[mask] = values
    return out


def spec_int8_operands(
    layer: LayerSpec,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, W)`` INT8 operands on exactly the patterns of
    :func:`spec_operands`, for callers that read a GEMM output."""
    a, w = spec_operands(layer, seed=seed)
    with obs_trace.span(layer.name, "values",
                        m=layer.m, k=layer.k, n=layer.n, seed=seed):
        rng = np.random.default_rng(_stream(layer, seed, _VALUES))
        w = _int8_on(w.T, rng).T
        a = _int8_on(a, rng)
        return a, w


def operand_key(layer: LayerSpec, seed: int = 0) -> tuple:
    """Identity of the operands :func:`spec_census` returns for
    ``(layer, seed)``: the fields that determine the generated patterns
    (GEMM shape, DBB bounds, densities, seed), so tasks with equal keys
    can share one synthesis whatever the layer's name or the accelerator
    that consumes them."""
    return (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
            round(layer.w_density, 6), round(layer.a_density, 6), seed)


def operand_densities(layer: LayerSpec) -> Tuple[float, float]:
    """``(w_density, a_density)`` of the operands :func:`spec_census`
    returns for ``layer`` at any seed, bit-equal to
    :func:`repro.core.sparsity.density` of each, computed without
    synthesizing them."""

    def exact(rows: int, nnz_cap: int, density: float) -> float:
        total = _allocation(rows, layer.k, nnz_cap, min(density, 1.0))[3]
        return total / (rows * layer.k)

    return (exact(layer.n, layer.w_nnz, layer.w_density),
            exact(layer.m, layer.a_nnz, layer.a_density))
