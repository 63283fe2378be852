"""Concrete operand synthesis from analytic :class:`LayerSpec`s.

The functional full-model pipeline (``AcceleratorModel.run_model_functional``)
needs, for every layer of a benchmark network, the *non-zero patterns* of
its two GEMM operands, matched to the analytic density profile the
performance model prices. Every functional engine reads only the
non-zero patterns and counts of them — per reduction index, in total
and per DBB block — from one :class:`~repro.core.sparsity.GemmOperands`
census per operand pair, so :func:`spec_operands` returns read-only
boolean masks (the census caches counts of them; a write raises):

- the GEMM shape is the spec's ``m``/``k``/``n`` (the im2col lowering of
  :mod:`repro.nn.im2col` — ``k`` is the patch axis DBB blocks run along,
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
allocation unbiased), and each block's pattern is drawn uniformly from
the 8-bit masks with that popcount inside the block's valid width. The
exact total is what lets the fixed-dataflow baselines (SparTen /
Eyeriss v2 / SCNN) cross-validate their sparsity-compressed SRAM and
DRAM byte counters *bit-for-bit* between the analytic and functional
tiers: ``count_nonzero`` of a synthesized operand equals the analytic
models' ``round(elements * density)`` closed form whenever
``density <= nnz_cap / BLOCK_SIZE`` (above the cap the operand
saturates at the cap).

Callers that read a GEMM output need values: :func:`spec_int8_operands`
puts uniform non-zero INT8 magnitudes on exactly the patterns
:func:`spec_operands` returns. The values come from a separate stream
of the same ``SeedSequence`` entropy, so the patterns never depend on
whether values were drawn.

Nothing is memoized here. The layer runner (:mod:`repro.eval.runner`)
groups the tasks of a batch by :func:`operand_key`, synthesizes each
key once with :func:`synthesize_operands`, runs every accelerator of the
group on one census of those masks and drops both, so each process
holds at most one group's operands at a time.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace

__all__ = [
    "blocked_density_mask",
    "spec_operands",
    "spec_int8_operands",
    "operand_key",
    "operand_densities",
    "synthesize_operands",
]


@lru_cache(maxsize=None)
def _mask_table(valid: int):
    """The ``valid``-bit block masks ordered by (popcount, value), each
    expanded to its ``BLOCK_SIZE`` (= 8) bytes of 0/1 (little bit order,
    one ``uint64`` per mask), with the offset and count of each popcount
    group in that order."""
    masks = np.arange(1 << valid, dtype=np.uint16).astype(np.uint8)
    bits = np.unpackbits(masks[:, None], axis=1, bitorder="little")
    pop = bits.sum(axis=1)
    groups = [np.flatnonzero(pop == c) for c in range(valid + 1)]
    counts = np.array([g.size for g in groups])
    offsets = np.cumsum(counts) - counts
    return (bits[np.concatenate(groups)].view(np.uint64).ravel(),
            offsets.astype(np.int16), counts.astype(np.float64))


def _smallest(keys: np.ndarray, take: int) -> np.ndarray:
    """Indices of the ``take`` smallest ``keys``, ties toward the lowest
    index (what a stable sort on the keys would keep)."""
    kth = np.partition(keys, take - 1)[take - 1]
    below = np.flatnonzero(keys < kth)
    ties = np.flatnonzero(keys == kth)[:take - below.size]
    return np.concatenate([below, ties])


def _allocation(rows: int, width: int, nnz_cap: int, density: float):
    """Per block column of a ``(rows, width)`` pattern — its cap, the
    floor of its real-valued target clipped to the cap, and the
    target's remainder — plus the pattern's exact non-zero total.

    The total is ``round(rows * width * density)`` (the same expression
    as the analytic models' stored-byte closed forms, so the two tiers
    agree bit-for-bit on nnz), clipped to what the caps allow and never
    below the per-block floors: it is exactly what
    :func:`blocked_density_mask` sets.
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


def blocked_density_mask(
    rows: int,
    width: int,
    nnz_cap: int,
    density: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random ``(rows, width)`` non-zero pattern: per-block NNZ cap +
    element density.

    Blocks of ``BLOCK_SIZE`` run along the last axis; ``width`` need not
    be a multiple of it (the ragged tail block simply has fewer candidate
    positions). Every block holds at most ``nnz_cap`` set bits, and the
    total over the valid ``rows * width`` region equals
    ``round(rows * width * density)`` *exactly* (largest-remainder
    allocation of the per-block real-valued targets, clipped to the cap —
    the exact total holds whenever ``density <= nnz_cap / BLOCK_SIZE``;
    above it the pattern saturates at the cap).

    Draws, in order: for each round of the allocation and each remainder
    class in descending order, one float32 key per block still below its
    cap when the class has more such blocks than the remaining deficit
    (the smallest keys get the "+1"); then one float64 per block, which
    indexes the block's popcount group of :func:`_mask_table`.
    :func:`repro.core.reference.naive_blocked_density_mask` walks the
    same draws block by block.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= nnz_cap <= BLOCK_SIZE:
        raise ValueError(
            f"nnz_cap must be in [1, {BLOCK_SIZE}], got {nnz_cap}")
    cap, base, frac, total = _allocation(rows, width, nnz_cap, density)
    kb = cap.size
    tail = width - (kb - 1) * BLOCK_SIZE
    # Largest-remainder allocation of the exact total. There are at
    # most two remainders (full blocks and the ragged tail); each round
    # visits them in descending order and bumps a random subset of the
    # blocks that still have room.
    nnz = np.repeat(base.astype(np.int8)[None, :], rows, axis=0)
    deficit = total - rows * int(base.sum())
    while deficit > 0:
        for remainder in sorted(set(frac.tolist()), reverse=True):
            if deficit == 0:
                break
            room = (nnz < cap) & (frac == remainder)
            eligible = np.flatnonzero(room)
            take = min(deficit, eligible.size)
            if take < eligible.size:
                keys = rng.random(eligible.size, dtype=np.float32)
                eligible = eligible[_smallest(keys, take)]
            nnz.reshape(-1)[eligible] += 1
            deficit -= take
    # Pattern per block: a uniform pick among the masks of its popcount
    # inside its valid width.
    pick = rng.random((rows, kb))
    patterns = np.empty((rows, kb), dtype=np.uint64)
    full = kb if tail == BLOCK_SIZE else kb - 1
    for cols, bits in ((slice(0, full), BLOCK_SIZE), (slice(full, kb), tail)):
        table, offsets, counts = _mask_table(bits)
        k = nnz[:, cols]
        u = pick[:, cols]
        u *= counts.take(k)
        index = u.astype(np.int16)
        index += offsets.take(k)
        patterns[:, cols] = table[index]
    return patterns.view(bool).reshape(rows, kb * BLOCK_SIZE)[:, :width]


def _streams(layer: LayerSpec, seed: int):
    """Independent ``(pattern, value)`` seed streams of one layer."""
    return np.random.SeedSequence(
        [seed, layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz]
    ).spawn(2)


def spec_operands(
    layer: LayerSpec,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize the ``(A, W)`` non-zero patterns (``bool``) of one
    analytic layer spec.

    ``A`` is ``(m, k)`` with blocks along ``k`` capped at ``a_nnz``;
    ``W`` is ``(k, n)`` whose transpose is W-DBB compliant at ``w_nnz``
    (i.e. compressible by the hardware's static weight path). Densities
    match ``layer.a_density`` / ``layer.w_density`` (exactly in total,
    up to the caps). Both masks are read-only.
    """
    with obs_trace.span(layer.name, "synthesize",
                        m=layer.m, k=layer.k, n=layer.n, seed=seed):
        rng = np.random.default_rng(_streams(layer, seed)[0])
        w = blocked_density_mask(
            layer.n, layer.k, layer.w_nnz, min(layer.w_density, 1.0),
            rng).T
        a = blocked_density_mask(
            layer.m, layer.k, layer.a_nnz, min(layer.a_density, 1.0),
            rng)
        a.flags.writeable = False
        w.flags.writeable = False
        return a, w


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
        rng = np.random.default_rng(_streams(layer, seed)[1])
        w = _int8_on(w.T, rng).T
        a = _int8_on(a, rng)
        return a, w


def _rows_capped(layer: LayerSpec, max_m: Optional[int]) -> LayerSpec:
    """The layer actually synthesized: ``layer`` with at most ``max_m``
    output-pixel rows (quick mode)."""
    if max_m is not None and layer.m > max_m:
        return replace(layer, m=max_m)
    return layer


def operand_key(layer: LayerSpec, seed: int = 0,
                max_m: Optional[int] = None) -> tuple:
    """Identity of the operands :func:`synthesize_operands` returns for
    ``(layer, seed, max_m)``: the fields that determine the generated
    patterns (capped GEMM shape, DBB bounds, densities, seed), so tasks
    with equal keys can share one synthesis whatever the layer's name or
    the accelerator that consumes them."""
    layer = _rows_capped(layer, max_m)
    return (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
            round(layer.w_density, 6), round(layer.a_density, 6), seed)


def synthesize_operands(layer: LayerSpec, seed: int = 0,
                        max_m: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, W)`` patterns for one layer task: :func:`spec_operands` of
    the layer capped at ``max_m`` rows, so ``A`` may have fewer than
    ``layer.m`` rows."""
    return spec_operands(_rows_capped(layer, max_m), seed=seed)


def operand_densities(layer: LayerSpec, max_m: Optional[int] = None
                      ) -> Tuple[float, float]:
    """``(w_density, a_density)`` of the operands
    :func:`synthesize_operands` returns for ``(layer, seed, max_m)`` at
    any seed, bit-equal to :func:`repro.core.sparsity.density` of each,
    computed without synthesizing them."""
    layer = _rows_capped(layer, max_m)

    def exact(rows: int, nnz_cap: int, density: float) -> float:
        total = _allocation(rows, layer.k, nnz_cap, min(density, 1.0))[3]
        return total / (rows * layer.k)

    return (exact(layer.n, layer.w_nnz, layer.w_density),
            exact(layer.m, layer.a_nnz, layer.a_density))
