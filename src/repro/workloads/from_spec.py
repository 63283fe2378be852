"""Concrete operand synthesis from analytic :class:`LayerSpec`s.

The functional full-model pipeline (``AcceleratorModel.run_model_functional``)
needs real INT8 tensors for every layer of a benchmark network, matched to
the analytic density profile the performance model prices:

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
non-zeros across blocks (random tie-breaking keeps the allocation
unbiased), with uniformly random positions inside each block and uniform
non-zero INT8 magnitudes. The exact total is what lets the fixed-dataflow
baselines (SparTen / Eyeriss v2 / SCNN) cross-validate their
sparsity-compressed SRAM and DRAM byte counters *bit-for-bit* between the
analytic and functional tiers: ``count_nonzero`` of a synthesized operand
equals the analytic models' ``round(elements * density)`` closed form
whenever ``density <= nnz_cap / block_size`` (above the cap the operand
saturates at the cap, as before).

Nothing is memoized here. The layer runner (:mod:`repro.eval.runner`)
groups the tasks of a batch by :func:`operand_key`, synthesizes each
key once with :func:`synthesize_operands`, runs every accelerator of the
group on those tensors and drops them, so each process holds at most
one group's operands at a time (a single VGG conv layer's activation
matrix is ~29 MB).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace

__all__ = [
    "blocked_density_operand",
    "spec_operands",
    "operand_key",
    "synthesize_operands",
]


def blocked_density_operand(
    rows: int,
    width: int,
    nnz_cap: int,
    density: float,
    rng: np.random.Generator,
    block_size: int = BLOCK_SIZE,
    dtype=np.int8,
) -> np.ndarray:
    """Random ``(rows, width)`` tensor: per-block NNZ cap + element density.

    Blocks run along the last axis; ``width`` need not be a multiple of
    ``block_size`` (the ragged tail block simply has fewer candidate
    positions). Every block holds at most ``nnz_cap`` non-zeros, and the
    total non-zero count over the valid ``rows * width`` region equals
    ``round(rows * width * density)`` *exactly* (largest-remainder
    allocation of the per-block real-valued targets, clipped to the cap —
    the exact total holds whenever ``density <= nnz_cap / block_size``;
    above it the tensor saturates at the cap). Random tie-breaking among
    equal fractional remainders keeps the allocation unbiased.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= nnz_cap <= block_size:
        raise ValueError(
            f"nnz_cap must be in [1, {block_size}], got {nnz_cap}")
    kb = -(-width // block_size)
    padded = kb * block_size
    # Valid (non-padding) positions per block along one row.
    valid = np.full(kb, block_size, dtype=np.int64)
    tail = width - (kb - 1) * block_size
    valid[-1] = tail
    valid = np.broadcast_to(valid, (rows, kb)).reshape(-1)
    # Largest-remainder allocation of the exact total across blocks
    # (same ``round`` expression as the analytic models' stored-byte
    # closed forms, so the two tiers agree bit-for-bit on nnz).
    cap = np.minimum(nnz_cap, valid)
    target = density * valid
    nnz = np.minimum(np.floor(target).astype(np.int64), cap)
    total = min(int(round(rows * width * density)), int(cap.sum()))
    deficit = total - int(nnz.sum())
    frac = target - np.floor(target)
    tiebreak = rng.random(valid.size)
    order = np.lexsort((tiebreak, -frac))
    while deficit > 0:
        room = order[(cap - nnz)[order] > 0]
        bump = room[:deficit]
        nnz[bump] += 1
        deficit -= bump.size
    # Choose nnz[b] positions per block among its valid ones: rank random
    # keys per block (invalid positions get +inf) and keep the smallest.
    keys = rng.random((valid.size, block_size), dtype=np.float32)
    keys[np.arange(block_size)[None, :] >= valid[:, None]] = np.inf
    order = np.argsort(keys, axis=1)
    chosen = np.arange(block_size, dtype=np.int64)[None, :] < nnz[:, None]
    mask = np.zeros_like(chosen)
    np.put_along_axis(mask, order, chosen, axis=1)
    magnitude = rng.integers(1, 128, size=mask.shape, dtype=np.int16)
    sign = rng.integers(0, 2, size=mask.shape, dtype=np.int16)
    # In-place (same RNG draws, same values as the where(mask, m*s, 0)
    # formulation — the seed-fixed operand streams must not change):
    sign *= 2
    sign -= 1
    np.multiply(magnitude, sign, out=magnitude)
    np.multiply(magnitude, mask, out=magnitude, casting="unsafe")
    out = magnitude.astype(dtype)
    return out.reshape(rows, padded)[:, :width]


def spec_operands(
    layer: LayerSpec,
    seed: int = 0,
    dtype=np.int8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize ``(A, W)`` INT8 operands for one analytic layer spec.

    ``A`` is ``(m, k)`` with blocks along ``k`` capped at ``a_nnz``;
    ``W`` is ``(k, n)`` whose transpose is W-DBB compliant at ``w_nnz``
    (i.e. compressible by the hardware's static weight path). Densities
    match ``layer.a_density`` / ``layer.w_density`` in expectation.
    """
    with obs_trace.span(layer.name, "synthesize",
                        m=layer.m, k=layer.k, n=layer.n, seed=seed):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, layer.m, layer.k, layer.n,
                                    layer.w_nnz, layer.a_nnz]))
        w = blocked_density_operand(
            layer.n, layer.k, layer.w_nnz, min(layer.w_density, 1.0),
            rng, dtype=dtype).T
        a = blocked_density_operand(
            layer.m, layer.k, layer.a_nnz, min(layer.a_density, 1.0),
            rng, dtype=dtype)
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
    tensors (capped GEMM shape, DBB bounds, densities, seed), so tasks
    with equal keys can share one synthesis whatever the layer's name or
    the accelerator that consumes them."""
    layer = _rows_capped(layer, max_m)
    return (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
            round(layer.w_density, 6), round(layer.a_density, 6), seed)


def synthesize_operands(layer: LayerSpec, seed: int = 0,
                        max_m: Optional[int] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, W)`` for one layer task: :func:`spec_operands` of the layer
    capped at ``max_m`` rows, so ``A`` may have fewer than ``layer.m``
    rows."""
    return spec_operands(_rows_capped(layer, max_m), seed=seed)
