"""Dense and DBB-sparse GEMM reference kernels.

These are the functional ground truth the hardware models are validated
against. All kernels compute ``C = A @ W`` with INT32 accumulation of INT8
operands (the accelerator's native mode) and are bit-exact with numpy's
dense matmul on the decompressed operands.

Orientation convention (the im2col lowering of an NHWC convolution):

- ``A`` is ``(M, K)`` — activations, M output pixels by K reduction,
  where ``K = kh * kw * cin`` is the patch axis (channel innermost).
- ``W`` is ``(K, N)`` — weights, N output channels.
- DBB blocks run along ``K`` (the channel/reduction axis), so activations
  are compressed row-wise and weights column-wise; :class:`DBBTensor`
  stores blocks along the *last* axis, so the weight operand is compressed
  from ``W.T`` (shape ``(N, K)``).

Execution strategy (array backend)
----------------------------------
Both sparse kernels run as *scatter-to-dense + one wide matmul*: the
compressed operand expands through :class:`DBBTensor`'s collision-free
scatter (exact — values are moved, never transformed) and the product is a
single ``@`` in the accumulation dtype. Because integer addition is
associative and expansion is exact, the results are bit-identical with the
per-block walk the hardware performs (retained in
:mod:`repro.core.reference` and fuzz-tested against). This is what lets
full-model layers (AlexNet conv2 is M=3025, K=1200, N=256) run at NumPy
speed instead of hours of Python block loops.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro.core.dbb import DBBSpec, DBBTensor, compress

__all__ = [
    "dense_gemm",
    "dbb_gemm",
    "joint_dbb_gemm",
    "compress_operands",
    "compress_cached",
    "clear_compress_cache",
    "compress_cache_stats",
    "gemm_mac_count",
]

# float64 has a 53-bit exact-integer window; an integer matmul whose
# worst-case accumulated magnitude stays below it is bit-exact in BLAS.
_F64_EXACT_LIMIT = 2 ** 53


def _int_matmul(a: np.ndarray, w: np.ndarray, accumulate_dtype) -> np.ndarray:
    """Integer matmul, routed through float64 BLAS when provably exact.

    NumPy integer ``@`` runs a slow non-BLAS kernel; for INT8 operands the
    float64 product is bit-exact (every partial sum stays far below 2^53),
    and dgemm is ~20x faster — what makes full-model functional simulation
    (VGG conv layers are billions of MACs) tractable. Falls back to the
    integer kernel whenever exactness cannot be guaranteed.
    """
    if np.issubdtype(a.dtype, np.integer) and np.issubdtype(w.dtype, np.integer):
        k = a.shape[1]
        a_max = int(np.abs(a, dtype=np.int64).max()) if a.size else 0
        w_max = int(np.abs(w, dtype=np.int64).max()) if w.size else 0
        if k * a_max * w_max < _F64_EXACT_LIMIT:
            out = a.astype(np.float64) @ w.astype(np.float64)
            return out.astype(accumulate_dtype)
    return a.astype(accumulate_dtype) @ w.astype(accumulate_dtype)


def dense_gemm(a: np.ndarray, w: np.ndarray, accumulate_dtype=np.int64) -> np.ndarray:
    """Reference dense GEMM with wide accumulation.

    INT8 inputs accumulate in ``accumulate_dtype`` (INT32 in hardware;
    int64 here to sidestep numpy overflow semantics — values are validated
    to fit INT32 by the hardware models).
    """
    a = np.asarray(a)
    w = np.asarray(w)
    if a.ndim != 2 or w.ndim != 2 or a.shape[1] != w.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape} @ W {w.shape}")
    return _int_matmul(a, w, accumulate_dtype)


def compress_operands(
    a: np.ndarray,
    w: np.ndarray,
    a_spec: DBBSpec,
    w_spec: DBBSpec,
) -> Tuple[DBBTensor, DBBTensor]:
    """Compress GEMM operands: A row-blocked, W column-blocked (as W.T)."""
    a_dbb = compress(a, a_spec)
    w_dbb = compress(np.asarray(w).T, w_spec)
    return a_dbb, w_dbb


# --------------------------------------------------------------------- #
# Compressed-operand memo
# --------------------------------------------------------------------- #

_COMPRESS_CACHE: "OrderedDict[tuple, DBBTensor]" = OrderedDict()
_COMPRESS_CACHE_MAX = 64
_COMPRESS_CACHE_HITS = 0
_COMPRESS_CACHE_MISSES = 0


def compress_cached(matrix: np.ndarray, spec: DBBSpec) -> DBBTensor:
    """:func:`repro.core.dbb.compress` with a content-addressed LRU memo.

    Variant sweeps (DENSE/ZVCG/WDBB/AWDBB) and per-layer density sweeps
    re-run the same weight tensor through every mode and every ``a_nnz``
    point; the weights only need compressing once. The key hashes the
    array bytes plus shape/dtype/spec, so any numerically distinct operand
    gets its own entry. The returned tensor's arrays are shared — treat it
    as immutable (every library consumer does).
    """
    global _COMPRESS_CACHE_HITS, _COMPRESS_CACHE_MISSES
    matrix = np.ascontiguousarray(matrix)
    key = (spec, matrix.shape, matrix.dtype.str,
           hashlib.sha1(matrix.tobytes()).hexdigest())
    hit = _COMPRESS_CACHE.get(key)
    if hit is not None:
        _COMPRESS_CACHE.move_to_end(key)
        _COMPRESS_CACHE_HITS += 1
        return hit
    _COMPRESS_CACHE_MISSES += 1
    tensor = compress(matrix, spec)
    _COMPRESS_CACHE[key] = tensor
    while len(_COMPRESS_CACHE) > _COMPRESS_CACHE_MAX:
        _COMPRESS_CACHE.popitem(last=False)
    return tensor


def clear_compress_cache() -> None:
    """Drop all memoized compressed operands and reset the hit/miss
    accounting (mainly for tests/benchmarks)."""
    global _COMPRESS_CACHE_HITS, _COMPRESS_CACHE_MISSES
    _COMPRESS_CACHE.clear()
    _COMPRESS_CACHE_HITS = 0
    _COMPRESS_CACHE_MISSES = 0


def compress_cache_stats() -> dict:
    """Hit/miss accounting of the weight-compression memo.

    ``hits``/``misses`` count :func:`compress_cached` lookups since the
    last :func:`clear_compress_cache`; ``entries`` is the current resident
    count. A mode/density sweep over one workload should show exactly one
    miss per distinct weight tensor and hits everywhere else.
    """
    return {
        "hits": _COMPRESS_CACHE_HITS,
        "misses": _COMPRESS_CACHE_MISSES,
        "entries": len(_COMPRESS_CACHE),
    }


# --------------------------------------------------------------------- #
# Sparse kernels
# --------------------------------------------------------------------- #

def dbb_gemm(a: np.ndarray, w_dbb: DBBTensor, accumulate_dtype=np.int64) -> np.ndarray:
    """GEMM with dense activations and DBB-compressed weights (S2TA-W mode).

    Functionally models the DP4M8 datapath: only stored weight non-zeros
    contribute, steered to the matching activation element by the
    positional bitmask (the 8:1 mux of Fig. 6c). Executed as an exact
    scatter of the compressed weights to dense ``(N, K)`` followed by one
    wide matmul — bit-identical with the per-block walk for integer
    accumulation dtypes.
    """
    a = np.asarray(a)
    m, k = a.shape
    # Expand over the block-padded width, then crop/zero-extend to K: the
    # hardware skips stored positions beyond K (zero padding of the last
    # block), which the crop reproduces exactly.
    w_padded = w_dbb._dense_padded(dtype=w_dbb.values.dtype)  # (N, Kb*BZ)
    n, k_padded = w_padded.shape
    if k_padded >= k:
        w_k = w_padded[:, :k]
    else:
        w_k = np.zeros((n, k), dtype=w_padded.dtype)
        w_k[:, :k_padded] = w_padded
    return _int_matmul(a, np.ascontiguousarray(w_k.T), accumulate_dtype)


def joint_dbb_gemm(
    a_dbb: DBBTensor, w_dbb: DBBTensor, accumulate_dtype=np.int64
) -> np.ndarray:
    """GEMM with both operands DBB-compressed (S2TA-AW mode).

    Functionally models the time-unrolled DP1M4 stream (Fig. 6e): a MAC
    fires only where the activation and weight bitmasks intersect. Since
    both expansions are exact and the expanded operands are zero exactly
    where the bitmasks are unset, the dense product of the two expansions
    is bit-identical with the mask-intersection walk (retained in
    :mod:`repro.core.reference`).
    """
    if a_dbb.spec.block_size != w_dbb.spec.block_size:
        raise ValueError(
            f"operand block sizes differ: A BZ={a_dbb.spec.block_size}, "
            f"W BZ={w_dbb.spec.block_size}"
        )
    if a_dbb.blocks_per_row != w_dbb.blocks_per_row:
        raise ValueError(
            f"reduction lengths differ: A has {a_dbb.blocks_per_row} blocks, "
            f"W has {w_dbb.blocks_per_row}"
        )
    a_dense = a_dbb._dense_padded(dtype=a_dbb.values.dtype)  # (M, Kb*BZ)
    w_dense = w_dbb._dense_padded(dtype=w_dbb.values.dtype)  # (N, Kb*BZ)
    return _int_matmul(a_dense, np.ascontiguousarray(w_dense.T),
                       accumulate_dtype)


def gemm_mac_count(m: int, k: int, n: int) -> int:
    """Dense MAC count of an ``(M, K) @ (K, N)`` GEMM."""
    return m * k * n
