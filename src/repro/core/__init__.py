"""Density Bound Block (DBB) sparsity core.

Implements the paper's primary data-format contribution (Sec. 3, Fig. 4/5):
blocked tensors with a bound on non-zeros per block, the positional bitmask
codec, static weight pruning (Sec. 4), dynamic activation pruning (Sec. 5.1)
and DBB-aware GEMM reference kernels used to validate the hardware models.
"""

from repro._lazy import lazy_exports
from repro.core.dap import DAPResult, dap_prune, dap_prune_blocks, tune_layer_nnz
from repro.core.dbb import (
    DBBBlock,
    DBBSpec,
    DBBTensor,
    compress,
    compress_block,
    decompress,
    expand_block,
    popcount,
)
from repro.core.gemm import (
    clear_compress_cache,
    compress_cached,
    dbb_gemm,
    dense_gemm,
    joint_dbb_gemm,
)
from repro.core.pruning import (
    PruningSchedule,
    is_dbb_compliant,
    prune_weights_dbb,
)
from repro.core.sparsity import (
    density,
    random_dbb_tensor,
    random_unstructured,
)

__all__ = [
    "DBBSpec",
    "DBBBlock",
    "DBBTensor",
    "compress",
    "compress_block",
    "compress_cached",
    "clear_compress_cache",
    "decompress",
    "expand_block",
    "popcount",
    "DAPResult",
    "dap_prune",
    "dap_prune_blocks",
    "tune_layer_nnz",
    "prune_weights_dbb",
    "is_dbb_compliant",
    "PruningSchedule",
    "dense_gemm",
    "dbb_gemm",
    "joint_dbb_gemm",
    "density",
    "random_unstructured",
    "random_dbb_tensor",
    "pack",
    "unpack",
    "packed_size_bytes",
]

# Not on an artifact run's path: each module loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "pack": "serialize",
    "unpack": "serialize",
    "packed_size_bytes": "serialize",
})
