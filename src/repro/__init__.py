"""S2TA reproduction library.

A from-scratch Python reproduction of *S2TA: Exploiting Structured Sparsity
for Energy-Efficient Mobile CNN Acceleration* (HPCA 2022). The library
contains:

- ``repro.core``: Density Bound Block (DBB) sparsity — block format,
  weight pruning, dynamic activation pruning (DAP), sparse GEMM kernels.
- ``repro.models``: model zoo with per-layer GEMM shapes and density
  profiles (LeNet-5, AlexNet, VGG-16, MobileNetV1, ResNet-50V1, I-BERT).
- ``repro.arch``: cycle-level functional models of the datapaths, the
  DAP hardware array, the SA-SMT staging-FIFO queueing simulator, the
  systolic (tensor) array, the sparse baselines' PE arrays and the
  memory hierarchy.
- ``repro.energy``: technology scaling and calibrated component costs.
- ``repro.accel``: accelerator cost models (SA, SA-ZVCG, SA-SMT, S2TA-W,
  S2TA-AW, SparTen, Eyeriss v2).
- ``repro.design``: design-space exploration ("RTL generator" analogue).
- ``repro.train``: minimal autograd + DBB-aware fine-tuning of the
  Table 3 proxy MLP.
- ``repro.workloads``: layer/GEMM workload descriptions.
- ``repro.eval``: experiment runners reproducing every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DBBSpec",
    "DBBBlock",
    "DBBTensor",
    "compress",
    "decompress",
    "dap_prune",
    "tune_layer_nnz",
    "prune_weights_dbb",
    "is_dbb_compliant",
    "__version__",
]

# Lazy, so importing one subpackage does not first load the DBB core.
__getattr__, __dir__ = lazy_exports(__name__, {
    "DBBSpec": "core.dbb",
    "DBBBlock": "core.dbb",
    "DBBTensor": "core.dbb",
    "compress": "core.dbb",
    "decompress": "core.dbb",
    "dap_prune": "core.dap",
    "tune_layer_nnz": "core.dap",
    "prune_weights_dbb": "core.pruning",
    "is_dbb_compliant": "core.pruning",
})
