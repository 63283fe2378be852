"""DBB-aware training substrate.

The paper fine-tunes INT8 ImageNet models with (a) progressive per-block
magnitude weight pruning (Sec. 8.1 "Training for W-DBB") and (b) a DAP
layer in front of convolutions whose gradient is the Top-NNZ binary mask
— a straight-through estimator (Sec. 8.1 "Training for A-DBB").

ImageNet training is not available offline, so this package provides a
minimal reverse-mode autograd engine and runs the *same algorithms* on
a proxy ReLU MLP (``Dense`` GEMM layers, DAP in front of each hidden
GEMM) over a synthetic classification set: the Table 3 claim being
reproduced is the recovery dynamic — pruning costs accuracy, DBB-aware
fine-tuning recovers it to within ~1 point of baseline.
"""

from repro.train.autograd import Tensor, cross_entropy
from repro.train.data import synthetic_classification
from repro.train.finetune import FinetuneReport, accuracy, dbb_finetune, train
from repro.train.layers import MLP, DAPLayer, Dense, ReLULayer, Sequential
from repro.train.optim import SGD

__all__ = [
    "Tensor",
    "cross_entropy",
    "Dense",
    "ReLULayer",
    "DAPLayer",
    "Sequential",
    "MLP",
    "SGD",
    "synthetic_classification",
    "train",
    "accuracy",
    "dbb_finetune",
    "FinetuneReport",
]
