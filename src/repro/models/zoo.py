"""Model registry and buildable (runnable) networks.

``MODEL_SPECS`` registers the analytic specs used by the performance
model. The builders return :class:`repro.nn.Sequential` networks with
random (He-init) weights — small enough to execute end to end through the
DBB pipeline and the functional accelerator simulator in tests/examples.
They import :mod:`repro.nn` when called, so a run that only reads specs
never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.models.alexnet import alexnet_spec
from repro.models.ibert import ibert_spec
from repro.models.lenet import lenet5_spec
from repro.models.mobilenet import mobilenet_v1_spec
from repro.models.resnet import resnet50_spec
from repro.models.specs import ModelSpec
from repro.models.vgg import vgg16_spec

if TYPE_CHECKING:
    from repro.nn.model import Sequential

__all__ = ["MODEL_SPECS", "get_spec", "build_lenet5", "build_tiny_cnn",
           "build_tiny_mobilenet"]

MODEL_SPECS: Dict[str, Callable[[], ModelSpec]] = {
    "lenet5": lenet5_spec,
    "alexnet": alexnet_spec,
    "vgg16": vgg16_spec,
    "mobilenet_v1": mobilenet_v1_spec,
    "resnet50": resnet50_spec,
    "ibert": ibert_spec,
}


def get_spec(name: str) -> ModelSpec:
    """Look up an analytic model spec by registry name."""
    try:
        return MODEL_SPECS[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_SPECS)}"
        ) from None


def build_lenet5(rng: Optional[np.random.Generator] = None) -> Sequential:
    """Runnable LeNet-5 (28x28x1 input) with random weights."""
    from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
    from repro.nn.model import Sequential

    rng = rng or np.random.default_rng(0)
    return Sequential(
        [
            Conv2d(1, 6, (5, 5), name="conv1", rng=rng),
            ReLU(name="relu1"),
            MaxPool2d(2, name="pool1"),
            Conv2d(6, 16, (5, 5), name="conv2", rng=rng),
            ReLU(name="relu2"),
            MaxPool2d(2, name="pool2"),
            Flatten(name="flatten"),
            Linear(256, 120, name="fc3", rng=rng),
            ReLU(name="relu3"),
            Linear(120, 84, name="fc4", rng=rng),
            ReLU(name="relu4"),
            Linear(84, 10, name="fc5", rng=rng),
        ],
        name="lenet5",
    )


def build_tiny_cnn(rng: Optional[np.random.Generator] = None) -> Sequential:
    """A small conv net (16x16x8 input) for fast integration tests.

    Channel counts are multiples of BZ=8 so every GEMM blocks cleanly.
    """
    from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
    from repro.nn.model import Sequential

    rng = rng or np.random.default_rng(1)
    return Sequential(
        [
            Conv2d(8, 16, (3, 3), padding=1, name="conv1", rng=rng),
            ReLU(name="relu1"),
            Conv2d(16, 16, (3, 3), padding=1, name="conv2", rng=rng),
            ReLU(name="relu2"),
            MaxPool2d(2, name="pool"),
            Flatten(name="flatten"),
            Linear(16 * 8 * 8, 32, name="fc1", rng=rng),
            ReLU(name="relu3"),
            Linear(32, 10, name="fc2", rng=rng),
        ],
        name="tiny_cnn",
    )


def build_tiny_mobilenet(rng: Optional[np.random.Generator] = None) -> Sequential:
    """A depthwise-separable toy net exercising the DW code path."""
    from repro.nn.layers import (AvgPool2d, Conv2d, DepthwiseConv2d,
                                 Flatten, Linear, ReLU)
    from repro.nn.model import Sequential

    rng = rng or np.random.default_rng(2)
    return Sequential(
        [
            Conv2d(8, 16, (3, 3), padding=1, name="conv1", rng=rng),
            ReLU(name="relu1"),
            DepthwiseConv2d(16, (3, 3), padding=1, name="dw1", rng=rng),
            ReLU(name="relu_dw1"),
            Conv2d(16, 32, (1, 1), name="pw1", rng=rng),
            ReLU(name="relu_pw1"),
            AvgPool2d(16, name="gap"),
            Flatten(name="flatten"),
            Linear(32, 10, name="fc", rng=rng),
        ],
        name="tiny_mobilenet",
    )
