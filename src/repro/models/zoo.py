"""Model registry.

``MODEL_SPECS`` maps each registry name to the builder of its analytic
:class:`~repro.models.specs.ModelSpec`, the layers the performance model
prices.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.models.alexnet import alexnet_spec
from repro.models.ibert import ibert_spec
from repro.models.lenet import lenet5_spec
from repro.models.mobilenet import mobilenet_v1_spec
from repro.models.resnet import resnet50_spec
from repro.models.specs import ModelSpec
from repro.models.vgg import vgg16_spec

__all__ = ["MODEL_SPECS", "get_spec"]

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

