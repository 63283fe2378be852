"""Benchmark model zoo.

Analytic model specs (:class:`~repro.models.specs.ModelSpec`): the
per-layer GEMM shapes and DBB density profiles of the paper's benchmark
networks (LeNet-5, AlexNet, VGG-16, MobileNetV1, ResNet-50V1, I-BERT),
registered by name in :mod:`~repro.models.zoo`. These drive the
performance/energy models; layer shapes follow the original
architectures and density profiles are encoded to match the per-model
averages the paper reports in Table 3.
"""

from repro.models.alexnet import alexnet_spec
from repro.models.ibert import ibert_spec
from repro.models.lenet import lenet5_spec
from repro.models.mobilenet import mobilenet_v1_spec
from repro.models.resnet import resnet50_spec
from repro.models.specs import LayerKind, LayerSpec, ModelSpec
from repro.models.vgg import vgg16_spec
from repro.models.zoo import MODEL_SPECS, get_spec

__all__ = [
    "LayerKind",
    "LayerSpec",
    "ModelSpec",
    "alexnet_spec",
    "vgg16_spec",
    "mobilenet_v1_spec",
    "resnet50_spec",
    "lenet5_spec",
    "ibert_spec",
    "MODEL_SPECS",
    "get_spec",
]
