"""Tests for the typical-conv workload layer."""

from repro.models.specs import LayerKind
from repro.workloads import TYPICAL_CONV, typical_conv_layer


class TestTypicalConv:
    def test_shape(self):
        layer = typical_conv_layer()
        assert (layer.m, layer.k, layer.n) == (3136, 1152, 256)
        assert layer.kind is LayerKind.CONV

    def test_density_to_nnz(self):
        layer = typical_conv_layer(0.5, 0.375)
        assert layer.w_nnz == 4
        assert layer.a_nnz == 3

    def test_module_constant(self):
        assert TYPICAL_CONV.a_nnz == 3
        assert TYPICAL_CONV.w_nnz == 4

