"""Tests for im2col lowering."""

import numpy as np
import pytest

from repro.train.im2col import conv_output_size, im2col
from tests.train.conv_reference import reference_conv


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24
        assert conv_output_size(224, 3, 1, 1) == 224
        assert conv_output_size(227, 11, 4, 0) == 55

    def test_invalid(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self):
        x = np.zeros((2, 8, 8, 3))
        patches, oh, ow = im2col(x, (3, 3), stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert patches.shape == (2 * 64, 27)

    def test_channel_axis_innermost(self):
        # For a 1x1 kernel the patch rows are exactly the channel vectors.
        x = np.arange(1 * 2 * 2 * 4).reshape(1, 2, 2, 4)
        patches, _, _ = im2col(x, (1, 1))
        np.testing.assert_array_equal(patches, x.reshape(4, 4))

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((8, 8, 3)), (3, 3))

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3), 1, 0),
        ((3, 3), 1, 1),
        ((5, 5), 2, 2),
        ((1, 1), 1, 0),
        ((2, 4), 2, 1),
    ])
    def test_matches_reference_conv(self, kernel, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 9, 11, 3))
        w = rng.normal(size=(kernel[0] * kernel[1] * 3, 5))
        patches, oh, ow = im2col(x, kernel, stride, padding)
        got = (patches @ w).reshape(2, oh, ow, 5)
        ref = reference_conv(x, w, kernel, stride, padding)
        np.testing.assert_allclose(got, ref, rtol=1e-10)
