"""Tests for convolution support in the training substrate."""

import numpy as np
import pytest

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.train import dbb_finetune
from repro.train.autograd import Tensor, cross_entropy
from repro.train.data import synthetic_images
from repro.train.im2col import im2col
from repro.train.layers import Conv2dModule, SmallCNN
from tests.train.conv_reference import reference_conv


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        hi = f()
        x[idx] = original - eps
        lo = f()
        x[idx] = original
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestConvAutograd:
    def test_forward_matches_reference_conv(self):
        rng = np.random.default_rng(0)
        x_data = rng.normal(size=(2, 6, 6, 3))
        w_data = rng.normal(size=(27, 4))
        out = Tensor(x_data).conv2d(Tensor(w_data), (3, 3), 1, 1)
        ref = reference_conv(x_data, w_data, (3, 3), 1, 1)
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_weight_gradient_numerical(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(1, 4, 4, 2))
        w_data = rng.normal(size=(8, 3))

        w = Tensor(w_data.copy(), requires_grad=True)
        Tensor(x_data).conv2d(w, (2, 2), 1, 0).sum().backward()

        def f():
            patches, _, _ = im2col(x_data, (2, 2), 1, 0)
            return (patches @ w_data).sum()

        np.testing.assert_allclose(w.grad, numerical_grad(f, w_data),
                                   atol=1e-5)

    def test_input_gradient_numerical(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(1, 4, 4, 2))
        w_data = rng.normal(size=(18, 3))

        x = Tensor(x_data.copy(), requires_grad=True)
        x.conv2d(Tensor(w_data), (3, 3), 1, 1).sum().backward()

        def f():
            patches, _, _ = im2col(x_data, (3, 3), 1, 1)
            return (patches @ w_data).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data),
                                   atol=1e-5)

    def test_strided_conv_gradient(self):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(1, 6, 6, 1))
        w_data = rng.normal(size=(4, 2))
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        x.conv2d(w, (2, 2), 2, 0).sum().backward()

        def f():
            patches, _, _ = im2col(x_data, (2, 2), 2, 0)
            return (patches @ w_data).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(f, x_data),
                                   atol=1e-5)

    def test_reshape_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.reshape(3, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_non_nhwc_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((4, 4))).conv2d(Tensor(np.zeros((4, 1))), (2, 2))


class TestConvModule:
    def test_prune_to_dbb_with_padding(self):
        # K = 3*3*3 = 27, pads to 32 for the per-block mask.
        conv = Conv2dModule(3, 8, rng=np.random.default_rng(4))
        spec = DBBSpec(8, 2)
        conv.prune_to_dbb(spec)
        wt = conv.weight.data.T
        padded = np.concatenate([wt, np.zeros((8, 5))], axis=1)
        assert is_dbb_compliant(padded, spec)
        assert conv.weight_density() <= 0.3


class TestCNNFinetuneDynamic:
    """The Table 3 dynamic on an actual convolutional proxy."""

    @pytest.fixture(scope="class")
    def report(self):
        rng = np.random.default_rng(5)
        data = synthetic_images(samples=500, rng=rng)
        model = SmallCNN(8, 6, dap_spec=DBBSpec(8, 3), rng=rng)
        return dbb_finetune(model, data, w_spec=DBBSpec(8, 2), rng=rng,
                            baseline_epochs=8, finetune_epochs=8, lr=0.03)

    def test_cnn_trains_above_chance(self, report):
        assert report.baseline_acc > 60.0

    def test_prune_and_recover(self, report):
        assert report.pruned_acc <= report.baseline_acc + 1.0
        assert report.finetuned_acc >= report.pruned_acc - 1.0
        assert report.final_loss < 12.0

    def test_conv_weights_compliant_after_finetune(self):
        rng = np.random.default_rng(6)
        data = synthetic_images(samples=200, rng=rng)
        model = SmallCNN(8, 6, rng=rng)
        spec = DBBSpec(8, 2)
        dbb_finetune(model, data, w_spec=spec, rng=rng,
                     baseline_epochs=2, finetune_epochs=2, lr=0.03)
        second_conv = model.prunable_layers()[1]
        wt = second_conv.weight.data.T
        pad = (-wt.shape[1]) % 8
        if pad:
            wt = np.concatenate([wt, np.zeros((wt.shape[0], pad))], axis=1)
        assert is_dbb_compliant(wt, spec)
