"""Tests for layers, optimizer and the Table 3 fine-tuning dynamic."""

import numpy as np
import pytest

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.train import (
    MLP,
    DAPLayer,
    Dense,
    SGD,
    Tensor,
    accuracy,
    dbb_finetune,
    synthetic_classification,
    train,
)
from repro.train.layers import Sequential


class TestDense:
    def test_forward_shape(self):
        layer = Dense(8, 4, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 8))))
        assert out.shape == (2, 4)

    def test_prune_to_dbb_compliance(self):
        layer = Dense(16, 4, rng=np.random.default_rng(1))
        spec = DBBSpec(8, 2)
        layer.prune_to_dbb(spec)
        assert is_dbb_compliant(layer.weight.data.T, spec)
        assert layer.weight_density() <= 0.25

    def test_mask_survives_updates(self):
        layer = Dense(16, 4, rng=np.random.default_rng(2))
        spec = DBBSpec(8, 2)
        layer.prune_to_dbb(spec)
        layer.weight.data += 1.0  # simulated optimizer step
        layer.apply_weight_mask()
        assert is_dbb_compliant(layer.weight.data.T, spec)

    def test_prune_requires_block_multiple(self):
        layer = Dense(10, 4, rng=np.random.default_rng(3))
        with pytest.raises(ValueError):
            layer.prune_to_dbb(DBBSpec(8, 4))


class TestDAPLayer:
    def test_enforces_block_bound(self):
        dap = DAPLayer(DBBSpec(8, 2))
        x = Tensor(np.abs(np.random.default_rng(4).normal(size=(4, 16))))
        out = dap(x)
        assert is_dbb_compliant(out.data, DBBSpec(8, 2))

    def test_disabled_is_identity(self):
        dap = DAPLayer(DBBSpec(8, 2), enabled=False)
        x = Tensor(np.ones((2, 16)))
        np.testing.assert_array_equal(dap(x).data, x.data)

    def test_dense_nnz_is_identity(self):
        dap = DAPLayer(DBBSpec(8, 4), nnz=8)
        x = Tensor(np.ones((2, 16)))
        np.testing.assert_array_equal(dap(x).data, x.data)

    def test_gradient_masked(self):
        dap = DAPLayer(DBBSpec(8, 1))
        x = Tensor(np.arange(1.0, 9.0)[None, :], requires_grad=True)
        dap(x).sum().backward()
        expected = np.zeros((1, 8))
        expected[0, 7] = 1.0  # only the max survives
        np.testing.assert_array_equal(x.grad, expected)

    def test_invalid_nnz(self):
        with pytest.raises(ValueError):
            DAPLayer(DBBSpec(8, 4), nnz=0)

    def test_feature_multiple_required(self):
        dap = DAPLayer(DBBSpec(8, 2))
        with pytest.raises(ValueError):
            dap(Tensor(np.ones((1, 12))))


class TestSGD:
    def test_descends_quadratic(self):
        w = Tensor(np.array([4.0]), requires_grad=True)
        opt = SGD([w], lr=0.1, momentum=0.0)
        for _ in range(50):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        assert abs(w.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        def loss_after(momentum, steps=15):
            w = Tensor(np.array([4.0]), requires_grad=True)
            opt = SGD([w], lr=0.02, momentum=momentum)
            for _ in range(steps):
                opt.zero_grad()
                (w * w).sum().backward()
                opt.step()
            return abs(w.data[0])

        assert loss_after(0.9) < loss_after(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], momentum=1.0)


class TestData:
    def test_shapes_and_split(self):
        data = synthetic_classification(samples=400, rng=np.random.default_rng(5))
        assert data.x_train.shape[0] == 300
        assert data.x_test.shape[0] == 100
        assert data.classes == 12
        assert data.x_train.min() >= 0.0  # ReLU-like

    def test_feature_validation(self):
        with pytest.raises(ValueError):
            synthetic_classification(features=10)

    def test_batches_cover_all(self):
        data = synthetic_classification(samples=400, rng=np.random.default_rng(6))
        seen = sum(len(xb) for xb, _ in data.batches(64, np.random.default_rng(0)))
        assert seen == 300


class TestTable3Dynamic:
    """The headline Table 3 behaviour: prune -> drop -> recover."""

    @pytest.fixture(scope="class")
    def report(self):
        rng = np.random.default_rng(7)
        data = synthetic_classification(rng=rng)
        model = MLP(64, [64, 64], 12, dap_spec=DBBSpec(8, 3), rng=rng)
        return dbb_finetune(model, data, w_spec=DBBSpec(8, 4), rng=rng,
                            baseline_epochs=14, finetune_epochs=14)

    def test_baseline_reasonable(self, report):
        assert report.baseline_acc > 85.0

    def test_pruning_hurts(self, report):
        assert report.drop_after_pruning > 1.0

    def test_finetuning_recovers(self, report):
        assert report.recovered > 0.0
        # Table 3: joint A/W-DBB typically lands within ~1-2 points.
        assert report.final_loss < 4.0

    def test_ratios_recorded(self, report):
        assert report.w_ratio == "4/8"
        assert report.a_ratio == "3/8"

    def test_weights_stay_compliant_after_finetune(self):
        rng = np.random.default_rng(8)
        data = synthetic_classification(samples=400, rng=rng)
        model = MLP(64, [32], 12, rng=rng)
        spec = DBBSpec(8, 2)
        dbb_finetune(model, data, w_spec=spec, rng=rng,
                     baseline_epochs=3, finetune_epochs=3)
        for layer in model.prunable_layers()[1:]:
            assert is_dbb_compliant(layer.weight.data.T, spec)

    def test_first_layer_not_pruned(self):
        rng = np.random.default_rng(9)
        data = synthetic_classification(samples=400, rng=rng)
        model = MLP(64, [32], 12, rng=rng)
        dbb_finetune(model, data, w_spec=DBBSpec(8, 2), rng=rng,
                     baseline_epochs=2, finetune_epochs=2)
        first = model.prunable_layers()[0]
        assert first.weight_mask is None
        assert first.weight_density() > 0.9


class TestTrainLoop:
    def test_training_improves_over_chance(self):
        rng = np.random.default_rng(10)
        data = synthetic_classification(samples=600, rng=rng)
        model = MLP(64, [32], 12, rng=rng)
        history = train(model, data, epochs=8, rng=rng)
        assert history[-1] > 3 * (100.0 / 12)

    def test_accuracy_bounds(self):
        rng = np.random.default_rng(11)
        data = synthetic_classification(samples=200, rng=rng)
        model = MLP(64, [16], 12, rng=rng)
        acc = accuracy(model, data.x_test, data.y_test)
        assert 0.0 <= acc <= 100.0

    def test_sequential_requires_modules(self):
        with pytest.raises(ValueError):
            Sequential([])
