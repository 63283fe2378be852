"""Tests for Dynamic Activation Pruning (Sec. 5.1)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dap import (
    DAP_MAX_HARDWARE_NNZ,
    dap_keep_fraction,
    dap_prune,
    dap_prune_blocks,
    tune_layer_nnz,
)
from repro.core.dbb import DBBSpec, blocked_rows
from repro.core.pruning import is_dbb_compliant, topk_block_mask
from repro.core.reference import naive_dap_prune
from repro.core.sparsity import random_unstructured


class TestDapPrune:
    def test_enforces_bound(self):
        spec = DBBSpec(8, 4)
        x = np.ones((4, 32), dtype=np.int8)
        result = dap_prune(x, spec)
        assert is_dbb_compliant(result.pruned, spec)

    def test_keeps_top_magnitudes(self):
        spec = DBBSpec(8, 2)
        x = np.array([[1, -9, 3, 0, 7, 0, -2, 5]], dtype=np.int8)
        result = dap_prune(x, spec)
        np.testing.assert_array_equal(result.pruned, [[0, -9, 0, 0, 7, 0, 0, 0]])

    def test_keep_mask_matches_pruned(self):
        spec = DBBSpec(8, 3)
        x = random_unstructured((8, 64), 0.7, rng=np.random.default_rng(0))
        result = dap_prune(x, spec)
        np.testing.assert_array_equal(result.keep_mask, result.pruned != 0)

    def test_already_sparse_untouched(self):
        spec = DBBSpec(8, 4)
        x = np.zeros((2, 16), dtype=np.int8)
        x[0, 3] = 5
        result = dap_prune(x, spec)
        np.testing.assert_array_equal(result.pruned, x)
        assert result.pruned_fraction == 0.0

    def test_pruned_fraction(self):
        spec = DBBSpec(8, 4)
        x = np.ones((1, 8), dtype=np.int8)  # 8 non-zeros -> keep 4
        result = dap_prune(x, spec)
        assert result.pruned_fraction == pytest.approx(0.5)

    def test_non_multiple_channel_padded(self):
        spec = DBBSpec(8, 2)
        x = np.arange(1, 11, dtype=np.int8)[None, :]  # 10 channels
        result = dap_prune(x, spec)
        assert result.pruned.shape == (1, 10)
        # first block [1..8] keeps {7, 8}; second block [9, 10] fits as-is.
        np.testing.assert_array_equal(
            result.pruned, [[0, 0, 0, 0, 0, 0, 7, 8, 9, 10]]
        )

    def test_explicit_nnz_override(self):
        spec = DBBSpec(8, 4)
        x = np.ones((1, 8), dtype=np.int8)
        result = dap_prune(x, spec, nnz=1)
        assert np.count_nonzero(result.pruned) == 1
        assert result.spec.max_nnz == 1

    def test_invalid_nnz(self):
        with pytest.raises(ValueError):
            dap_prune(np.ones(8), DBBSpec(8, 4), nnz=0)
        with pytest.raises(ValueError):
            dap_prune(np.ones(8), DBBSpec(8, 4), nnz=9)

    def test_3d_activation_tensor(self):
        # NHWC-ish layout: blocks along the channel (last) axis only.
        spec = DBBSpec(8, 2)
        x = random_unstructured((2, 3, 16), 0.9, rng=np.random.default_rng(1))
        result = dap_prune(x, spec)
        assert result.pruned.shape == x.shape
        assert is_dbb_compliant(result.pruned.reshape(-1, 16), spec)

    def test_dtype_preserved(self):
        spec = DBBSpec(8, 4)
        x = np.ones((1, 8), dtype=np.int8)
        assert dap_prune(x, spec).pruned.dtype == np.int8

    @given(st.integers(0, 500), st.integers(1, 8))
    @settings(max_examples=60)
    def test_property_compliance_and_subset(self, seed, nnz):
        spec = DBBSpec(8, nnz)
        x = random_unstructured((4, 32), 0.8, rng=np.random.default_rng(seed))
        result = dap_prune(x, spec)
        assert is_dbb_compliant(result.pruned, spec)
        # Pruning only ever zeroes elements; survivors keep their value.
        survivors = result.pruned != 0
        np.testing.assert_array_equal(result.pruned[survivors], x[survivors])

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_property_keeps_max_magnitude(self, seed):
        spec = DBBSpec(8, 1)
        x = random_unstructured((1, 8), 1.0, rng=np.random.default_rng(seed))
        result = dap_prune(x, spec)
        kept = result.pruned[result.pruned != 0]
        if kept.size:
            assert np.abs(kept).max() == np.abs(x).max()


@st.composite
def _int8_activations(draw):
    """Ragged int8 activations (last axis not a multiple of BZ) with
    -128, all-zero blocks and, per block, 0..BZ non-zeros."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 6))
    channels = draw(st.integers(1, 29))
    rng = np.random.default_rng(seed)
    x = rng.integers(-128, 128, size=(rows, channels)).astype(np.int8)
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.4, 0.8]))] = 0
    x[rng.random(x.shape) < 0.1] = -128
    x[rng.integers(rows), :8] = 0  # an all-zero block
    return x


def _max_block_nnz(x, bz=8):
    return int(np.count_nonzero(blocked_rows(x, bz)[0], axis=1).max())


class TestCompliantShortCircuit:
    """``dap_prune`` returns a compliant input as is, without the Top-NNZ
    selection, and is bit-equal to the selection on every other input."""

    @settings(max_examples=150, deadline=None)
    @given(x=_int8_activations(), nnz=st.integers(1, 8),
           spec_nnz=st.sampled_from([2, 4, 8]))
    def test_compliant_blocks_skip_selection(self, x, nnz, spec_nnz):
        from unittest import mock

        spec = DBBSpec(8, spec_nnz)
        x = naive_dap_prune(x, spec, nnz)  # every block within the bound
        with mock.patch("repro.core.dap.topk_block_mask",
                        side_effect=AssertionError("selection ran")):
            result = dap_prune(x, spec, nnz=nnz)
        np.testing.assert_array_equal(result.pruned, x)
        assert result.pruned.dtype == x.dtype
        assert result.pruned is not x
        np.testing.assert_array_equal(result.keep_mask, x != 0)
        assert result.keep_mask.dtype == bool
        assert result.pruned_fraction == 0.0
        assert result.spec == (spec if nnz == spec_nnz
                               else spec.with_nnz(nnz))

    @settings(max_examples=150, deadline=None)
    @given(x=_int8_activations(), nnz=st.integers(1, 7))
    def test_over_bound_matches_selection_and_reference(self, x, nnz):
        spec = DBBSpec(8, 4)
        if _max_block_nnz(x) <= nnz:
            x = x.copy()  # fill the first block: over the bound if it fits
            x[0, :8] = np.arange(1, 9, dtype=np.int8)[:x.shape[1]]
        assume(_max_block_nnz(x) > nnz)
        result = dap_prune(x, spec, nnz=nnz)
        blocks, work_shape, last = blocked_rows(x, 8)
        mask = topk_block_mask(blocks, nnz).reshape(work_shape)[:, :last]
        np.testing.assert_array_equal(result.keep_mask, mask)
        np.testing.assert_array_equal(result.pruned, np.where(mask, x, 0))
        np.testing.assert_array_equal(result.pruned,
                                      naive_dap_prune(x, spec, nnz))
        removed = np.count_nonzero(x) - np.count_nonzero(result.pruned)
        assert removed > 0
        assert result.pruned_fraction == removed / np.count_nonzero(x)


class TestDapPruneBlocks:
    def test_matches_dap_prune(self):
        spec = DBBSpec(8, 3)
        x = random_unstructured((4, 8), 0.9, rng=np.random.default_rng(2))
        out = dap_prune_blocks(x, 3)
        np.testing.assert_array_equal(out, dap_prune(x, spec).pruned)


class TestKeepFraction:
    def test_zero_tensor(self):
        assert dap_keep_fraction(np.zeros(8), DBBSpec(8, 4), 4) == 1.0

    def test_monotone_in_nnz(self):
        x = random_unstructured((16, 64), 0.9, rng=np.random.default_rng(3))
        spec = DBBSpec(8, 4)
        fracs = [dap_keep_fraction(x, spec, n) for n in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0)


class TestTuneLayerNNZ:
    def test_sparse_layer_gets_low_nnz(self):
        x = random_unstructured((32, 64), 0.15, rng=np.random.default_rng(4))
        nnz = tune_layer_nnz(x, DBBSpec(8, 4), keep_threshold=0.95)
        assert nnz <= 3

    def test_dense_layer_bypasses(self):
        x = random_unstructured((32, 64), 1.0, rng=np.random.default_rng(5))
        nnz = tune_layer_nnz(x, DBBSpec(8, 4), keep_threshold=0.999)
        assert nnz == 8  # dense bypass (> 5-stage DAP hardware cap)

    def test_hardware_cap_respected(self):
        x = random_unstructured((32, 64), 0.9, rng=np.random.default_rng(6))
        nnz = tune_layer_nnz(x, DBBSpec(8, 4), keep_threshold=0.99)
        assert nnz <= DAP_MAX_HARDWARE_NNZ or nnz == 8

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            tune_layer_nnz(np.ones(8), DBBSpec(8, 4), keep_threshold=0.0)
