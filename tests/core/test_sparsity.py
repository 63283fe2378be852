"""Tests for the operand census, density and the synthetic tensor
generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dbb import DBBSpec
from repro.core.sparsity import (
    GemmOperands,
    block_nnz,
    density,
    random_dbb_tensor,
    random_unstructured,
)


class TestDensity:
    def test_all_zero(self):
        assert density(np.zeros(10)) == 0.0

    def test_all_nonzero(self):
        assert density(np.ones(10)) == 1.0

    def test_half(self):
        assert density(np.array([0, 1, 0, 2])) == 0.5

    def test_empty(self):
        assert density(np.array([])) == 0.0


class TestBlockNNZ:
    def test_counts_per_block(self):
        x = np.array([1, 0, 0, 0, 2, 3, 0, 4])
        np.testing.assert_array_equal(block_nnz(x, 4), [1, 3])

    def test_padding_blocks(self):
        x = np.ones(10)
        counts = block_nnz(x, 8)
        np.testing.assert_array_equal(counts, [8, 2])


class TestGenerators:
    def test_unstructured_density_close(self):
        x = random_unstructured((200, 200), 0.3, rng=np.random.default_rng(3))
        assert density(x) == pytest.approx(0.3, abs=0.02)

    def test_unstructured_dtype_and_range(self):
        x = random_unstructured((50, 50), 0.5, rng=np.random.default_rng(4))
        assert x.dtype == np.int8
        assert x.max() <= 127 and x.min() >= -127

    def test_unstructured_invalid_density(self):
        with pytest.raises(ValueError):
            random_unstructured((4,), 1.5)

    def test_dbb_tensor_exact_nnz(self):
        spec = DBBSpec(8, 3)
        x = random_dbb_tensor((10, 64), spec, rng=np.random.default_rng(5))
        counts = block_nnz(x, 8)
        assert np.all(counts == 3)

    def test_dbb_tensor_custom_nnz(self):
        spec = DBBSpec(8, 4)
        x = random_dbb_tensor((2, 16), spec, rng=np.random.default_rng(6), nnz=1)
        assert np.all(block_nnz(x, 8) == 1)

    def test_dbb_tensor_shape_validation(self):
        with pytest.raises(ValueError):
            random_dbb_tensor((2, 10), DBBSpec(8, 4))
        with pytest.raises(ValueError):
            random_dbb_tensor((2, 16), DBBSpec(8, 4), nnz=9)

    @given(st.floats(0.1, 0.9), st.integers(0, 10))
    @settings(max_examples=20)
    def test_property_unstructured_density(self, target, seed):
        x = random_unstructured((64, 64), target, rng=np.random.default_rng(seed))
        assert density(x) == pytest.approx(target, abs=0.06)


class TestGemmOperands:
    """Every census field equals its direct reference: per-index counts
    and totals ``np.count_nonzero``, densities :func:`density`, block
    maxima :func:`block_nnz` along ``k`` of ``A`` and of ``W.T``."""

    @given(m=st.sampled_from([0, 1, 7, 254, 255, 256, 511]),
           k=st.integers(0, 27), n=st.sampled_from([0, 1, 5, 254, 256]),
           dtype=st.sampled_from([bool, np.int8]),
           w_layout=st.sampled_from(["c", "transposed", "sliced"]),
           dens=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @example(m=511, k=16, n=256, dtype=bool, w_layout="transposed",
             dens=1.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_fields_equal_references(self, m, k, n, dtype, w_layout, dens,
                                     seed):
        rng = np.random.default_rng(seed)

        def draw(shape):
            values = rng.integers(-127, 128, size=shape)
            return ((rng.random(shape) < dens) * values).astype(dtype)

        a = draw((m, k))
        if w_layout == "c":
            w = draw((k, n))
        elif w_layout == "transposed":  # the synthesized weights' layout
            w = draw((n, k)).T
        else:  # a column slice of a wider buffer
            w = draw((k, n + 3))[:, 2:n + 2]
        ops = GemmOperands(a, w)
        a_cols = np.count_nonzero(a, axis=0)
        w_rows = np.count_nonzero(w, axis=1)
        assert ops.a_col_nnz.dtype == ops.w_row_nnz.dtype == np.int64
        np.testing.assert_array_equal(ops.a_col_nnz, a_cols)
        np.testing.assert_array_equal(ops.w_row_nnz, w_rows)
        assert ops.a_nonzeros == np.count_nonzero(a)
        assert ops.w_nonzeros == np.count_nonzero(w)
        assert ops.a_density == density(a)
        assert ops.w_density == density(w)
        np.testing.assert_array_equal(ops.a_mask, a != 0)
        np.testing.assert_array_equal(ops.w_mask, w != 0)
        for bz in (4, 8):
            assert ops.a_block_max(bz) == block_nnz(a, bz).max(initial=0)
            assert ops.w_block_max(bz) == block_nnz(w.T, bz).max(initial=0)

    def test_counts_once(self, monkeypatch):
        """Every count is taken on first read and then served from the
        census."""
        import repro.core.sparsity as sparsity_module

        calls = []

        def counted(name):
            real = getattr(sparsity_module, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("block_nnz", "column_nnz"):
            monkeypatch.setattr(sparsity_module, name, counted(name))
        rng = np.random.default_rng(0)
        ops = GemmOperands(rng.random((300, 24)) < 0.5,
                           rng.random((24, 9)) < 0.5)
        for _ in range(3):
            ops.a_col_nnz, ops.w_row_nnz, ops.a_density, ops.w_nonzeros
            ops.a_block_max(8), ops.w_block_max(8), ops.w_block_max(4)
        assert sorted(calls) == ["block_nnz"] * 3 + ["column_nnz"] * 2
        assert ops.a_mask is ops.a and ops.w_mask is ops.w

    @pytest.mark.parametrize("a_shape, w_shape", [
        ((4, 8), (9, 2)), ((8,), (8, 2)), ((4, 8), (8,))])
    def test_shape_mismatch_rejected(self, a_shape, w_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            GemmOperands(np.zeros(a_shape), np.zeros(w_shape))
