"""Tests for the DBB block format (paper Fig. 4/5 semantics)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dbb import (
    DBBBlock,
    DBBSpec,
    block_nnz,
    blocked_rows,
    compress,
    compress_block,
    decompress,
    expand_block,
    mask_to_positions,
    pad_to_blocks,
    positions_to_mask,
)


class TestDBBSpec:
    def test_default_is_paper_4_of_8(self):
        spec = DBBSpec()
        assert spec.block_size == 8
        assert spec.max_nnz == 4
        assert spec.ratio == "4/8"

    def test_density_bound(self):
        assert DBBSpec(8, 4).density_bound == 0.5
        assert DBBSpec(8, 2).density_bound == 0.25
        assert DBBSpec(4, 2).density_bound == 0.5

    def test_dense_fallback_spec(self):
        assert DBBSpec(8, 8).is_dense
        assert not DBBSpec(8, 7).is_dense

    def test_invalid_nnz_rejected(self):
        with pytest.raises(ValueError):
            DBBSpec(8, 0)
        with pytest.raises(ValueError):
            DBBSpec(8, 9)

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            DBBSpec(0, 0)

    def test_compressed_bytes_int8(self):
        spec = DBBSpec(8, 4)
        assert spec.compressed_value_bytes(1) == 4
        assert spec.mask_bytes() == 1.0
        assert spec.compressed_block_bytes(1) == 5.0

    def test_compression_ratio(self):
        # 8 dense bytes vs 4 values + 1 mask byte.
        assert DBBSpec(8, 4).compression_ratio(1) == pytest.approx(8 / 5)

    def test_with_nnz(self):
        spec = DBBSpec(8, 4).with_nnz(2)
        assert spec.max_nnz == 2
        assert spec.block_size == 8


class TestBitmask:
    def test_fig5_style_mask(self):
        # Fig. 8: positions {0, 2, 3, 6} encode as 8'h4D.
        assert positions_to_mask([0, 2, 3, 6], 8) == 0x4D

    def test_fig8_top1_mask(self):
        # Fig. 8 Top-1 of [0,4,1,5,2,6,-1,-7]: position 7 (-7)... the figure
        # lists Top-1 M=8'h04? The largest magnitude first selected in the
        # cascade example yields masks 04, 05, 0D, 4D, 4F cumulatively.
        assert positions_to_mask([2], 8) == 0x04
        assert positions_to_mask([0, 2], 8) == 0x05
        assert positions_to_mask([0, 2, 3], 8) == 0x0D
        assert positions_to_mask([0, 2, 3, 6], 8) == 0x4D
        assert positions_to_mask([0, 1, 2, 3, 6], 8) == 0x4F

    def test_roundtrip(self):
        for positions in ([], [0], [7], [1, 3, 5], list(range(8))):
            mask = positions_to_mask(positions, 8)
            assert mask_to_positions(mask, 8) == sorted(positions)

    def test_duplicate_position_rejected(self):
        with pytest.raises(ValueError):
            positions_to_mask([1, 1], 8)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            positions_to_mask([8], 8)
        with pytest.raises(ValueError):
            mask_to_positions(1 << 8, 8)

    @given(st.sets(st.integers(0, 7)))
    def test_property_roundtrip(self, positions):
        mask = positions_to_mask(sorted(positions), 8)
        assert set(mask_to_positions(mask, 8)) == positions


class TestCompressBlock:
    def test_fig5_example(self):
        # A 4/8 block keeps 4 values and the bitmask of their positions.
        spec = DBBSpec(8, 4)
        block = compress_block(np.array([0, 5, 0, -3, 0, 0, 7, 1]), spec)
        assert block.nnz == 4
        assert block.positions == [1, 3, 6, 7]
        assert list(block.values) == [5, -3, 7, 1]

    def test_underfull_block_padded_with_zeros(self):
        spec = DBBSpec(8, 4)
        block = compress_block(np.array([0, 0, 9, 0, 0, 0, 0, 0]), spec)
        assert block.nnz == 1
        assert list(block.values) == [9, 0, 0, 0]

    def test_overfull_block_rejected(self):
        spec = DBBSpec(8, 2)
        with pytest.raises(ValueError, match="exceeds bound"):
            compress_block(np.array([1, 1, 1, 0, 0, 0, 0, 0]), spec)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            compress_block(np.zeros(7), DBBSpec(8, 4))

    def test_expand_roundtrip(self):
        spec = DBBSpec(8, 4)
        dense = np.array([0, 5, 0, -3, 0, 0, 7, 1], dtype=np.int8)
        block = compress_block(dense, spec)
        np.testing.assert_array_equal(expand_block(block, dtype=np.int8), dense)

    def test_block_invariant_checked_on_construction(self):
        spec = DBBSpec(8, 2)
        with pytest.raises(ValueError):
            DBBBlock(spec=spec, values=(1, 2), mask=0b111)
        with pytest.raises(ValueError):
            DBBBlock(spec=spec, values=(1, 2, 3), mask=0b11)

    @given(
        st.lists(st.integers(-128, 127), min_size=8, max_size=8),
        st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_property_compress_expand_roundtrip(self, values, nnz):
        arr = np.array(values, dtype=np.int8)
        spec = DBBSpec(8, nnz)
        if np.count_nonzero(arr) > nnz:
            with pytest.raises(ValueError):
                compress_block(arr, spec)
        else:
            block = compress_block(arr, spec)
            np.testing.assert_array_equal(expand_block(block, np.int8), arr)
            assert block.nnz == np.count_nonzero(arr)


class TestPadToBlocks:
    def test_exact_multiple_untouched(self):
        v = np.arange(16)
        assert pad_to_blocks(v, 8) is v

    def test_padding_appended(self):
        v = np.arange(10)
        out = pad_to_blocks(v, 8)
        assert out.shape == (16,)
        np.testing.assert_array_equal(out[10:], 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            pad_to_blocks(np.zeros((2, 8)), 8)


class TestBlockNnz:
    """:func:`block_nnz` (popcount / byte sums) equals a
    ``count_nonzero`` over :func:`blocked_rows`'s blocks."""

    @pytest.mark.parametrize("bz", [4, 8, 16])
    @pytest.mark.parametrize("transposed", [False, True])
    @given(dtype=st.sampled_from([bool, np.int8]),
           shape=st.lists(st.integers(1, 4), min_size=1,
                          max_size=2).flatmap(
               lambda lead: st.integers(1, 45).map(
                   lambda width: (*lead, width))),
           dens=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @example(dtype=np.int8, shape=(2, 7), dens=1.0, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_equals_count_nonzero(self, bz, transposed, dtype, shape,
                                  dens, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-127, 128, size=shape)
        tensor = ((rng.random(shape) < dens) * values).astype(dtype)
        if transposed:  # the weight path passes a transposed view
            tensor = np.swapaxes(
                np.ascontiguousarray(np.swapaxes(tensor, -1, -2)), -1, -2)
        blocks, _, _ = blocked_rows(tensor, bz)
        np.testing.assert_array_equal(block_nnz(tensor, bz),
                                      np.count_nonzero(blocks, axis=1))

    @pytest.mark.parametrize("bz", [4, 8])
    @pytest.mark.parametrize("layout", [
        "read_only", "strided", "transposed", "column_slice",
        "offset_slice", "flat_offset"])
    @given(rows=st.integers(1, 6), blocks=st.integers(1, 5),
           dens=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_bool_layouts(self, bz, layout, rows, blocks, dens, seed):
        """``bool`` inputs in every layout the census meets count like
        their ``!= 0`` pattern: in place when C-contiguous and
        8-aligned in width (including an unaligned start), copied into
        the padded buffer otherwise."""
        rng = np.random.default_rng(seed)
        base = rng.random((rows + 1, 8 * blocks + 3)) < dens
        tensor = {
            "read_only": base[:, :8 * blocks].copy(),
            "strided": base[:, ::2],
            "transposed": base.T,
            "column_slice": base[:, :8 * blocks - 3],
            "offset_slice": base[1:, 3:3 + 8 * blocks].copy()[:, 1:],
            "flat_offset": base.reshape(-1)[1:1 + 8 * blocks],
        }[layout]
        if layout == "read_only":
            tensor.flags.writeable = False
        blocks_, _, _ = blocked_rows(tensor, bz)
        np.testing.assert_array_equal(block_nnz(tensor, bz),
                                      np.count_nonzero(blocks_, axis=1))

    def test_empty(self):
        assert block_nnz(np.zeros((0, 8)), 8).size == 0


class TestDBBTensor:
    def test_compress_decompress_2d(self):
        rng = np.random.default_rng(0)
        spec = DBBSpec(8, 4)
        from repro.core.sparsity import random_dbb_tensor

        dense = random_dbb_tensor((6, 32), spec, rng=rng)
        tensor = compress(dense, spec)
        np.testing.assert_array_equal(decompress(tensor, dtype=np.int8), dense)

    def test_unpadded_shape_preserved(self):
        spec = DBBSpec(8, 8)  # dense spec accepts anything
        dense = np.arange(1, 2 * 11 + 1, dtype=np.int8).reshape(2, 11)
        tensor = compress(dense, spec)
        assert tensor.shape == (2, 11)
        assert tensor.blocks_per_row == 2
        np.testing.assert_array_equal(decompress(tensor, dtype=np.int8), dense)

    def test_1d_input_treated_as_row(self):
        spec = DBBSpec(8, 8)
        tensor = compress(np.arange(8, dtype=np.int8), spec)
        assert tensor.shape == (1, 8)

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError):
            compress(np.zeros((2, 2, 8)), DBBSpec(8, 4))

    def test_density_and_nnz(self):
        spec = DBBSpec(8, 4)
        dense = np.zeros((2, 16), dtype=np.int8)
        dense[0, 0] = 1
        dense[1, 8] = 2
        tensor = compress(dense, spec)
        assert tensor.nnz == 2
        assert tensor.density == pytest.approx(2 / 32)

    def test_storage_bytes_fixed_payload(self):
        # 4/8 INT8: 4 value bytes + 1 mask byte per block, independent of
        # actual NNZ (fixed worst-case payload is the point of DBB).
        spec = DBBSpec(8, 4)
        dense = np.zeros((4, 32), dtype=np.int8)
        tensor = compress(dense, spec)
        assert tensor.storage_bytes(1) == 4 * 4 * 5.0
        assert tensor.dense_bytes(1) == 4 * 32

    def test_repr_mentions_ratio(self):
        spec = DBBSpec(8, 4)
        tensor = compress(np.zeros((1, 8), dtype=np.int8), spec)
        assert "4/8" in repr(tensor)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 4))
    @settings(max_examples=50)
    def test_property_roundtrip_random_dbb(self, rows, blocks, nnz_seed):
        rng = np.random.default_rng(nnz_seed)
        spec = DBBSpec(8, max(1, nnz_seed) if nnz_seed else 1)
        from repro.core.sparsity import random_dbb_tensor

        nnz = min(spec.max_nnz, spec.block_size)
        dense = random_dbb_tensor((rows, blocks * 8), spec, rng=rng, nnz=nnz)
        tensor = compress(dense, spec)
        np.testing.assert_array_equal(decompress(tensor, dtype=np.int8), dense)
