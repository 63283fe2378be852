"""Tests for spec-driven operand synthesis and the memos around it.

Covers :func:`blocked_density_mask` (exact total, caps, padding,
allocation, uniformity; its census and its law are tested in
``test_census_law.py``),
:func:`operand_densities` (bit-equal to the synthesized operands'
densities), :func:`spec_operands` / :func:`spec_int8_operands` (shape,
DBB caps, densities, determinism, values on exactly the patterns), the
experiment sweep memo :func:`repro.eval.functional_operands` (read-only
guarantee), and the weight-compression memo hit/miss accounting in
:func:`repro.core.gemm.compress_cached`. Sharing one synthesis across
the tasks of an operand group is tested with the layer runner in
``tests/eval/test_runner.py``.
"""

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.core.sparsity import density
from repro.models import get_spec
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec
from repro.workloads import from_spec
from repro.workloads.from_spec import (
    blocked_density_mask,
    operand_densities,
    spec_census,
    spec_int8_operands,
    spec_operands,
)

#: Traced peak bound of ``TestBoundedCensusDraw``'s synthetic census
#: (~5.3 MB drawn in runs, ~42 MB drawn in one run).
CENSUS_PEAK_BOUND = 10 * 2**20


def _layer(m=64, k=96, n=32, w_nnz=4, a_nnz=4, w_density=None,
           a_density=None, name="L"):
    return LayerSpec(name, LayerKind.CONV, m=m, k=k, n=n,
                     w_nnz=w_nnz, a_nnz=a_nnz,
                     weight_density=w_density, act_density=a_density)


def _row_block_nnz(x):
    """Per-row DBB block non-zero counts (blocks never cross rows)."""
    pad = (-x.shape[1]) % BLOCK_SIZE
    xp = np.pad(x, ((0, 0), (0, pad)))
    return np.count_nonzero(
        xp.reshape(x.shape[0], -1, BLOCK_SIZE), axis=2)


def _valid_widths(width):
    kb = -(-width // BLOCK_SIZE)
    return [min(BLOCK_SIZE, width - j * BLOCK_SIZE) for j in range(kb)]


def _caps(width, nnz_cap):
    return [min(nnz_cap, v) for v in _valid_widths(width)]


def _largest_remainder(rows, width, nnz_cap, dens):
    """Multiset of (valid width, nnz) over blocks of the largest-remainder
    allocation, computed by sorting every block on its remainder (ties
    in any order: the multiset does not depend on them)."""
    blocks = [(v, c, dens * v) for v in _valid_widths(width)
              for c in [min(nnz_cap, v)]] * rows
    nnz = [min(int(np.floor(t)), c) for _, c, t in blocks]
    total = min(round(rows * width * dens), sum(c for _, c, _ in blocks))
    order = sorted(range(len(blocks)),
                   key=lambda b: -(blocks[b][2] - np.floor(blocks[b][2])))
    deficit = total - sum(nnz)
    while deficit > 0:
        for b in [b for b in order if nnz[b] < blocks[b][1]][:deficit]:
            nnz[b] += 1
            deficit -= 1
    return Counter((v, k) for (v, _, _), k in zip(blocks, nnz))


_mask_cases = st.tuples(
    st.integers(1, 9),        # rows
    st.integers(1, 45),       # width — ragged tails included
    st.integers(1, BLOCK_SIZE),  # nnz_cap
    st.one_of(st.floats(0.0, 1.0),
              st.integers(0, 16).map(lambda i: i / 16)),  # tied remainders
    st.integers(0, 10_000),   # seed
)


class TestBlockedDensityOperand:
    """:func:`blocked_density_mask`, the DBB pattern of a synthesized
    operand."""

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 8),
           st.floats(0.05, 1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cap_and_shape_hold_on_ragged_widths(self, rows, width, cap,
                                                 dens, seed):
        rng = np.random.default_rng(seed)
        out = blocked_density_mask(rows, width, cap,
                                   min(dens, cap / BLOCK_SIZE), rng)
        assert out.shape == (rows, width)
        assert out.dtype == bool
        assert _row_block_nnz(out).max(initial=0) <= cap

    @given(_mask_cases)
    @settings(max_examples=60, deadline=None)
    def test_total_padding_and_allocation(self, case):
        rows, width, cap, dens, seed = case
        out = blocked_density_mask(rows, width, cap, dens,
                                   np.random.default_rng(seed))
        caps = _caps(width, cap)
        per_block = _row_block_nnz(out)
        # Exact total, clipped to what the caps can hold.
        total = int(np.count_nonzero(out))
        assert total == min(round(rows * width * dens), rows * sum(caps))
        if dens <= cap / BLOCK_SIZE:
            assert total == round(rows * width * dens)
        # Per-block cap, and saturation at it above nnz_cap / BZ.
        assert (per_block <= np.array(caps)).all()
        if dens >= cap / BLOCK_SIZE and width % BLOCK_SIZE == 0:
            assert (per_block == cap).all()
        # No bit in the padding of the ragged tail block: ``out`` is a
        # view of the padded pattern buffer, so read past its width.
        assert out.base is not None
        assert out.strides == (len(caps) * BLOCK_SIZE, 1)
        assert out.base.nbytes >= rows * len(caps) * BLOCK_SIZE
        padded = np.lib.stride_tricks.as_strided(
            out, shape=(rows, len(caps) * BLOCK_SIZE))
        assert not padded[:, width:].any()
        # The per-block nnz multiset is the largest-remainder allocation.
        widths = np.broadcast_to(_valid_widths(width), per_block.shape)
        assert Counter(zip(widths.ravel().tolist(),
                           per_block.ravel().tolist())) \
            == _largest_remainder(rows, width, cap, dens)
        # The closed-form density is the pattern's, bit for bit.
        layer = _layer(m=rows, k=width, a_nnz=cap, a_density=dens)
        assert operand_densities(layer)[1] == density(out)

    def test_in_block_positions_are_uniform(self):
        """Fixed seed: 3-of-8 blocks hit all 56 masks, and every
        position of a ragged 5-wide tail block, equally often."""
        rows = 56_000
        out = blocked_density_mask(rows, 13, 3, 3 / 8,
                                   np.random.default_rng(0))
        full = np.packbits(out[:, :8], axis=1, bitorder="little").ravel()
        counts = np.bincount(full, minlength=256)
        masks = [m for m in range(256) if bin(m).count("1") == 3]
        assert counts.sum() == counts[masks].sum() == rows
        # 1000 expected per mask (sd ~31); 56 masks.
        assert np.abs(counts[masks] - 1000).max() < 150
        tail = out[:, 8:].sum(axis=0)
        expected = tail.sum() / 5
        assert np.abs(tail - expected).max() < 0.02 * expected

    def test_density_matches_target(self):
        out = blocked_density_mask(512, 1200, 4, 0.45,
                                   np.random.default_rng(0))
        assert density(out) == pytest.approx(0.45, abs=1e-6)

    def test_full_density_is_exact(self):
        out = blocked_density_mask(16, 37, 8, 1.0, np.random.default_rng(1))
        assert density(out) == 1.0

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            blocked_density_mask(4, 8, 0, 0.5, rng)
        with pytest.raises(ValueError):
            blocked_density_mask(4, 8, 4, 1.5, rng)


class TestSpecOperands:
    def test_operand_densities_are_exact(self):
        """The runner prefetches SA-SMT at these densities before
        synthesis: they must equal the measured ones bit for bit."""
        for name in ("resnet50", "vgg16", "mobilenet_v1", "alexnet"):
            for layer in get_spec(name).conv_layers:
                operands = spec_census(layer)
                assert operand_densities(layer) \
                    == (density(operands.w), density(operands.a)), \
                    (name, layer.name)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            spec_census(_layer(), seed=-3)

    def test_shapes_and_compliance(self):
        layer = _layer(m=33, k=90, n=17, w_nnz=3, a_nnz=2,
                       a_density=0.2)
        a, w = spec_operands(layer)
        assert a.dtype == w.dtype == bool
        assert a.shape == (33, 90)
        assert w.shape == (90, 17)
        pad = (-90) % BLOCK_SIZE
        wt = np.concatenate(
            [w.T, np.zeros((17, pad), dtype=w.dtype)], axis=1)
        assert is_dbb_compliant(wt, DBBSpec(BLOCK_SIZE, 3))
        assert _row_block_nnz(a).max() <= 2

    def test_densities_track_spec(self):
        layer = _layer(m=256, k=512, n=128, w_nnz=4, a_nnz=4,
                       a_density=0.45)
        a, w = spec_operands(layer)
        assert density(w) == pytest.approx(0.5, abs=0.01)
        assert density(a) == pytest.approx(0.45, abs=0.01)

    def test_deterministic_per_seed(self):
        layer = _layer()
        a1, w1 = spec_operands(layer, seed=3)
        a2, w2 = spec_operands(layer, seed=3)
        a3, _ = spec_operands(layer, seed=4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(w1, w2)
        assert not np.array_equal(a1, a3)

    def test_int8_values_sit_on_the_patterns(self):
        layer = _layer(m=40, k=75, n=21, w_nnz=3, a_nnz=5, a_density=0.4)
        a, w = spec_operands(layer, seed=7)
        ai, wi = spec_int8_operands(layer, seed=7)
        assert ai.dtype == wi.dtype == np.int8
        assert ai.shape == a.shape and wi.shape == w.shape
        np.testing.assert_array_equal(ai != 0, a)
        np.testing.assert_array_equal(wi != 0, w)
        assert ai.min() >= -127 and wi.min() >= -127
        # Drawing values never moves the patterns.
        a2, w2 = spec_operands(layer, seed=7)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(w, w2)
        ai2, wi2 = spec_int8_operands(layer, seed=7)
        np.testing.assert_array_equal(ai, ai2)
        np.testing.assert_array_equal(wi, wi2)

    def test_int8_values_are_uniform_nonzero(self):
        a, _ = spec_int8_operands(_layer(m=512, k=512, n=8, a_nnz=8,
                                         a_density=1.0))
        counts = np.bincount(a.astype(np.int64).ravel() + 128,
                             minlength=256)
        assert counts[128] == 0 and counts[0] == 0
        values = counts[1:256][np.arange(255) != 127]
        # 262144 draws over 254 values: ~1032 each (sd ~32).
        assert np.abs(values - a.size / 254).max() < 200

    def test_dap_is_noop_on_generated_activations(self):
        """All four execution modes must see the same element density."""
        from repro.core.dap import dap_prune

        layer = _layer(m=64, k=64, a_nnz=3, a_density=0.3)
        a, _ = spec_int8_operands(layer)
        pruned = dap_prune(a, DBBSpec(BLOCK_SIZE, 3)).pruned
        np.testing.assert_array_equal(a, pruned)


class TestBoundedCensusDraw:
    """The census draw's transient memory is bounded by construction:
    picks are drawn in runs of whole rows (bit-equal to one draw) and
    the mask histograms use the narrowest count dtype."""

    @staticmethod
    def _one_shot(blocks, size, rng):
        """The pick path as one draw: every pick at once, each counted
        into its row by ``np.add.at``."""
        picks = rng.integers(0, size, size=int(blocks.sum()))
        counts = np.zeros((blocks.size, size), dtype=np.int64)
        np.add.at(counts, (np.repeat(np.arange(blocks.size), blocks),
                           picks), 1)
        return counts

    @pytest.mark.parametrize("run", [1, 7, 10**9])
    @given(blocks=st.lists(st.integers(1, 300), min_size=1, max_size=40),
           size=st.integers(3, 255), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pick_runs_equal_one_draw(self, run, blocks, size, seed):
        blocks = np.array(blocks)
        rng = np.random.default_rng(seed)
        with mock.patch.object(from_spec, "_PICK_RUN", run), \
                mock.patch.object(from_spec, "_DRAWS_PER_MASK", 10**9):
            counts = from_spec._uniform_counts(blocks, size, rng)
        oracle = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            counts, self._one_shot(blocks, size, oracle))
        # The generator is left exactly where one draw leaves it.
        np.testing.assert_array_equal(rng.integers(0, 2**62, size=3),
                                      oracle.integers(0, 2**62, size=3))
        assert rng.random() == oracle.random()

    def test_census_peak_is_bounded(self):
        """3.1M weight blocks at one popcount level: one pick per block.
        Drawn in one run, the ``int64`` picks and their row offsets
        alone would take ~37 MB; in runs, the peak is the retained
        census plus one ``(columns, masks)`` count array and one run."""
        layer = _layer(m=16, k=25088, n=1000, w_nnz=4, a_nnz=8,
                       w_density=0.5, a_density=0.5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            operands = spec_census(layer)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < CENSUS_PEAK_BOUND, peak
        for census, rows in ((operands._census["w"], layer.n),
                             (operands._census["a"], layer.m)):
            for _, hist in census.histograms:
                assert hist.dtype == np.min_scalar_type(rows)

    def test_streams_are_the_spawned_children(self):
        layer = _layer(m=33, k=90, n=17, w_nnz=3, a_nnz=2)
        for seed in (0, 7):
            children = np.random.SeedSequence(
                [seed, layer.m, layer.k, layer.n, layer.w_nnz,
                 layer.a_nnz]).spawn(4)
            for child, spawned in enumerate(children):
                stream = from_spec._stream(layer, seed, child)
                np.testing.assert_array_equal(
                    stream.generate_state(8), spawned.generate_state(8))
        assert [from_spec._CENSUS, from_spec._VALUES, from_spec._A,
                from_spec._W] == [0, 1, 2, 3]


class TestFunctionalOperandsMemo:
    def test_read_only_flags_enforced(self):
        from repro.eval import functional_operands

        a, w = functional_operands(16, 32, 8)
        assert not a.flags.writeable
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
        a2, w2 = functional_operands(16, 32, 8)
        assert a is a2 and w is w2  # lru_cache identity


class TestCompressCacheStats:
    def test_hit_miss_accounting_across_mode_sweep(self):
        """Reading WDBB outputs across a sweep compresses each weight
        tensor once."""
        from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
        )

        layer = _layer(m=16, k=64, n=16, w_nnz=4, a_density=0.5)
        a, w = spec_int8_operands(layer)
        sim = SystolicArray(SystolicConfig(
            rows=2, cols=2, mode=Mode.WDBB, w_spec=DBBSpec(8, 4),
            tpe_a=2, tpe_c=2))
        clear_compress_cache()
        for _ in range(3):
            sim.run_gemm(a, w).output
        stats = compress_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        clear_compress_cache()
        assert compress_cache_stats() == {"hits": 0, "misses": 0,
                                          "entries": 0}

    def test_distinct_tensors_get_distinct_entries(self):
        """The memo is content-addressed: one miss per distinct weight
        tensor, independent of which layer/seed produced it."""
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
            compress_cached,
        )

        clear_compress_cache()
        tensors = []
        for seed in range(3):
            _, w = spec_int8_operands(_layer(m=8, k=64, n=8), seed=seed)
            tensors.append(np.ascontiguousarray(w.T))
        for w in tensors:
            compress_cached(w, DBBSpec(8, 4))
        assert compress_cache_stats()["misses"] == 3
        assert compress_cache_stats()["entries"] == 3
        for w in tensors:
            compress_cached(w, DBBSpec(8, 4))
        assert compress_cache_stats()["hits"] == 3
        # a different (looser) spec over the same bytes is its own entry
        compress_cached(tensors[0], DBBSpec(8, 8))
        assert compress_cache_stats()["misses"] == 4
        clear_compress_cache()

    def test_functional_layer_run_computes_no_output(self, monkeypatch):
        """The layer pipeline prices events only: repeated W-DBB layer
        runs compute no GEMM output and compress no weights."""
        from repro.accel import S2TAW
        from repro.arch import systolic
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
        )

        calls = []
        for name in ("dense_gemm", "dbb_gemm"):
            def counting(*args, _fn=getattr(systolic, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(systolic, name, counting)
        layer = _layer(m=16, k=64, n=16, a_density=0.5)
        clear_compress_cache()
        accel = S2TAW(rows=2, cols=2, tpe_a=2, tpe_c=2)
        for _ in range(3):
            accel.run_layer_functional(layer)
        assert calls == []
        assert compress_cache_stats()["misses"] == 0
        assert compress_cache_stats()["hits"] == 0

    def test_output_read_hits_compress_memo(self, monkeypatch):
        """Reading a W-DBB output compresses W once across repeated runs,
        and a second read of the same result reuses the first."""
        from repro.arch import systolic
        from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
            dense_gemm,
        )

        calls = []

        def counting(*args, _fn=systolic.dbb_gemm):
            calls.append("dbb_gemm")
            return _fn(*args)

        monkeypatch.setattr(systolic, "dbb_gemm", counting)
        a, w = spec_int8_operands(_layer(m=16, k=64, n=16, a_density=0.5))
        sim = SystolicArray(SystolicConfig(
            rows=2, cols=2, mode=Mode.WDBB, w_spec=DBBSpec(8, 4),
            tpe_a=2, tpe_c=2))
        clear_compress_cache()
        results = [sim.run_gemm(a, w) for _ in range(3)]
        assert compress_cache_stats()["misses"] == 0
        for result in results:
            assert np.array_equal(result.output, dense_gemm(a, w))
        assert compress_cache_stats()["misses"] == 1
        assert compress_cache_stats()["hits"] == 2
        assert len(calls) == 3
        assert results[0].output is results[0].output  # no recompute
        assert len(calls) == 3
        clear_compress_cache()
