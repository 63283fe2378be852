"""Tests for spec-driven operand synthesis and the memos around it.

Covers :func:`blocked_density_operand` / :func:`spec_operands` (shape,
DBB caps, densities, determinism), the experiment sweep memo
:func:`repro.eval.functional_operands` (read-only guarantee), and the
weight-compression memo hit/miss accounting in
:func:`repro.core.gemm.compress_cached`. Sharing one synthesis across
the tasks of an operand group is tested with the layer runner in
``tests/eval/test_runner.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.core.sparsity import density
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec
from repro.workloads.from_spec import blocked_density_operand, spec_operands


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


class TestBlockedDensityOperand:
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 8),
           st.floats(0.05, 1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cap_and_shape_hold_on_ragged_widths(self, rows, width, cap,
                                                 dens, seed):
        rng = np.random.default_rng(seed)
        out = blocked_density_operand(rows, width, cap,
                                      min(dens, cap / BLOCK_SIZE), rng)
        assert out.shape == (rows, width)
        assert out.dtype == np.int8
        assert _row_block_nnz(out).max(initial=0) <= cap

    def test_density_matches_target(self):
        rng = np.random.default_rng(0)
        out = blocked_density_operand(512, 1200, 4, 0.45, rng)
        assert density(out) == pytest.approx(0.45, abs=0.01)

    def test_full_density_is_exact(self):
        rng = np.random.default_rng(1)
        out = blocked_density_operand(16, 37, 8, 1.0, rng)
        assert density(out) == 1.0

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            blocked_density_operand(4, 8, 0, 0.5, rng)
        with pytest.raises(ValueError):
            blocked_density_operand(4, 8, 4, 1.5, rng)


class TestSpecOperands:
    def test_shapes_and_compliance(self):
        layer = _layer(m=33, k=90, n=17, w_nnz=3, a_nnz=2,
                       a_density=0.2)
        a, w = spec_operands(layer)
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

    def test_dap_is_noop_on_generated_activations(self):
        """All four execution modes must see the same element density."""
        from repro.core.dap import dap_prune

        layer = _layer(m=64, k=64, a_nnz=3, a_density=0.3)
        a, _ = spec_operands(layer)
        pruned = dap_prune(a, DBBSpec(BLOCK_SIZE, 3)).pruned
        np.testing.assert_array_equal(a, pruned)


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
        a, w = spec_operands(layer)
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
            _, w = spec_operands(_layer(m=8, k=64, n=8), seed=seed)
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
        a, w = spec_operands(_layer(m=16, k=64, n=16, a_density=0.5))
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
