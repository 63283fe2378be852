"""Tests for spec-driven operand synthesis and the operand memo layers.

Covers the three memoization surfaces of the functional pipeline:
the from-spec :class:`OperandCache` (byte-budget LRU), the experiment
sweep memo :func:`repro.eval.functional_operands` (read-only guarantee),
and the weight-compression memo hit/miss accounting in
:func:`repro.core.gemm.compress_cached`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.core.sparsity import density
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec
from repro.workloads.from_spec import (
    OperandCache,
    blocked_density_operand,
    operands_for_layer,
    spec_operands,
)


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


class TestOperandCache:
    def test_hit_miss_accounting(self):
        cache = OperandCache(max_bytes=1 << 30)
        layer = _layer()
        a1, w1 = cache.get(layer)
        a2, w2 = cache.get(layer)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert a1 is a2 and w1 is w2
        cache.get(layer, seed=1)
        assert cache.stats()["misses"] == 2

    def test_arrays_are_read_only(self):
        cache = OperandCache(max_bytes=1 << 30)
        a, w = cache.get(_layer())
        with pytest.raises(ValueError):
            a[0, 0] = 1
        with pytest.raises(ValueError):
            w[0, 0] = 1

    def test_evicts_under_byte_budget(self):
        layer_bytes = 64 * 96 + 96 * 32  # one (A, W) pair
        cache = OperandCache(max_bytes=3 * layer_bytes)
        layers = [_layer(name=f"L{i}") for i in range(5)]
        for i, layer in enumerate(layers):
            cache.get(layer, seed=i)
        stats = cache.stats()
        assert stats["bytes"] <= cache.max_bytes
        assert stats["evictions"] >= 2
        assert len(cache) <= 3
        # The most recent entry is resident, the oldest evicted.
        cache.get(layers[-1], seed=4)
        assert cache.stats()["hits"] == 1
        cache.get(layers[0], seed=0)
        assert cache.stats()["misses"] == 6

    def test_lru_order_refreshes_on_hit(self):
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        a = _layer(name="A")
        b = _layer(name="B")
        cache.get(a, seed=0)
        cache.get(b, seed=1)
        cache.get(a, seed=0)      # refresh A
        cache.get(_layer(name="C"), seed=2)  # evicts B, not A
        hits_before = cache.stats()["hits"]
        cache.get(a, seed=0)
        assert cache.stats()["hits"] == hits_before + 1

    def test_oversized_entry_not_retained(self):
        cache = OperandCache(max_bytes=64)
        a, w = cache.get(_layer())
        assert len(cache) == 0
        assert a.nbytes + w.nbytes > 64
        # still read-only and usable
        assert not a.flags.writeable

    def test_eviction_follows_insertion_order_without_hits(self):
        """With no intervening hits, the byte budget evicts strictly in
        insertion order (oldest first) — the LRU degenerates to FIFO."""
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        layers = [_layer(name=f"O{i}") for i in range(4)]
        for i, layer in enumerate(layers):
            cache.get(layer, seed=i)
        assert cache.stats()["evictions"] == 2
        # Probe newest-first so hits don't perturb the order under test:
        # the two newest survive, the two oldest were evicted in order.
        cache.get(layers[3], seed=3)
        cache.get(layers[2], seed=2)
        assert cache.stats()["hits"] == 2
        cache.get(layers[1], seed=1)
        cache.get(layers[0], seed=0)
        assert cache.stats()["misses"] == 4 + 2

    def test_eviction_order_exact_sequence(self):
        """Pinpoint which entry each insertion evicts."""
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        a, b, c = (_layer(name=n) for n in "ABC")
        cache.get(a, seed=0)
        cache.get(b, seed=1)
        assert cache.stats()["evictions"] == 0
        cache.get(c, seed=2)          # budget forces out A (oldest)
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] == 2 * layer_bytes
        cache.get(b, seed=1)          # hit: B was spared
        cache.get(c, seed=2)          # hit: C resident
        assert cache.stats()["hits"] == 2
        cache.get(a, seed=0)          # miss: A was the eviction victim
        assert cache.stats()["misses"] == 4
        assert cache.stats()["evictions"] == 2  # re-inserting A ousts B

    def test_budget_boundary_is_inclusive(self):
        """An entry whose bytes equal the budget exactly is retained."""
        layer = _layer()
        a, w = spec_operands(layer)
        exact = OperandCache(max_bytes=a.nbytes + w.nbytes)
        exact.get(layer)
        assert len(exact) == 1
        just_under = OperandCache(max_bytes=a.nbytes + w.nbytes - 1)
        just_under.get(layer)
        assert len(just_under) == 0

    def test_shared_across_variant_sweep(self):
        """One synthesis feeds every accelerator in a sweep."""
        from repro.accel import S2TAAW, ZvcgSA

        cache = OperandCache(max_bytes=1 << 30)
        layer = _layer(m=32, k=64, n=16, a_density=0.4)
        for accel in (ZvcgSA(), S2TAAW()):
            accel.run_layer_functional(layer, cache=cache)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_default_cache_used_by_helper(self):
        from repro.workloads.from_spec import default_operand_cache

        layer = _layer(m=8, k=16, n=8, name="default-cache-probe")
        a, w = operands_for_layer(layer, seed=12345)
        a2, _ = operands_for_layer(layer, seed=12345)
        assert a is a2
        assert default_operand_cache() is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            OperandCache(max_bytes=0)


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
        cache = OperandCache(max_bytes=1 << 24)
        clear_compress_cache()
        accel = S2TAW(rows=2, cols=2, tpe_a=2, tpe_c=2)
        for _ in range(3):
            accel.run_layer_functional(layer, cache=cache)
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


def _worker_cache_probe(args):
    """Pool worker: exercise this process's default operand cache and
    report its budget/stats (module-level so the pool can pickle it)."""
    import os

    from repro.workloads.from_spec import default_operand_cache

    m, k, n, seed = args
    cache = default_operand_cache()
    layer = LayerSpec("probe", LayerKind.CONV, m=m, k=k, n=n,
                      w_nnz=4, a_nnz=4)
    a, w = cache.get(layer, seed=seed)
    return {
        "pid": os.getpid(),
        "max_bytes": cache.max_bytes,
        "current_bytes": cache.current_bytes,
        "misses": cache.misses,
        "read_only": (not a.flags.writeable) and (not w.flags.writeable),
    }


class TestOperandCacheMultiProcess:
    """The runner's documented process-local cache semantics: workers
    never corrupt or double-count the parent's byte budget."""

    def test_resize_rebudgets_and_evicts(self):
        cache = OperandCache(max_bytes=1 << 20)
        big = _layer(m=256, k=512, n=128)
        cache.get(big)
        assert cache.current_bytes > 0
        cache.resize(1)  # smaller than any entry: everything evicts
        assert cache.max_bytes == 1
        assert cache.current_bytes == 0
        assert len(cache) == 0
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_resize_keeps_entries_within_new_budget(self):
        cache = OperandCache(max_bytes=1 << 22)
        small = _layer(m=8, k=16, n=8)
        cache.get(small)
        resident = cache.current_bytes
        cache.resize(resident + 1)
        assert len(cache) == 1
        assert cache.current_bytes == resident

    def test_workers_get_budget_share_and_parent_stays_intact(self):
        """Each pool worker runs under its budget share; the parent's
        cache never sees the workers' traffic (no double counting)."""
        from repro.eval.runner import _pool_context, _worker_init
        from repro.workloads.from_spec import default_operand_cache
        from concurrent.futures import ProcessPoolExecutor

        parent = default_operand_cache()
        parent_stats_before = parent.stats()
        workers = 4
        share = parent.max_bytes // workers
        jobs = [(64 + 8 * i, 96, 32, i) for i in range(8)]
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(),
                initializer=_worker_init, initargs=(share,)) as pool:
            reports = list(pool.map(_worker_cache_probe, jobs))
        assert all(r["read_only"] for r in reports)
        assert all(r["max_bytes"] == share for r in reports)
        # Aggregate resident bytes across workers respect the parent
        # budget: every worker is individually capped at its share.
        assert all(r["current_bytes"] <= share for r in reports)
        per_pid_peak = {}
        for r in reports:
            per_pid_peak[r["pid"]] = max(
                per_pid_peak.get(r["pid"], 0), r["current_bytes"])
        assert sum(per_pid_peak.values()) <= parent.max_bytes
        # The parent's accounting is untouched by worker traffic.
        assert parent.stats() == parent_stats_before

    def test_thread_safety_under_concurrent_get(self):
        """Concurrent same-process getters never corrupt the budget
        accounting (the lock added for the parallel runner)."""
        import threading

        cache = OperandCache(max_bytes=1 << 22)
        layers = [_layer(m=16 + i, k=64, n=16, name=f"t{i}")
                  for i in range(6)]
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    for layer in layers:
                        cache.get(layer)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        resident = sum(a.nbytes + w.nbytes
                       for a, w in cache._entries.values())
        assert cache.current_bytes == resident
        assert cache.current_bytes <= cache.max_bytes
