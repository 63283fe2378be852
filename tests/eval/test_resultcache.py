"""The content-addressed on-disk result cache
(:mod:`repro.eval.resultcache`).

Key sensitivity is the safety property: two configurations that could
produce different simulation payloads must never share a key — the
key must cover the layer spec, the accelerator design point, the
energy costs, the memory-channel config, the seed and the quick-mode
cap (the ISSUE-5 key contract), plus the code-version salt.
"""

import dataclasses
import json

import pytest

from repro.accel import S2TAAW, SmtSA, SparTen, ZvcgSA
from repro.arch.events import EventCounts
from repro.energy.costs import DEFAULT_COSTS
from repro.eval import resultcache
from repro.eval.resultcache import (ResultCache, default_result_cache,
                                    payload_key)
from repro.models import get_spec

CONV2 = get_spec("alexnet").conv_layers[1]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "results")


class TestKey:
    def test_stable_across_instances(self):
        assert payload_key(ZvcgSA(), CONV2) == payload_key(ZvcgSA(), CONV2)
        assert payload_key(ZvcgSA(), CONV2) \
            == payload_key(ZvcgSA(), CONV2, seed=0, max_m=None)

    @pytest.mark.parametrize("variant", [
        ("seed", lambda: payload_key(ZvcgSA(), CONV2, seed=1)),
        ("max_m", lambda: payload_key(ZvcgSA(), CONV2, max_m=64)),
        ("accel", lambda: payload_key(S2TAAW(), CONV2)),
        ("accel-config", lambda: payload_key(SmtSA(fifo_depth=4), CONV2)),
        ("tech", lambda: payload_key(ZvcgSA(tech="65nm"), CONV2)),
        ("dram", lambda: payload_key(ZvcgSA(dram_gbps=64.0), CONV2)),
        ("costs", lambda: payload_key(
            ZvcgSA(costs=dataclasses.replace(DEFAULT_COSTS,
                                             dram_pj_per_byte=40.0)),
            CONV2)),
        ("layer-shape", lambda: payload_key(
            ZvcgSA(), dataclasses.replace(CONV2, m=CONV2.m + 1))),
        ("layer-density", lambda: payload_key(
            ZvcgSA(), dataclasses.replace(CONV2, a_nnz=2))),
    ], ids=lambda v: v[0])
    def test_key_covers_every_input(self, variant):
        _, make_key = variant
        assert make_key() != payload_key(ZvcgSA(), CONV2)

    def test_baseline_smt_depths_share_nothing(self):
        assert payload_key(SmtSA(fifo_depth=2), CONV2) \
            != payload_key(SmtSA(fifo_depth=4), CONV2)

    def test_code_version_salts_key(self, monkeypatch):
        base = payload_key(ZvcgSA(), CONV2)
        monkeypatch.setattr(resultcache, "CODE_VERSION", "other")
        assert payload_key(ZvcgSA(), CONV2) != base

    def test_mask_synthesis_salt_retires_sorted_key_entries(
            self, monkeypatch):
        """Functional payloads and serve jobs stored under the salt of
        the sorted-key INT8 synthesis came from another operand stream:
        neither the cache key nor the serve fingerprint may match."""
        from repro.serve.jobs import SimRequest, request_fingerprint

        sorted_key_salt = "pr7-v1"
        assert resultcache.CODE_VERSION != sorted_key_salt
        request = SimRequest(model="alexnet", accelerator="s2ta-aw",
                             tier="functional", quick=True)
        current = (payload_key(S2TAAW(), CONV2, max_m=64),
                   request_fingerprint(request))
        monkeypatch.setattr(resultcache, "CODE_VERSION", sorted_key_salt)
        assert payload_key(S2TAAW(), CONV2, max_m=64) != current[0]
        assert request_fingerprint(request) != current[1]

    def test_census_salt_retires_mask_synthesis_entries(self, monkeypatch):
        """Census-first synthesis permutes masks from its own streams:
        payloads and serve jobs stored under the mask-native salt came
        from other operands and must not match."""
        from repro.serve.jobs import SimRequest, request_fingerprint

        mask_salt = "masks-v1"
        assert resultcache.CODE_VERSION != mask_salt
        request = SimRequest(model="alexnet", accelerator="sparten",
                             tier="functional", quick=True)
        current = (payload_key(SparTen(), CONV2, max_m=64),
                   request_fingerprint(request))
        monkeypatch.setattr(resultcache, "CODE_VERSION", mask_salt)
        assert payload_key(SparTen(), CONV2, max_m=64) != current[0]
        assert request_fingerprint(request) != current[1]


class TestStore:
    def test_roundtrip(self, cache):
        events = EventCounts(cycles=7, mac_ops=11, sram_a_read_bytes=13)
        cache.put("deadbeef", 42, events)
        got = cache.get("deadbeef")
        assert got == (42, events)
        # A fresh object per get — consumers mutate counters.
        assert got[1] is not events
        assert cache.get("deadbeef")[1] is not got[1]

    def test_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_entry_reads_as_miss(self, cache):
        cache.put("cafe", 1, EventCounts(cycles=1))
        (cache.path / "cafe.json").write_text("{truncated")
        assert cache.get("cafe") is None

    def test_wrong_schema_reads_as_miss(self, cache):
        cache.path.mkdir(parents=True, exist_ok=True)
        (cache.path / "odd.json").write_text(
            json.dumps({"compute_cycles": 1,
                        "events": {"no_such_counter": 3}}))
        assert cache.get("odd") is None

    def test_clear(self, cache):
        for i in range(3):
            cache.put(f"k{i}", i, EventCounts(cycles=i))
        assert cache.clear() == 3
        assert cache.stats() == {"entries": 0, "bytes": 0,
                                 "hits": 0, "misses": 0,
                                 "puts": 0, "evictions": 0,
                                 "corrupt": 0,
                                 "lifetime_hits": 0,
                                 "lifetime_misses": 0,
                                 "lifetime_corrupt": 0}

    def test_size_cap_evicts_oldest(self, cache, tmp_path):
        import os
        import time

        cache.put("old", 1, EventCounts(cycles=1))
        cache.put("new", 2, EventCounts(cycles=2))
        now = time.time()
        os.utime(cache._entry_path("old"), (now - 100, now - 100))
        entry_bytes = cache._entry_path("new").stat().st_size
        assert cache.prune(entry_bytes + 1) == 1
        assert cache.get("old") is None
        assert cache.get("new") is not None

    def test_put_enforces_configured_cap(self, tmp_path):
        small = ResultCache(tmp_path, max_bytes=600)
        for i in range(5):
            small.put(f"k{i}", i, EventCounts(cycles=i))
        assert small.stats()["bytes"] <= 600
        assert small.stats()["entries"] < 5

    def test_invalid_budgets_rejected(self, tmp_path, cache):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            cache.prune(0)


class TestDefaultCache:
    def test_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_result_cache().path == tmp_path / "x"

    def test_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert default_result_cache() is None


class TestSizeAccounting:
    def test_overwrite_keeps_estimate_exact(self, cache):
        """Re-putting an existing key replaces its bytes on disk, so it
        must replace them in the running estimate too (the ISSUE-7 fix:
        overwrites used to double-count and inflate the estimate until
        eviction ran against a store nowhere near the cap)."""
        cache.put("k", 1, EventCounts(cycles=1))
        for i in range(5):
            cache.put("k", i, EventCounts(cycles=i,
                                          mac_ops=i * 1000))
        assert cache._approx_bytes == cache.stats()["bytes"]

    def test_overwrites_do_not_creep_toward_eviction(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        probe.put("k", 1, EventCounts(cycles=1))
        entry_bytes = probe._entry_path("k").stat().st_size
        cache = ResultCache(tmp_path / "rc", max_bytes=4 * entry_bytes)
        cache.put("a", 1, EventCounts(cycles=1))
        cache.put("b", 2, EventCounts(cycles=2))
        # 20 same-key overwrites on a 2-entry store: the inflated
        # estimate would cross the 4-entry cap and spuriously prune.
        for _ in range(20):
            cache.put("a", 1, EventCounts(cycles=1))
        assert cache.stats()["entries"] == 2
        assert cache._approx_bytes == cache.stats()["bytes"]


class TestLifetimeStats:
    """The PR-8 sidecar: hit/miss counts survive process exit, so
    ``repro cache stats`` finally reports real lifetime numbers."""

    def test_persisted_counts_survive_new_instance(self, cache):
        cache.put("k", 0, EventCounts(cycles=1))
        cache.get("k")            # hit
        cache.get("absent")       # miss
        cache.persist_stats()

        fresh = ResultCache(cache.path)
        assert fresh.hits == 0 and fresh.misses == 0
        stats = fresh.stats()
        assert stats["lifetime_hits"] == 1
        assert stats["lifetime_misses"] == 1

    def test_persist_is_delta_not_total(self, cache):
        cache.get("absent")
        cache.persist_stats()
        cache.persist_stats()     # no new activity: no double count
        cache.get("absent")
        cache.persist_stats()
        assert cache.lifetime_stats()["misses"] == 2

    def test_live_counts_fold_into_lifetime_view(self, cache):
        cache.get("absent")
        cache.persist_stats()
        cache.get("absent")       # not yet persisted
        assert cache.stats()["lifetime_misses"] == 2

    def test_sidecar_is_not_a_cache_entry(self, cache):
        cache.get("absent")
        cache.persist_stats()
        # stats.meta must not count as an entry nor be prunable.
        assert cache.stats()["entries"] == 0
        cache.prune(max_bytes=1)
        assert cache.lifetime_stats()["misses"] == 1

    def test_clear_wipes_sidecar(self, cache):
        cache.get("absent")
        cache.persist_stats()
        cache.clear()
        assert cache.lifetime_stats() == {"hits": 0, "misses": 0,
                                          "puts": 0, "evictions": 0,
                                          "corrupt": 0}

    def test_corrupt_sidecar_reads_as_zero(self, cache):
        cache.path.mkdir(parents=True, exist_ok=True)
        (cache.path / resultcache.STATS_SIDECAR).write_text("{broken")
        assert cache.lifetime_stats() == {"hits": 0, "misses": 0,
                                          "puts": 0, "evictions": 0,
                                          "corrupt": 0}
        (cache.path / resultcache.STATS_SIDECAR).write_text(
            json.dumps({"hits": -5, "misses": "many"}))
        assert cache.lifetime_stats()["hits"] == 0
