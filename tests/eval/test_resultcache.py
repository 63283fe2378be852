"""The content-addressed on-disk result cache
(:mod:`repro.eval.resultcache`).

Key sensitivity is the safety property: two configurations that could
produce different simulation payloads must never share a key — the
key must cover the layer spec, the accelerator design point, the
energy costs, the memory-channel config and the seed (the key
contract), plus the source salt.
"""

import dataclasses
import json
import shutil

import pytest

from repro.accel import S2TAAW, SmtSA, SparTen, ZvcgSA
from repro.arch.events import EventCounts
from repro.energy.costs import DEFAULT_COSTS
from repro.eval import resultcache
from repro.eval.resultcache import (CORRUPT_SUBDIR, ResultCache,
                                    default_result_cache, payload_key)
from repro.models import get_spec
from repro.models.specs import LayerSpec

CONV2 = get_spec("alexnet").conv_layers[1]
#: CONV2 with 8 output rows, for tests that simulate it.
CONV2_SMALL = dataclasses.replace(CONV2, m=8)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "results")


class TestKey:
    def test_stable_across_instances(self):
        assert payload_key(ZvcgSA(), CONV2) == payload_key(ZvcgSA(), CONV2)
        assert payload_key(ZvcgSA(), CONV2) \
            == payload_key(ZvcgSA(), CONV2, seed=0)

    @pytest.mark.parametrize("variant", [
        ("seed", lambda: payload_key(ZvcgSA(), CONV2, seed=1)),
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

    def test_source_salt_retires_every_key(self, tmp_path, monkeypatch):
        """Changing the bytes of any salted module changes every payload
        key, so entries stored before a simulator edit can never be
        served after it."""
        root = tmp_path / "repro"
        for source in resultcache.SALT_SOURCES:
            src = resultcache._PACKAGE_ROOT / source
            if src.is_dir():
                shutil.copytree(src, root / source, ignore=shutil
                                .ignore_patterns("__pycache__"))
            else:
                (root / source).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, root / source)
        monkeypatch.setattr(resultcache, "_PACKAGE_ROOT", root)

        def keys():
            resultcache.code_salt.cache_clear()
            return [payload_key(accel, CONV2)
                    for accel in (ZvcgSA(), S2TAAW(), SmtSA(), SparTen())]

        try:
            base = keys()
            modules = sorted(root.rglob("*.py"))
            assert len(modules) > len(resultcache.SALT_SOURCES)
            for module in modules:
                original = module.read_bytes()
                module.write_bytes(original + b"\n")
                try:
                    changed = keys()
                finally:
                    module.write_bytes(original)
                assert all(new != old for new, old in zip(changed, base)), \
                    module.relative_to(root)
            assert keys() == base
        finally:
            resultcache.code_salt.cache_clear()


def _fig11_batch(monkeypatch, cache=None):
    """Run a functional Fig. 11 and return the tasks of its one runner
    batch."""
    from repro.eval import experiments, runner

    batches = []
    simulate = runner.simulate_layer_tasks

    def recording(tasks, **kwargs):
        batches.append(list(tasks))
        return simulate(tasks, **kwargs)

    monkeypatch.setattr(runner, "simulate_layer_tasks", recording)
    experiments.fig11_full_models(functional=True, result_cache=cache)
    (tasks,) = batches
    return tasks


class TestBatchKeys:
    """A runner batch fingerprints through one ``payload_key`` memo
    (each accelerator digested, each layer canonicalized once); the
    memo must never change a key."""

    def test_batch_keys_equal_memo_free_keys(self, cache, monkeypatch):
        tasks = _fig11_batch(monkeypatch, cache)
        expected = {payload_key(t.accel, t.layer, seed=t.seed)
                    for t in tasks}
        assert len(expected) == len(tasks) == 340
        assert {p.stem for p in cache.path.glob("*.json")} == expected

    def test_variants_in_one_batch_get_distinct_keys(self, cache):
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks

        accels = (SmtSA(fifo_depth=2), SmtSA(fifo_depth=4),
                  ZvcgSA(dram_gbps=64.0))
        simulate_layer_tasks([LayerSimTask(a, CONV2_SMALL)
                              for a in accels], result_cache=cache)
        expected = {payload_key(a, CONV2_SMALL) for a in accels}
        assert len(expected) == 3
        assert {p.stem for p in cache.path.glob("*.json")} == expected

    def test_memo_dies_with_the_batch(self, cache):
        """Mutating an accelerator between two batches changes its key:
        no digest is remembered across batches."""
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks

        accel = ZvcgSA()
        task = LayerSimTask(accel, CONV2_SMALL)
        simulate_layer_tasks([task], result_cache=cache)
        before = payload_key(accel, CONV2_SMALL)
        accel.costs = dataclasses.replace(DEFAULT_COSTS,
                                          dram_pj_per_byte=40.0)
        simulate_layer_tasks([task], result_cache=cache)
        after = payload_key(accel, CONV2_SMALL)
        assert after != before
        assert cache.hits == 0 and cache.puts == 2
        assert {p.stem for p in cache.path.glob("*.json")} \
            == {before, after}

    def test_batch_hashes_each_accel_and_layer_once(self, monkeypatch):
        digested, canonicalized = [], []
        digest = resultcache._accelerator_digest
        dumps = resultcache._dumps

        def count_digest(accel):
            digested.append(accel)
            return digest(accel)

        def count_dumps(obj):
            if isinstance(obj, LayerSpec):
                canonicalized.append(obj)
            return dumps(obj)

        monkeypatch.setattr(resultcache, "_accelerator_digest",
                            count_digest)
        monkeypatch.setattr(resultcache, "_dumps", count_dumps)
        tasks = _fig11_batch(monkeypatch)
        accels = {id(t.accel) for t in tasks}
        layers = {id(t.layer) for t in tasks}
        assert (len(accels), len(layers)) == (4, 85)
        assert sorted(map(id, digested)) == sorted(accels)
        assert sorted(map(id, canonicalized)) == sorted(layers)

    def test_memo_keys_on_the_instance_not_its_value(self):
        """Equal layer specs whose fields differ in type (``1`` vs
        ``1.0``) canonicalize differently; sharing one memo must not
        hand either the other's key."""
        as_int = dataclasses.replace(CONV2, weight_density=1)
        as_float = dataclasses.replace(CONV2, weight_density=1.0)
        assert as_int == as_float
        memo = {}
        assert [payload_key(ZvcgSA(), layer, memo=memo)
                for layer in (as_int, as_float)] \
            == [payload_key(ZvcgSA(), layer)
                for layer in (as_int, as_float)]


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
        assert cache.misses == 1 and cache.corrupt == 0

    def test_corrupt_entry_reads_as_miss(self, cache):
        for raw in (b"{truncated", b"\xff\xfe", b"", b"[1, 2]", b"null",
                    b'"text"'):
            cache.put("cafe", 1, EventCounts(cycles=1))
            (cache.path / "cafe.json").write_bytes(raw)
            corrupt = cache.corrupt
            assert cache.get("cafe") is None, raw
            assert cache.corrupt == corrupt + 1
            assert not (cache.path / "cafe.json").exists()
            assert (cache.path / CORRUPT_SUBDIR / "cafe.json").exists()

    def test_wrong_schema_reads_as_miss(self, cache):
        """A parseable entry that is not an integer ``compute_cycles``
        plus integer counters named after ``EventCounts`` fields is
        quarantined and counted like unparseable bytes — never raised,
        never returned as a payload."""
        cache.path.mkdir(parents=True, exist_ok=True)
        for entry in (
                {"compute_cycles": 1, "events": {"no_such_counter": 3}},
                {"compute_cycles": None, "events": {"mac_ops": 1}},
                {"compute_cycles": True, "events": {"mac_ops": 1}},
                {"compute_cycles": 1.5, "events": {"mac_ops": 1}},
                {"compute_cycles": "7", "events": {"mac_ops": 1}},
                {"compute_cycles": 1, "events": {"mac_ops": "abc"}},
                {"compute_cycles": 1, "events": {"mac_ops": 2.0}},
                {"compute_cycles": 1, "events": {"mac_ops": False}},
                {"compute_cycles": 1, "events": {"mac_ops": None}},
                {"compute_cycles": 1, "events": [["mac_ops", 1]]},
                {"compute_cycles": 1, "events": None},
                {"compute_cycles": 1},
                {"events": {"mac_ops": 1}}):
            (cache.path / "odd.json").write_text(json.dumps(entry))
            corrupt = cache.corrupt
            assert cache.get("odd") is None, entry
            assert cache.corrupt == corrupt + 1
            assert not (cache.path / "odd.json").exists()


class TestDefaultCache:
    def test_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_result_cache().path == tmp_path / "x"

    def test_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert default_result_cache() is None
