"""The deterministic fault-injection registry (:mod:`repro.faults`).

The contracts the chaos suite leans on: strict config parsing (a typo
cannot silently disable a chaos run), decisions that are a pure
function of ``(seed, name, key, occurrence)``, per-key fire budgets so
in-process retries converge, and a disabled path that is a no-op.
"""

import pytest

from repro import faults
from repro.faults import (
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    parse_faults,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.reset()
    yield
    faults.reset()


class TestParse:
    def test_defaults(self):
        seed, specs = parse_faults("claim_fail")
        assert seed == 0
        assert specs == (FaultSpec("claim_fail"),)

    def test_full_syntax(self):
        seed, specs = parse_faults(
            "seed=7,claim_fail:p=0.5:n=2,http_error:n=3")
        assert seed == 7
        assert specs == (FaultSpec("claim_fail", p=0.5, max_fires=2),
                         FaultSpec("http_error", max_fires=3))

    def test_empty_elements_skipped(self):
        assert parse_faults("") == (0, ())
        assert parse_faults(" , ,claim_fail,") == \
            (0, (FaultSpec("claim_fail"),))

    @pytest.mark.parametrize("bad", [
        "no_such_fault",
        "claim_fail:q=1",             # unknown option
        "claim_fail:s=1",             # unknown option (no hang kind)
        "claim_fail:p",               # not k=v
        "claim_fail:p=2",             # p out of range
        "claim_fail:n=0",             # budget must be >= 1
        "claim_fail,claim_fail",      # configured twice
    ])
    def test_strict_rejection(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        rolls = [FaultRegistry._uniform(3, "claim_fail", "k", i)
                 for i in range(32)]
        again = [FaultRegistry._uniform(3, "claim_fail", "k", i)
                 for i in range(32)]
        assert rolls == again
        assert all(0.0 <= r < 1.0 for r in rolls)

    def test_seed_and_key_move_the_decision(self):
        base = FaultRegistry._uniform(0, "claim_fail", "k", 0)
        assert base != FaultRegistry._uniform(1, "claim_fail", "k", 0)
        assert base != FaultRegistry._uniform(0, "claim_fail", "k2", 0)

    def test_two_registries_replay_identically(self):
        def run():
            reg = FaultRegistry(seed=5, specs=parse_faults(
                "claim_fail:p=0.5:n=99")[1])
            out = []
            for i in range(40):
                try:
                    reg.inject("queue_claim", f"key-{i % 4}")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out, reg.counts()

        first, second = run(), run()
        assert first == second
        assert any(first[0]) and not all(first[0])  # p=0.5 actually rolls


class TestBudget:
    def test_one_fire_per_key_by_default(self):
        reg = FaultRegistry(seed=0, specs=parse_faults("claim_fail")[1])
        with pytest.raises(InjectedFault):
            reg.inject("queue_claim", "k")
        reg.inject("queue_claim", "k")  # budget spent
        with pytest.raises(InjectedFault):
            reg.inject("queue_claim", "other")  # fresh key
        assert reg.counts() == {"claim_fail": 2}

    def test_budget_counts_fires_not_occurrences(self):
        # With p=0.5 a missed roll must not consume the fire budget:
        # over many occurrences the key fires exactly n times.
        reg = FaultRegistry(seed=1, specs=parse_faults(
            "claim_fail:p=0.5:n=3")[1])
        fired = 0
        for _ in range(200):
            try:
                reg.inject("queue_claim", "k")
            except InjectedFault:
                fired += 1
        assert fired == 3


class TestGating:
    def test_disabled_is_a_noop(self):
        assert faults.active() is None
        faults.inject("queue_claim", "k")           # nothing raises
        assert faults.mangle("cache_write", "k", b"data") == b"data"

    def test_configure_empty_uninstalls(self):
        faults.configure("claim_fail")
        assert faults.active() is not None
        faults.configure("")
        assert faults.active() is None

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "http_error:p=0.25")
        reg = faults.configure_from_env()
        assert reg is faults.active()
        assert reg.specs[0] == FaultSpec("http_error", p=0.25)
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.configure_from_env() is None

    def test_mangle_garbles_but_keeps_length(self):
        faults.configure("cache_corrupt")
        blob = b'{"compute_cycles": 12345, "events": {}}'
        out = faults.mangle("cache_write", "k", blob)
        assert out != blob and len(out) == len(blob)
        assert out.startswith(b"\x00CORRUPT\x00")
        # budget spent: the next write of the same key is clean
        assert faults.mangle("cache_write", "k", blob) == blob
