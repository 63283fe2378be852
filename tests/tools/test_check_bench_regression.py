"""Tests for the BENCH_*.json throughput-regression checker."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    pathlib.Path(__file__).resolve().parents[2]
    / "tools" / "check_bench_regression.py",
)
cbr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cbr)


def _bench_file(path, datetime, entries, host=None):
    """Write one pytest-benchmark JSON with (name, mean, extra) entries;
    ``host=(cpu count, cpu brand, python version)`` adds the
    ``machine_info`` pytest-benchmark records."""
    payload = {
        "datetime": datetime,
        "benchmarks": [
            {"fullname": name, "stats": {"mean": mean},
             "extra_info": extra or {}}
            for name, mean, extra in entries
        ],
    }
    if host is not None:
        count, brand, python = host
        payload["machine_info"] = {
            "python_version": python,
            "cpu": {"count": count, "brand_raw": brand}}
    path.write_text(json.dumps(payload))
    return path


SMALL_HOST = (2, "Intel(R) Xeon(R) Processor", "3.11.7")
BIG_HOST = (64, "AMD EPYC 7763 64-Core Processor", "3.11.7")


def _rate(throughput, unit, **extra):
    """A benchmark's ``extra_info`` with its recorded throughput."""
    return dict(extra, throughput=throughput, unit=unit)


class TestThroughputOf:
    def test_prefers_macs_per_s(self):
        """A recorded throughput (the kernel benchmarks' MACs/s) wins
        over the pytest-benchmark call rate."""
        record = {"stats": {"mean": 0.5},
                  "extra_info": _rate(1e9, "macs/s")}
        assert cbr.throughput_of(record) == (1e9, "macs/s")

    def test_falls_back_to_call_rate(self):
        assert cbr.throughput_of({"stats": {"mean": 0.25}}) \
            == (4.0, "runs/s")

    def test_wallclock_beats_call_rate(self):
        """The experiment-wallclock benchmarks gate on their recorded
        end-to-end seconds, inverted to higher-is-better, not on the
        pytest-benchmark mean."""
        record = {"stats": {"mean": 0.5},
                  "extra_info": _rate(0.5, "runs/s (wall-clock)",
                                      wallclock_s=2.0, workers=4)}
        assert cbr.throughput_of(record) == (0.5, "runs/s (wall-clock)")

    def test_macs_per_s_beats_wallclock(self):
        record = {"stats": {"mean": 0.5},
                  "extra_info": _rate(1e9, "macs/s", wallclock_s=2.0)}
        assert cbr.throughput_of(record) == (1e9, "macs/s")

    def test_one_convention_ignores_other_keys(self):
        """Only ``throughput`` + ``unit`` are read: the per-benchmark
        rate keys of older BENCH files fall back to the call rate (a
        one-time METRIC-CHANGED against those files), and so does a
        throughput without a unit."""
        legacy = {"stats": {"mean": 0.5},
                  "extra_info": {"macs_per_s": 1e9, "configs_per_s": 1500.0,
                                 "spans_per_s": 1e6, "jobs_per_s": 40.0,
                                 "guards_per_s": 1e7, "wallclock_s": 4.0}}
        assert cbr.throughput_of(legacy) == (2.0, "runs/s")
        unitless = {"stats": {"mean": 0.5}, "extra_info": {"throughput": 9.0}}
        assert cbr.throughput_of(unitless) == (2.0, "runs/s")

    def test_jobs_per_s_regression_fails_gate(self, tmp_path):
        _bench_file(tmp_path / "BENCH_1.json", "2026-01-01T00:00:00",
                    [("t::serve", 1.0, _rate(50.0, "jobs/s"))])
        _bench_file(tmp_path / "BENCH_2.json", "2026-01-02T00:00:00",
                    [("t::serve", 1.0, _rate(40.0, "jobs/s"))])
        assert cbr.main(["--dir", str(tmp_path)]) == 1
        _bench_file(tmp_path / "BENCH_3.json", "2026-01-03T00:00:00",
                    [("t::serve", 1.0, _rate(39.5, "jobs/s"))])
        assert cbr.main(["--dir", str(tmp_path)]) == 0

    def test_configs_per_s_regression_fails_gate(self, tmp_path):
        _bench_file(tmp_path / "BENCH_1.json", "2026-01-01T00:00:00",
                    [("t::dse", 1.0, _rate(1000.0, "configs/s"))])
        _bench_file(tmp_path / "BENCH_2.json", "2026-01-02T00:00:00",
                    [("t::dse", 1.0, _rate(800.0, "configs/s"))])
        assert cbr.main(["--dir", str(tmp_path)]) == 1
        _bench_file(tmp_path / "BENCH_3.json", "2026-01-03T00:00:00",
                    [("t::dse", 1.0, _rate(790.0, "configs/s"))])
        assert cbr.main(["--dir", str(tmp_path)]) == 0

    def test_wallclock_regression_fails_gate(self, tmp_path, capsys):
        def bench_file(path, stamp, wallclock):
            _bench_file(path, stamp, [(
                "bench::fig12_wallclock", wallclock,
                _rate(1.0 / wallclock, "runs/s (wall-clock)",
                      wallclock_s=wallclock))])

        bench_file(tmp_path / "BENCH_1.json", "2026-07-29T00:00:00", 10.0)
        bench_file(tmp_path / "BENCH_2.json", "2026-07-30T00:00:00", 15.0)
        assert cbr.main(["--dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unusable_record_skipped(self):
        assert cbr.throughput_of({"stats": {"mean": 0}}) is None


class TestMain:
    def test_passes_when_throughput_holds(self, tmp_path, capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None), ("t::b", 1.0, _rate(100.0, "macs/s")),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::a", 0.95, None), ("t::b", 1.0, _rate(99.0, "macs/s")),
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_fails_on_regression_beyond_threshold(self, tmp_path, capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::a", 1.5, None),  # 1.0 -> 0.667 runs/s: -33%
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "t::a" in out

    def test_threshold_is_configurable(self, tmp_path):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::a", 1.08, None),  # ~ -7.4%
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        assert cbr.main(["--dir", str(tmp_path),
                         "--threshold", "0.05"]) == 1

    def test_candidate_gated_against_newest_baseline(self, tmp_path):
        """make-bench flow: the un-promoted candidate compares against
        the newest promoted baseline and fails before promotion."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        good = _bench_file(tmp_path / "cand.json.tmp", "2026-07-02",
                           [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(good)]) == 0
        bad = _bench_file(tmp_path / "cand2.json.tmp", "2026-07-03",
                          [("t::a", 2.0, None)])  # -50%
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(bad)]) == 1

    def test_first_candidate_accepted_without_baseline(self, tmp_path,
                                                       capsys):
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-01",
                           [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 0
        assert "accepting" in capsys.readouterr().out

    def test_empty_first_candidate_not_promoted(self, tmp_path, capsys):
        """An empty first baseline would wedge every later run on the
        compared-nothing check — refuse it up front."""
        cand = tmp_path / "cand.json.tmp"
        cand.write_text(json.dumps({"datetime": "2026-07-01",
                                    "benchmarks": []}))
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 2
        assert "no usable benchmark records" in capsys.readouterr().out

    def test_candidate_not_accepted_when_all_baselines_corrupt(
            self, tmp_path, capsys):
        """If baselines exist but none is readable, an unchecked
        candidate must not be promoted (it could itself be regressed)."""
        (tmp_path / "BENCH_1.json").write_text("junk")
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-02",
                           [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 2
        assert "no readable promoted baseline" in capsys.readouterr().out

    def test_candidate_mode_warns_on_corrupt_promoted_file(self, tmp_path,
                                                           capsys):
        """A corrupt *promoted* baseline must not wedge candidate-mode
        gating forever: the candidate compares against the newest
        readable baseline and the damaged file is only warned about."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        (tmp_path / "BENCH_2.json").write_text("junk")  # newest, corrupt
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-03",
                           [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert "warning: ignoring unreadable" in out
        assert "no throughput regressions" in out

    def test_unreadable_candidate_fails(self, tmp_path, capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        bad = tmp_path / "cand.json.tmp"
        bad.write_text("junk")
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(bad)]) == 2
        assert "unreadable candidate" in capsys.readouterr().out

    def test_missing_datetime_ranks_by_mtime(self, tmp_path):
        """A file without the datetime key (schema drift) must rank as
        the newest run when its mtime says so — not silently sort
        oldest and drop out of the comparison."""
        import os
        import time

        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 1.0, None)])
        undated = tmp_path / "BENCH_3.json"
        undated.write_text(json.dumps({"benchmarks": [
            {"fullname": "t::a", "stats": {"mean": 2.0},  # -50%
             "extra_info": {}}]}))
        os.utime(undated, (time.time() + 10, time.time() + 10))
        assert cbr.main(["--dir", str(tmp_path)]) == 1  # regression seen

    def test_null_datetime_does_not_crash_the_sort(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text(json.dumps(
            {"datetime": None,
             "benchmarks": [{"fullname": "t::a", "stats": {"mean": 1.0},
                             "extra_info": {}}]}))
        assert cbr.main(["--dir", str(tmp_path)]) == 0  # single file noop

    def test_compares_newest_two_by_datetime(self, tmp_path):
        """An old regression between files 1 and 2 is irrelevant once
        file 3 recovers — only the newest pair counts."""
        _bench_file(tmp_path / "BENCH_a.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        _bench_file(tmp_path / "BENCH_b.json", "2026-07-02",
                    [("t::a", 2.0, None)])
        _bench_file(tmp_path / "BENCH_c.json", "2026-07-03",
                    [("t::a", 1.9, None)])
        assert cbr.main(["--dir", str(tmp_path)]) == 0

    def test_added_and_removed_benchmarks_never_fail(self, tmp_path,
                                                     capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::gone", 1.0, None), ("t::kept", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::kept", 1.0, None), ("t::fresh", 9.0, None),
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "NEW" in out and "REMOVED" in out

    def test_metric_change_is_a_fresh_baseline(self, tmp_path, capsys):
        """A benchmark that gains (or loses) a recorded throughput
        between runs is incomparable across units and must neither pass
        silently with a bogus delta nor fail as a fake regression."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None),
            ("t::b", 1.0, _rate(1e9, "macs/s")),
            ("t::stable", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::a", 1.0, _rate(1e9, "macs/s")),  # gained the metric
            ("t::b", 1.0, None),                 # lost the metric
            ("t::stable", 1.0, None),
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("METRIC-CHANGED") == 2
        assert "REGRESSION" not in out

    def test_all_metrics_changed_means_nothing_compared(self, tmp_path,
                                                        capsys):
        """If every benchmark changed units, the gate compared nothing
        and must say so instead of passing."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [
            ("t::a", 1.0, _rate(1e9, "macs/s")),
        ])
        assert cbr.main(["--dir", str(tmp_path)]) == 2
        assert "compared nothing" in capsys.readouterr().out

    def test_empty_comparable_set_fails_the_gate(self, tmp_path, capsys):
        """Two artifacts but nothing comparable (filtered/empty newest
        run): the gate must not go green while checking nothing."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01", [
            ("t::a", 1.0, None), ("t::b", 1.0, None),
        ])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02", [])
        assert cbr.main(["--dir", str(tmp_path)]) == 2
        assert "compared nothing" in capsys.readouterr().out

    def test_stale_corrupt_beside_single_file_is_a_noop(self, tmp_path,
                                                        capsys):
        """One healthy file + a months-old corrupt one: nothing to
        compare, and the stale artifact must not redden the gate."""
        import os

        bad = tmp_path / "BENCH_0.json"
        bad.write_text("junk")
        os.utime(bad, (1, 1))
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "warning: ignoring stale unreadable" in out
        assert "nothing to check" in out

    def test_corrupt_beside_single_older_file_fails(self, tmp_path):
        """One healthy file + a *newer* corrupt one: the corrupt file
        was presumably the latest run, so the gate must go red."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        (tmp_path / "BENCH_2.json").write_text("junk")
        assert cbr.main(["--dir", str(tmp_path)]) == 2

    def test_single_file_is_a_noop(self, tmp_path, capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        assert "nothing to check" in capsys.readouterr().out

    def test_corrupt_newest_file_fails_the_gate(self, tmp_path, capsys):
        """A truncated newest artifact must fail loudly, not sort itself
        out of the comparison and let stale files pass the check."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 1.0, None)])
        (tmp_path / "BENCH_3.json").write_text('{"datetime": "2026-07-0')
        assert cbr.main(["--dir", str(tmp_path)]) == 2
        assert "BENCH_3.json" in capsys.readouterr().out

    def test_stale_corrupt_file_only_warns(self, tmp_path, capsys):
        """A months-old damaged artifact must not block the gate forever
        when the newest pair is intact and comparable."""
        import os

        bad = tmp_path / "BENCH_0.json"
        bad.write_text('{"datetime": "2026-01-0')
        os.utime(bad, (1, 1))  # far older than the healthy pair
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)])
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 1.0, None)])
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "warning: ignoring stale unreadable" in out
        assert "no throughput regressions" in out

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cbr.main(["--dir", str(tmp_path), "--threshold", "2.0"])


class TestHostMatching:
    """Runs are only comparable on the same host: CPU count, CPU brand
    and Python version from pytest-benchmark's ``machine_info``."""

    def test_fingerprint_reads_machine_info(self, tmp_path):
        path = _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                           [("t::a", 1.0, None)], host=SMALL_HOST)
        payload = json.loads(path.read_text())
        assert cbr.host_fingerprint(payload) == SMALL_HOST
        assert cbr.host_fingerprint({}) == (None, None, None)

    def test_foreign_host_regression_does_not_fail(self, tmp_path,
                                                   capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)], host=BIG_HOST)
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 5.0, None)], host=SMALL_HOST)  # -80%
        assert cbr.main(["--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out and "nothing to check" in out

    def test_foreign_host_candidate_becomes_first_baseline(self, tmp_path,
                                                           capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)], host=BIG_HOST)
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-02",
                           [("t::a", 5.0, None)], host=SMALL_HOST)
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out
        assert "first one" in out and "2 x Intel(R) Xeon(R)" in out

    def test_empty_foreign_host_candidate_not_promoted(self, tmp_path,
                                                       capsys):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)], host=BIG_HOST)
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-02", [],
                           host=SMALL_HOST)
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 2
        assert "no usable benchmark records" in capsys.readouterr().out

    def test_same_host_regression_behind_newer_foreign_file_fails(
            self, tmp_path, capsys):
        """A newer file from another host must not hide a regression
        against the same host's own baseline."""
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)], host=SMALL_HOST)
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 2.0, None)], host=BIG_HOST)
        cand = _bench_file(tmp_path / "cand.json.tmp", "2026-07-03",
                           [("t::a", 2.0, None)], host=SMALL_HOST)
        assert cbr.main(["--dir", str(tmp_path),
                         "--candidate", str(cand)]) == 1
        out = capsys.readouterr().out
        assert "comparing BENCH_1.json (old)" in out
        assert "REGRESSION" in out

    def test_newest_promoted_compared_with_same_host_file(self, tmp_path):
        _bench_file(tmp_path / "BENCH_1.json", "2026-07-01",
                    [("t::a", 1.0, None)], host=SMALL_HOST)
        _bench_file(tmp_path / "BENCH_2.json", "2026-07-02",
                    [("t::a", 2.0, None)], host=BIG_HOST)
        _bench_file(tmp_path / "BENCH_3.json", "2026-07-03",
                    [("t::a", 2.0, None)], host=SMALL_HOST)  # -50%
        assert cbr.main(["--dir", str(tmp_path)]) == 1
