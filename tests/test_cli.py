"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import ARTIFACTS, build_parser, main
from repro.eval.resultcache import ResultCache


class TestListCommands:
    def test_list_models(self, capsys):
        out = main(["list-models"])
        assert "mobilenet_v1" in out
        assert "G MACs" in out

    def test_list_accelerators(self):
        out = main(["list-accelerators"])
        assert "S2TA-AW" in out
        assert "SparTen" in out


class TestRun:
    def test_run_default(self):
        out = main(["run", "lenet5"])
        assert "lenet5 on S2TA-AW" in out
        assert "TOPS/W" in out

    def test_run_with_options(self):
        out = main(["run", "alexnet", "--accelerator", "sa-zvcg",
                    "--tech", "65nm", "--conv-only", "--per-layer"])
        assert "SA-ZVCG" in out
        assert "conv5" in out

    def test_run_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "squeezenet"])

    def test_run_unknown_tech_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "lenet5", "--tech", "3nm"])


class TestExperiment:
    def test_fig1(self):
        out = main(["experiment", "fig1"])
        assert "Figure 1" in out

    def test_ablation(self):
        out = main(["experiment", "ablation-bz"])
        assert "block size" in out

    def test_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_unknown_artifact_lists_every_id(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "fig99"])
        message = str(exc.value)
        assert message.startswith("unknown artifact 'fig99'; choose from ")
        for artifact_id, *_ in ARTIFACTS:
            assert artifact_id in message

    def test_help_lists_every_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "--help"])
        assert exc.value.code == 0
        # argparse wraps the help text; compare it unwrapped.
        text = " ".join(capsys.readouterr().out.split())
        ids = ", ".join(artifact_id for artifact_id, *_ in ARTIFACTS)
        assert f"'all' for every one in turn: {ids}" in text

    def test_every_runner_is_in_eval(self):
        import repro.eval
        for _, name, *_ in ARTIFACTS:
            assert callable(getattr(repro.eval, name, None)), name

    def test_parser_does_not_import_eval(self):
        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); print('repro.eval' in sys.modules)")
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.functional
    def test_fig12_functional(self):
        out = main(["experiment", "fig12", "--functional"])
        assert "functional simulation" in out
        assert "functional tier for every row" in out

    def test_functional_flag_rejected_for_non_full_model_artifacts(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig1", "--functional"])
        with pytest.raises(SystemExit):
            main(["experiment", "all", "--seed", "1"])

    def test_seed_requires_functional(self):
        with pytest.raises(SystemExit, match="^--seed tunes the functional "
                                             "tier; pass --functional"):
            main(["experiment", "fig11", "--seed", "5"])

    @pytest.mark.functional
    def test_xval_artifact(self):
        out = main(["experiment", "xval", "--seed", "1"])
        assert "Analytic vs functional" in out
        assert "worst |delta|" in out
        assert "DRAM exact" in out

    @pytest.mark.functional
    def test_xval_lists_all_seven_models(self):
        """The regression gate: every model of the paper's comparison
        runs both tiers, and a clean run exits zero."""
        out = main(["experiment", "xval"])
        for name in ("SA-ZVCG", "SMT-T2Q2", "S2TA-W", "S2TA-AW",
                     "SparTen", "Eyeriss-v2", "SCNN"):
            assert name in out, name
        assert "FAIL" not in out

    @pytest.mark.functional
    def test_xval_exits_nonzero_on_contract_violation(self, monkeypatch):
        """An impossible tolerance must flip the exit code — the CI
        hook that keeps the agreement contract enforced."""
        from repro.eval import experiments

        monkeypatch.setitem(
            experiments.XVAL_CONTRACT, "SparTen",
            experiments.XvalContract(fired=0.0, energy=0.0))
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "xval"])
        assert "SparTen" in str(excinfo.value)
        assert "exceeds" in str(excinfo.value)

    def test_xval_rejects_functional_flag(self):
        with pytest.raises(SystemExit):
            main(["experiment", "xval", "--functional"])

    def test_dram_pj_per_byte_on_run(self):
        out = main(["run", "alexnet", "--accelerator", "sparten",
                    "--conv-only", "--dram-pj-per-byte", "40"])
        assert "SparTen" in out

    def test_dram_pj_per_byte_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig1", "--dram-pj-per-byte", "40"])
        with pytest.raises(SystemExit):
            main(["experiment", "fig12", "--dram-pj-per-byte", "-1"])
        with pytest.raises(SystemExit):
            main(["run", "lenet5", "--dram-pj-per-byte", "0"])

    def test_roofline_artifact(self):
        out = main(["experiment", "roofline"])
        assert "Roofline" in out
        assert "memory" in out  # FC layers sit under the memory roof

    def test_roofline_with_dram_bw(self):
        out = main(["experiment", "roofline", "--dram-bw", "4"])
        assert "4 GB/s" in out

    def test_roofline_bw_sweep_artifact(self):
        out = main(["experiment", "roofline-bw"])
        assert "DRAM GB/s" in out
        assert "mem%" in out

    def test_fig11_with_dram_bw(self):
        out = main(["experiment", "fig11", "--dram-bw", "8"])
        assert "DRAM channel 8 GB/s" in out

    def test_dram_bw_rejected_for_other_artifacts(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig1", "--dram-bw", "8"])
        with pytest.raises(SystemExit):
            main(["experiment", "fig11", "--dram-bw", "-3"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("artifact", ["fig11", "roofline"])
    def test_non_finite_dram_bw_exits_with_a_message(self, artifact, value):
        """NaN slipped past a ``<= 0`` check into an int conversion
        (a traceback), and inf priced an infinite channel."""
        with pytest.raises(SystemExit,
                           match="^--dram-bw must be a positive bandwidth"):
            main(["experiment", artifact, f"--dram-bw={value}"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["experiment", "fig11"],
                                      ["run", "lenet5"]])
    def test_non_finite_dram_pj_per_byte_exits_with_a_message(self, argv,
                                                              value):
        with pytest.raises(SystemExit,
                           match="^--dram-pj-per-byte must be positive"):
            main(argv + [f"--dram-pj-per-byte={value}"])


class TestSweep:
    def test_sweep_verb_is_gone(self, capsys):
        """``repro experiment sec7`` is the one Sec. 7 entry point."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_sweep(self):
        """The Sec. 7 sweep lists its points and marks the pick."""
        out = main(["experiment", "sec7"])
        assert "Section 7" in out
        assert "8x4x4" in out
        selected = [line for line in out.splitlines()
                    if "<-- selected" in line]
        assert len(selected) == 1
        assert selected[0].startswith("8x4x4_4x16 ")


class TestVerbFlags:
    @pytest.mark.parametrize("argv", [
        ["experiment", "fig11"],
        ["dse"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        assert build_parser().parse_args(argv + ["--seed", "3"]).seed == 3
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "xval"],
        ["dse"],
    ], ids=lambda argv: argv[0])
    def test_jobs_flag_is_gone(self, argv, capsys):
        """The functional runner is serial: no verb takes ``--jobs``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "fig11", "--functional"],
        ["dse", "--fidelity", "functional"],
    ], ids=lambda argv: argv[0])
    def test_quick_flag_is_gone(self, argv, capsys):
        """Every functional run is full size: no verb takes ``--quick``."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err


def _cache_entries(path):
    """Records in the result-cache log of ``path``."""
    log = ResultCache(path).log_path
    if not log.exists():
        return 0
    return sum(1 for line in log.read_bytes().split(b"\n") if line)


class TestCacheCommand:
    """How the CLI verbs use the default on-disk result cache (one
    append-only log per source salt; there is no verb to manage it)."""

    @pytest.mark.parametrize("argv", [
        ["cache", "stats"],
        ["warm", "--models", "lenet5", "--accelerators", "sa"],
    ], ids=lambda argv: argv[0])
    def test_management_verbs_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    @pytest.mark.functional
    def test_functional_run_populates_the_store(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        main(["experiment", "fig12", "--functional"])
        assert _cache_entries(tmp_path / "rc") == 25

    @pytest.mark.functional
    def test_no_result_cache_skips_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        main(["experiment", "fig12", "--functional", "--no-result-cache"])
        assert not (tmp_path / "rc").exists()

    @pytest.mark.functional
    def test_xval_gate_always_runs_cold(self, tmp_path, monkeypatch):
        """The contract gate must re-simulate even when the default
        result cache holds entries for its layers."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        main(["experiment", "xval"])
        assert _cache_entries(tmp_path / "rc") == 0


class TestDSECommand:
    AXES = ["--styles", "tu", "--weight-nnz", "4", "--a-nnz", "2,4,8",
            "--sram-mb", "2.5"]

    def test_dse_runs_and_renders(self):
        out = main(["dse"] + self.AXES + ["--top", "5"])
        assert "8x4x4_8x8" in out
        assert "Pareto frontier" in out

    def test_out_writes_the_artifact(self, tmp_path):
        import json
        path = tmp_path / "dse.json"
        out = main(["dse"] + self.AXES + ["--out", str(path)])
        artifact = json.loads(path.read_text())
        assert f"wrote artifact (114 evaluations) to {path}" in out
        assert artifact["frontier"] == ["8x4x4_8x8.tu.a2.s2.5.bwdef.16nm"]

    def test_bad_axis_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["dse", "--a-nnz", "9"])
        with pytest.raises(SystemExit):
            main(["dse", "--styles", "systolic"])
        with pytest.raises(SystemExit):
            main(["dse", "--sram-mb", ""])

    @pytest.mark.parametrize("flags", [
        ["--tech", "7nm"], ["--sram-mb", "inf"], ["--sram-mb", "nan"],
        ["--dram-bw", "inf"],
    ])
    def test_bad_axis_values_exit_with_a_message(self, flags):
        """No traceback: an unknown node or a non-finite size exits
        through the CLI's ``bad DSE axes`` message."""
        with pytest.raises(SystemExit, match="^bad DSE axes: "):
            main(["dse"] + flags)

    def test_negative_top_is_a_usage_error(self, capsys):
        """``--top -3`` used to print every row but the last three."""
        assert build_parser().parse_args(["dse", "--top", "0"]).top == 0
        with pytest.raises(SystemExit) as exc:
            main(["dse"] + self.AXES + ["--top", "-3"])
        assert exc.value.code == 2
        assert "--top: must be >= 0" in capsys.readouterr().err

    def test_axis_values_spelled_alike_exit_with_a_message(self):
        """Two sizes that print alike in a uid used to exit with a bare
        uid-collision error."""
        with pytest.raises(SystemExit,
                           match="^bad DSE axes: .*2.5.*2.5000001"):
            main(["dse", "--sram-mb", "2.5,2.5000001"])

    def test_seed_requires_functional_fidelity(self):
        """An analytic sweep draws no operands, so a seed would be
        recorded in the artifact without being used."""
        with pytest.raises(SystemExit, match="^--seed tunes the functional "
                                             "tier; pass --fidelity "
                                             "functional"):
            main(["dse"] + self.AXES + ["--seed", "5"])


class TestObservability:
    """PR-8 flags: --trace/--metrics/-v/-q and the trace subcommand."""

    def test_trace_flag_writes_valid_chrome_trace(self, tmp_path):
        import json
        trace = tmp_path / "fig1.json"
        out = main(["experiment", "fig1", "--trace", str(trace)])
        assert f"wrote trace to {trace}" in out
        payload = json.loads(trace.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        assert any(e["ph"] == "B" for e in payload["traceEvents"])

    def test_trace_env_var_equivalent(self, tmp_path, monkeypatch):
        trace = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        out = main(["experiment", "fig1"])
        assert f"wrote trace to {trace}" in out
        assert trace.exists()

    @pytest.mark.functional
    def test_trace_summarize_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        trace = tmp_path / "fig12.json"
        main(["experiment", "fig12", "--functional",
              "--no-result-cache", "--trace", str(trace)])
        out = main(["trace", "summarize", str(trace), "--top", "5"])
        assert "coverage" in out
        assert "unmatched" in out
        assert "synthesize" in out or "simulate" in out
        # SparTen and Eyeriss v2 read positions: Fig. 12 materializes.
        assert "materialize" in out
        # Analytic Fig. 11 spends its time in the SA-SMT Monte Carlo,
        # which the per-phase table names as its own stage; so does the
        # functional one, whose runner prefetches every density point
        # in one batch: one span per SA-SMT instance, in the parent.
        # The functional one draws each operand census (`synthesize`)
        # and no engine of it counts or materializes a mask.
        for flags in ([], ["--functional", "--no-result-cache"]):
            trace = tmp_path / "fig11.json"
            main(["experiment", "fig11", *flags, "--trace", str(trace)])
            out = main(["trace", "summarize", str(trace)])
            phases = {line.split()[0] for line in out.split(
                "per-phase self time")[1].split("top spans")[0]
                .strip().splitlines()}
            assert "smt" in phases
            assert ("synthesize" in phases) == bool(flags)
            assert not phases & {"count", "materialize"}
            events = json.loads(trace.read_text())["traceEvents"]
            smt = [e for e in events
                   if e.get("cat") == "smt" and e["ph"] == "B"]
            assert [(e["name"], e["pid"]) for e in smt] \
                == [("SA-SMT-T2Q2", os.getpid())]
            # The functional pass is one runner batch: one `lookup`
            # span (fingerprints + cache reads), on the parent track.
            lookups = [e for e in events if e.get("cat") == "runner"
                       and e["name"] == "lookup"]
            if flags:
                begin, end = lookups
                assert begin["pid"] == end["pid"] == os.getpid()
                assert begin["args"] == {"tasks": 340}
                assert end["args"] == {"hits": 0}
            else:
                assert lookups == []

    def test_trace_summarize_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(tmp_path / "nope.json")])

    def test_trace_summarize_rejects_bad_top(self, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text('{"traceEvents": []}')
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(trace), "--top", "0"])

    def test_metrics_flag_appends_table(self):
        from repro.obs.metrics import reset_default_registry
        reset_default_registry()
        out = main(["experiment", "fig1", "--metrics"])
        assert "metrics" in out

    def test_metrics_out_writes_json(self, tmp_path):
        import json
        path = tmp_path / "metrics.json"
        main(["experiment", "fig1", "--metrics-out", str(path)])
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.obs.metrics/v1"

    def test_quiet_suppresses_stdout_keeps_return(self, capsys):
        out = main(["experiment", "fig1", "-q"])
        assert "Figure 1" in out      # payload still returned...
        assert capsys.readouterr().out == ""  # ...but not printed

    def test_default_verbosity_prints_payload(self, capsys):
        out = main(["experiment", "fig1"])
        assert out in capsys.readouterr().out


class TestMakefileRecipes:
    def test_every_repro_verb_is_a_subcommand(self):
        """Every ``python -m repro <verb>`` a Makefile recipe runs must
        be a subcommand of the parser, so deleting a verb cannot leave
        a make target dangling."""
        import argparse
        import pathlib
        import re

        makefile = pathlib.Path(__file__).resolve().parents[1] / "Makefile"
        recipes = [line for line in makefile.read_text().splitlines()
                   if line.startswith("\t")]
        verbs = {match for line in recipes
                 for match in re.findall(r"-m repro\s+([\w-]+)", line)}
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert verbs, "no `-m repro <verb>` recipe found in the Makefile"
        assert verbs <= set(subparsers.choices), \
            sorted(verbs - set(subparsers.choices))
