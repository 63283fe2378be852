"""Command-line interface.

Usage::

    python -m repro list-models
    python -m repro list-accelerators
    python -m repro run mobilenet_v1 --accelerator s2ta-aw --tech 16nm
    python -m repro experiment fig11
    python -m repro dse --out dse_frontier.json

Every command prints plain text; ``experiment`` accepts any artifact id
(fig1, fig3, fig9a..fig9d, fig10, fig11, fig12, tbl1..tbl5, sec7,
ablation-unroll, ablation-bz, ablation-dap) plus
``xval`` (the functional-vs-analytic cross-validation table over the
whole comparison set — systolic family *and* the SparTen / Eyeriss v2 /
SCNN baselines — which exits non-zero when any model breaks its
agreement contract; ``--seed`` picks the operand synthesis),
``roofline`` (per-layer roofline placement from the memory-hierarchy
model) and ``roofline-bw`` (the DRAM-bandwidth sensitivity sweep). The
full-model artifacts (fig11, fig12) take ``--functional`` to run the
honest functional-simulation tier instead of the analytic fast path,
and ``--seed`` for operand synthesis; fig11, fig12 and roofline take
``--dram-bw <GB/s>`` to replace the default DRAM channel and enforce
the roofline wall on every layer; fig11, fig12 and ``run`` take
``--dram-pj-per-byte`` to re-price the reported off-chip component
(die-only totals are pinned and unaffected).

The functional tier runs on the memoized experiment engine
(:mod:`repro.eval.runner`), one layer simulation after another in this
process.
Simulated layer payloads are memoized in a
content-addressed on-disk cache keyed on (layer spec, accelerator
config, energy costs, memory-channel config, seed, code salt), so
re-runs and overlapping artifacts skip straight to finalization;
``--no-result-cache`` disables it for one invocation. The store is a
plain directory of ``<key>.json`` files (``$REPRO_CACHE_DIR``, default
``~/.cache/repro/results``; delete it to reclaim the space, and
``REPRO_RESULT_CACHE=0`` opts out globally). The ``xval`` contract
gate always simulates cold — a cached payload must never be what
re-validates the agreement contract.

``repro dse`` widens the Sec. 7 sweep into an exhaustive design-space
exploration (:mod:`repro.design.dse`): every ``AxBxC_MxN`` x (A-DBB,
SRAM, DRAM bandwidth, tech) point, evaluated in closed form (or, with
``--fidelity functional``, through the same memoized runner), and the
(energy x cycles x area) Pareto frontier over them.

Observability (:mod:`repro.obs`, see docs/observability.md) is wired
through every command and off by default: ``experiment`` and ``dse``
take ``--trace FILE`` (or ``REPRO_TRACE=FILE``) to record a Chrome
trace-event JSON — open it at https://ui.perfetto.dev — with one track
per thread, ``--metrics`` to append the runner/cache counter
table to the output, and ``--metrics-out FILE`` to dump the same
registry as JSON; ``repro trace summarize FILE [--top K]`` attributes
wall-clock to phases offline. ``-v/--verbose`` and ``-q/--quiet``
control the stdlib-logging channels everywhere (diagnostics on
stderr, payload on stdout).
"""

from __future__ import annotations

import argparse
import math
import os
from typing import Callable, Dict, List, Optional

from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

from repro.accel import (
    SCNN,
    S2TAAW,
    S2TAW,
    S2TAWA,
    DenseSA,
    EyerissV2,
    SmtSA,
    SparTen,
    ZvcgSA,
)
from repro.models.zoo import MODEL_SPECS, get_spec

__all__ = ["main", "build_parser"]

ACCELERATORS: Dict[str, Callable] = {
    "sa": DenseSA,
    "sa-zvcg": ZvcgSA,
    "sa-smt": SmtSA,
    "s2ta-w": S2TAW,
    "s2ta-aw": S2TAAW,
    "s2ta-wa": S2TAWA,
    "scnn": SCNN,
    "sparten": SparTen,
    "eyeriss-v2": EyerissV2,
}


#: Artifacts whose runners take the functional-tier keywords
#: (functional=, seed=).
FUNCTIONAL_ARTIFACTS = ("fig11", "fig12")

#: Artifacts whose runners take a DRAM-bandwidth override (dram_gbps=).
DRAM_BW_ARTIFACTS = ("fig11", "fig12", "roofline")

#: Artifacts whose runners price the off-chip component and take a
#: DRAM-energy override (dram_pj_per_byte=).
DRAM_PJ_ARTIFACTS = ("fig11", "fig12")

#: Every artifact id, in ``all`` order, with the :mod:`repro.eval`
#: function that renders it and that function's fixed positional and
#: keyword arguments. Plain names, so building the parser (which lists
#: the ids) imports nothing.
ARTIFACTS = (
    ("fig1", "fig1_energy_breakdown", (), {}),
    ("fig3", "fig3_smt_overhead", (), {}),
    ("fig9a", "fig9_microbench", ("a",), {}),
    ("fig9b", "fig9_microbench", ("b",), {}),
    ("fig9c", "fig9_microbench", ("c",), {}),
    ("fig9d", "fig9_microbench", ("d",), {}),
    ("fig10", "fig10_variant_breakdown", (), {}),
    ("fig11", "fig11_full_models", (), {}),
    ("fig12", "fig12_alexnet_per_layer", (), {}),
    ("xval", "xval_functional_vs_analytic", (), {}),
    ("roofline", "roofline_analysis", (), {}),
    ("roofline-bw", "dram_bw_sensitivity", (), {}),
    ("tbl1", "tbl1_buffer_per_mac", (), {}),
    ("tbl2", "tbl2_s2ta_breakdown", (), {}),
    ("tbl3", "tbl3_accuracy", (), {"quick": True}),
    ("tbl4-16nm", "tbl4_comparison", ("16nm",), {}),
    ("tbl4-65nm", "tbl4_comparison", ("65nm",), {}),
    ("tbl5", "tbl5_summary", (), {}),
    ("sec7", "sec7_design_space", (), {}),
    ("ablation-unroll", "ablation_unroll_axis", (), {}),
    ("ablation-bz", "ablation_block_size", (), {}),
    ("ablation-dap", "ablation_dap_stages", (), {}),
)


def _experiments() -> Dict[str, Callable]:
    """Artifact id -> runner. Each runner looks its function up on
    :mod:`repro.eval` when called, so running one artifact never loads
    the modules of the others (the ablations, the roofline)."""
    import repro.eval

    def artifact(name: str, args: tuple, kwargs: dict) -> Callable:
        return lambda **extra: getattr(repro.eval, name)(*args, **kwargs,
                                                         **extra)

    return {artifact_id: artifact(name, args, kwargs)
            for artifact_id, name, args, kwargs in ARTIFACTS}


def cmd_list_models(_args) -> str:
    lines = ["available model specs:"]
    for name in sorted(MODEL_SPECS):
        spec = get_spec(name)
        lines.append(f"  {name:<14} {spec.dataset:<10} "
                     f"{len(spec.layers):>3} layers  "
                     f"{spec.total_macs / 1e9:6.2f} G MACs  ({spec.notes})")
    return "\n".join(lines)


def cmd_list_accelerators(_args) -> str:
    lines = ["available accelerators:"]
    for key, factory in ACCELERATORS.items():
        accel = factory()
        lines.append(f"  {key:<12} {accel.name:<12} "
                     f"{accel.hardware_macs:>5} MACs  "
                     f"{accel.area_mm2():5.2f} mm^2 ({accel.tech})")
    return "\n".join(lines)


def _costs_from_args(args):
    from repro.eval.experiments import _costs

    pj = getattr(args, "dram_pj_per_byte", None)
    if pj is not None and not (math.isfinite(pj) and pj > 0):
        raise SystemExit("--dram-pj-per-byte must be positive")
    return _costs(pj)


def cmd_run(args) -> str:
    spec = get_spec(args.model)
    factory = ACCELERATORS[args.accelerator]
    try:
        accel = factory(tech=args.tech, costs=_costs_from_args(args))
    except KeyError:
        raise SystemExit(f"unknown tech {args.tech!r}")
    run = accel.run_model(spec, conv_only=args.conv_only)
    lines = [
        f"{spec.name} on {accel.name} ({accel.tech}):",
        f"  cycles     : {run.total_cycles:,}",
        f"  runtime    : {run.runtime_s * 1e3:.3f} ms "
        f"({run.inferences_per_second:,.0f} inf/s)",
        f"  energy     : {run.energy_uj:,.1f} uJ "
        f"({run.inferences_per_joule:,.0f} inf/J)",
        f"  efficiency : {run.effective_tops_per_watt:.2f} TOPS/W effective",
    ]
    if args.per_layer:
        lines.append(f"  {'layer':<16} {'cycles':>12} {'uJ':>9} {'bound':>7}")
        for r in run.layer_results:
            bound = "memory" if r.memory_bound else "compute"
            lines.append(f"  {r.layer.name:<16} {r.cycles:>12,} "
                         f"{r.energy_uj:>9.1f} {bound:>7}")
    return "\n".join(lines)


def cmd_experiment(args) -> str:
    experiments = _experiments()
    functional_requested = args.functional or args.seed is not None
    seed = 0 if args.seed is None else args.seed
    if args.artifact == "all":
        if (functional_requested or args.dram_bw is not None
                or args.dram_pj_per_byte is not None):
            raise SystemExit(
                "--functional/--seed/--dram-bw/--dram-pj-per-byte "
                "apply to a single artifact, not 'all' "
                f"({', '.join(FUNCTIONAL_ARTIFACTS)} "
                "take the functional flags; "
                f"{', '.join(DRAM_BW_ARTIFACTS)} take --dram-bw; "
                f"{', '.join(DRAM_PJ_ARTIFACTS)} take --dram-pj-per-byte; "
                "xval takes --seed)")
        return "\n\n".join(run().render()
                           for name, run in experiments.items())
    try:
        runner = experiments[args.artifact]
    except KeyError:
        raise SystemExit(
            f"unknown artifact {args.artifact!r}; choose from "
            f"{', '.join(sorted(experiments))} or 'all'"
        )
    if args.dram_bw is not None and args.artifact not in DRAM_BW_ARTIFACTS:
        raise SystemExit(
            f"--dram-bw is only supported by "
            f"{', '.join(DRAM_BW_ARTIFACTS)}, not {args.artifact!r}")
    if args.dram_bw is not None and not (math.isfinite(args.dram_bw)
                                         and args.dram_bw > 0):
        raise SystemExit("--dram-bw must be a positive bandwidth in GB/s")
    if args.dram_pj_per_byte is not None \
            and args.artifact not in DRAM_PJ_ARTIFACTS:
        raise SystemExit(
            f"--dram-pj-per-byte is only supported by "
            f"{', '.join(DRAM_PJ_ARTIFACTS)}, not {args.artifact!r}")
    _costs_from_args(args)  # shared --dram-pj-per-byte validation
    result_cache = None if args.no_result_cache else _default_result_cache()
    if args.artifact in FUNCTIONAL_ARTIFACTS:
        if not args.functional and args.seed is not None:
            raise SystemExit(
                "--seed tunes the functional tier; pass "
                "--functional as well")
        return runner(functional=args.functional, seed=seed,
                      dram_gbps=args.dram_bw,
                      dram_pj_per_byte=args.dram_pj_per_byte,
                      result_cache=result_cache).render()
    if args.artifact == "xval":
        if args.functional:
            raise SystemExit("xval always runs both tiers; it takes "
                             "--seed but not --functional")
        # The contract gate always simulates cold: a cached payload
        # (e.g. one whose simulator change fell outside the cache's
        # source salt) would make the gate vacuously re-validate
        # yesterday's results.
        result = runner(seed=seed, result_cache=None)
        if result.failures:
            # Non-zero exit: a model broke its agreement contract.
            raise SystemExit(result.render())
        return result.render()
    if functional_requested:
        raise SystemExit(
            f"--functional/--seed are only supported by "
            f"{', '.join(FUNCTIONAL_ARTIFACTS)} and xval, "
            f"not {args.artifact!r}")
    if args.artifact == "roofline":
        return runner(dram_gbps=args.dram_bw).render()
    return runner().render()


_STYLE_FLAGS = {"tu": True, "dp": False}


def _parse_axis(text: str, cast, flag: str) -> tuple:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(cast(token))
        except (ValueError, KeyError):
            raise SystemExit(
                f"{flag}: cannot parse {token!r}") from None
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return tuple(values)


def _dse_axes(args):
    from repro.design.dse import DSEAxes

    try:
        return DSEAxes(
            styles=_parse_axis(args.styles,
                               lambda t: _STYLE_FLAGS[t], "--styles"),
            weight_nnz=_parse_axis(args.weight_nnz, int, "--weight-nnz"),
            a_nnz=_parse_axis(args.a_nnz, int, "--a-nnz"),
            sram_mb=_parse_axis(args.sram_mb, float, "--sram-mb"),
            dram_gbps=_parse_axis(
                args.dram_bw,
                lambda t: None if t == "def" else float(t), "--dram-bw"),
            techs=_parse_axis(args.tech, str, "--tech"),
        )
    except ValueError as exc:
        raise SystemExit(f"bad DSE axes: {exc}") from None


def cmd_dse(args) -> str:
    """Run the exhaustive design-space exploration."""
    import json as _json
    import pathlib

    from repro.design.dse import render_artifact, run_dse

    if args.seed is not None and args.fidelity != "functional":
        raise SystemExit("--seed tunes the functional tier; pass "
                         "--fidelity functional as well")
    result_cache = None if args.no_result_cache else _default_result_cache()
    try:
        artifact = run_dse(
            _dse_axes(args),
            fidelity=args.fidelity,
            seed=0 if args.seed is None else args.seed,
            result_cache=result_cache,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    lines = []
    if args.out:
        pathlib.Path(args.out).write_text(
            _json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        lines.append(f"wrote artifact ({len(artifact['evaluations'])} "
                     f"evaluations) to {args.out}")
    lines.append(render_artifact(artifact, top=args.top).render())
    return "\n".join(lines)


def _default_result_cache():
    from repro.eval.resultcache import default_result_cache

    return default_result_cache()


def _non_negative_int(text):
    """The argparse type of every ``--seed`` flag (numpy seed sequences
    reject negative entropy) and of ``dse --top`` (a negative count
    would slice rows off the end of the table)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_trace(args) -> str:
    """Analyze a merged Chrome-trace artifact offline."""
    from repro.obs.summarize import render_summary, summarize_trace

    if args.top < 1:
        raise SystemExit("--top must be at least 1")
    try:
        summary = summarize_trace(args.file, top=args.top)
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"cannot summarize {args.file}: {exc}") from None
    return render_summary(summary)


def _add_verbosity_flags(sub_parser) -> None:
    """``-v``/``-q`` on a subcommand (subparsers only — a flag that is
    also on the main parser would have its parsed value clobbered by
    the subparser's default)."""
    sub_parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="verbose diagnostics on stderr (DEBUG level)")
    sub_parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="suppress output below errors (including the result "
             "payload on stdout)")


def _add_obs_flags(sub_parser) -> None:
    """``--trace``/``--metrics`` on the engine-backed subcommands."""
    sub_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON of this run (open in "
             "Perfetto / chrome://tracing; summarize with 'repro trace "
             "summarize FILE'). Default: $"
             + obs_trace.TRACE_ENV)
    sub_parser.add_argument(
        "--metrics", action="store_true",
        help="append the engine metrics summary (runner telemetry: "
             "runner.syntheses = operand groups "
             "synthesized vs runner.simulated tasks, "
             "operands.masks_materialized vs operands.census_only "
             "operands, result-cache hits/misses) to the output")
    sub_parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="dump the engine metrics as JSON next to the artifact")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="S2TA reproduction: models, accelerators, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_models = sub.add_parser("list-models")
    list_models.set_defaults(func=cmd_list_models)
    list_accels = sub.add_parser("list-accelerators")
    list_accels.set_defaults(func=cmd_list_accelerators)

    run = sub.add_parser("run", help="run a model on an accelerator")
    run.add_argument("model", choices=sorted(MODEL_SPECS))
    run.add_argument("--accelerator", default="s2ta-aw",
                     choices=sorted(ACCELERATORS))
    run.add_argument("--tech", default="16nm")
    run.add_argument("--conv-only", action="store_true")
    run.add_argument("--per-layer", action="store_true")
    run.add_argument("--dram-pj-per-byte", type=float, default=None,
                     metavar="PJ",
                     help="off-chip DRAM interface energy per byte "
                          "(prices the reported dram component; die-only "
                          "totals are unaffected)")
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser("experiment", help="reproduce a paper artifact")
    exp.add_argument(
        "artifact", metavar="ARTIFACT",
        help="artifact id, or 'all' for every one in turn: "
             + ", ".join(artifact_id for artifact_id, *_ in ARTIFACTS))
    exp.add_argument("--functional", action="store_true",
                     help="run the functional-simulation tier "
                          "(fig11/fig12: concrete GEMMs on the "
                          "cycle simulator)")
    exp.add_argument("--seed", type=_non_negative_int, default=None,
                     help="operand-synthesis seed for the functional tier")
    exp.add_argument("--dram-bw", type=float, default=None,
                     metavar="GB/s",
                     help="DRAM channel bandwidth override (fig11/fig12/"
                          "roofline); enforces the roofline wall on "
                          "every layer")
    exp.add_argument("--dram-pj-per-byte", type=float, default=None,
                     metavar="PJ",
                     help="off-chip DRAM interface energy per byte "
                          "(fig11/fig12; die-only totals unaffected)")
    exp.add_argument("--no-result-cache", action="store_true",
                     help="skip the on-disk functional-result cache for "
                          "this invocation")
    _add_obs_flags(exp)
    _add_verbosity_flags(exp)
    exp.set_defaults(func=cmd_experiment)

    dse = sub.add_parser(
        "dse",
        help="exhaustive design-space exploration",
        description="Enumerate the full AxBxC_MxN x (A-DBB, SRAM, DRAM "
                    "bandwidth, tech) keyspace, evaluate every point, "
                    "and report the (energy x cycles x area) Pareto "
                    "frontier.")
    dse.add_argument("--styles", default="tu,dp",
                     help="datapath styles to sweep: comma list of "
                          "tu (time-unrolled) / dp (dot-product) "
                          "(default tu,dp)")
    dse.add_argument("--weight-nnz", default="2,4,8", metavar="B,...",
                     help="DBB weight bounds B to sweep (default 2,4,8)")
    dse.add_argument("--a-nnz", default="2,3,4,8", metavar="A,...",
                     help="per-layer activation-DBB bounds to sweep "
                          "(default 2,3,4,8)")
    dse.add_argument("--sram-mb", default="1.25,2.5,5.0", metavar="MB,...",
                     help="on-chip SRAM sizes to sweep "
                          "(default 1.25,2.5,5.0)")
    dse.add_argument("--dram-bw", default="def", metavar="GB/s,...",
                     help="DRAM bandwidths to sweep; 'def' = the default "
                          "channel (default def)")
    dse.add_argument("--tech", default="16nm", metavar="NODE,...",
                     help="technology nodes to sweep (default 16nm)")
    dse.add_argument("--fidelity", default="analytic",
                     choices=("analytic", "functional"),
                     help="evaluation tier: closed-form analytic "
                          "(default; sub-ms per point) or the cycle "
                          "simulator")
    dse.add_argument("--seed", type=_non_negative_int, default=None,
                     help="operand-synthesis seed (requires --fidelity "
                          "functional)")
    dse.add_argument("--out", default=None, metavar="JSON",
                     help="write the artifact (evaluations + frontier) "
                          "as JSON")
    dse.add_argument("--top", type=_non_negative_int, default=12,
                     help="table rows to print (default 12)")
    dse.add_argument("--no-result-cache", action="store_true",
                     help="skip the on-disk result cache for a "
                          "--fidelity functional sweep (analytic points "
                          "are never cached)")
    _add_obs_flags(dse)
    _add_verbosity_flags(dse)
    dse.set_defaults(func=cmd_dse)

    trace = sub.add_parser(
        "trace",
        help="analyze a Chrome-trace artifact from --trace",
        description="Offline attribution for a trace produced by "
                    "--trace (or $REPRO_TRACE) on experiment/dse runs: "
                    "per-track wall-clock coverage, per-phase self-time "
                    "attribution (synthesize / simulate / memory / "
                    "finalize / runner), and the top-k spans.")
    trace.add_argument("action", choices=("summarize",))
    trace.add_argument("file", help="Chrome trace-event JSON artifact")
    trace.add_argument("--top", type=int, default=10, metavar="K",
                       help="span rows to print (default 10)")
    _add_verbosity_flags(trace)
    trace.set_defaults(func=cmd_trace)

    _add_verbosity_flags(run)
    return parser


def main(argv: Optional[List[str]] = None) -> str:
    """Parse, dispatch, emit. Returns the payload string (tests and
    embedding callers consume the return value; stdout emission routes
    through the ``repro.out`` logger so ``-q`` can silence it)."""
    args = build_parser().parse_args(argv)
    verbosity = (getattr(args, "verbose", 0) - getattr(args, "quiet", 0))
    obs_logs.configure_logging(verbosity)
    log = obs_logs.get_logger(__name__)

    # Tracing spans the whole dispatch for the subcommands that opt in
    # (experiment/dse carry --trace; $REPRO_TRACE is the env default).
    trace_out = None
    if hasattr(args, "trace") and args.command != "trace":
        trace_out = args.trace or os.environ.get(obs_trace.TRACE_ENV)
    session = obs_trace.start_tracing(trace_out) if trace_out else None

    try:
        output = args.func(args)
    finally:
        trace_path = obs_trace.stop_tracing() if session else None

    if trace_path is not None:
        output += f"\nwrote trace to {trace_path}"
    if getattr(args, "metrics_out", None):
        obs_metrics.default_registry().dump_json(args.metrics_out)
        log.debug("wrote metrics JSON to %s", args.metrics_out)
    if getattr(args, "metrics", False):
        output += "\n\n" + obs_metrics.default_registry().render()
    obs_logs.output_logger().info("%s", output)
    return output
