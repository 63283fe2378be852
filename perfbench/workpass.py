"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` launches every pass as its own process, so each pass pays
what a user pays per ``repro experiment ...`` / ``repro dse``
invocation and starts with empty in-process memos; the on-disk result
cache in ``--cache-dir`` is the only state a pass can inherit. By hand:

    PYTHONPATH=src python3 perfbench/workpass.py --workload analytic-dse \\
        --seed 0 --cache-dir .perfbench/c --out .perfbench/pass.json

The pass writes one JSON object to ``--out``: its wall time (first
artifact call to last), the monotonic time of the first artifact call
(``run.py`` subtracts its spawn time to get ``setup_s``), peak RSS,
digests of every simulated per-layer payload and of the artifact rows,
the output-check errors, and with ``--trace-out`` the per-module
metrics of ``probes.analyze``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import time

#: Analytic Fig. 11 rows (model, SMT / S2TA-W / S2TA-AW energy x and
#: speedup vs SA-ZVCG). The S2TA-AW columns are the golden pins of
#: tests/test_golden_headlines.py; the rest are the same run's values.
ANALYTIC_FIG11 = [
    ["resnet50", 0.83, 1.8, 1.49, 2.01, 2.19, 2.28],
    ["vgg16", 0.87, 1.86, 1.45, 2.01, 2.29, 2.58],
    ["mobilenet_v1", 0.74, 1.66, 1.53, 2.07, 1.84, 1.62],
    ["alexnet", 0.65, 1.56, 1.5, 1.9, 2.03, 2.09],
    ["average", "-", "-", "-", "-", 2.09, 2.14],
]

#: Fig. 11 ratio columns, by the variant whose contract bounds them.
FIG11_COLUMNS = ("SMT-T2Q2", "SMT-T2Q2", "S2TA-W", "S2TA-W",
                 "S2TA-AW", "S2TA-AW")

#: The (energy, cycles, area) Pareto frontier of the full DSE keyspace.
DSE_FRONTIER = [
    "4x2x8_8x8.tu.a2.s1.25.bwdef.16nm",
    "8x2x4_4x16.tu.a2.s1.25.bwdef.16nm",
    "8x2x4_8x8.tu.a2.s1.25.bwdef.16nm",
    "4x2x8_4x8.dp.a2.s1.25.bwdef.16nm",
]
DSE_POINTS = 2712

#: The paper's S2TA-AW Fig. 11 averages vs SA-ZVCG (energy, speedup).
PAPER_AW_AVERAGE = (2.08, 2.11)

#: Models each workload simulates (their specs are built during set-up).
MODELS = {
    "fig11-functional": ("resnet50", "vgg16", "mobilenet_v1", "alexnet"),
    "alexnet-xval": ("alexnet",),
    "analytic-dse": ("resnet50", "vgg16", "mobilenet_v1", "alexnet"),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM; reset by exec, unlike
    ``ru_maxrss``, which keeps the launching process's peak)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _record_payloads(recorded):
    """Snapshot every per-layer payload as the simulator produced it:
    the runner's batches (before finalization mutates them) and the
    analytic tier's ``run_layer`` results."""
    from repro.accel.base import AcceleratorModel
    from repro.eval import runner

    batch = runner.simulate_layer_tasks
    run_layer = AcceleratorModel.run_layer

    def simulate_layer_tasks(*args, **kwargs):
        payloads = batch(*args, **kwargs)
        recorded.extend((cycles, tuple(vars(events).values()))
                        for cycles, events in payloads)
        return payloads

    def recorded_run_layer(self, layer):
        result = run_layer(self, layer)
        recorded.append((result.compute_cycles,
                         tuple(vars(result.events).values())))
        return result

    runner.simulate_layer_tasks = simulate_layer_tasks
    AcceleratorModel.run_layer = recorded_run_layer


def _fig11_functional(seed, cache):
    from repro.eval import experiments

    result = experiments.fig11_full_models(functional=True, seed=seed,
                                           result_cache=cache)
    return {"fig11": result.rows}


def _alexnet_xval(seed, cache):
    from repro.eval import experiments

    xval = experiments.xval_functional_vs_analytic("alexnet", seed=seed,
                                                   jobs="auto")
    fig12 = experiments.fig12_alexnet_per_layer(functional=True, seed=seed,
                                                jobs="auto")
    return {"xval": xval.rows, "xval_failures": xval.failures,
            "fig12": fig12.rows}


def _analytic_dse(seed, cache):
    import probes
    from repro.design import dse
    from repro.eval import experiments

    fig11 = experiments.fig11_full_models()
    with probes.region("experiments.dse"):
        evaluations = dse.evaluate_points(dse.DSESpace().points, seed=seed,
                                          result_cache=cache)
        frontier = dse.pareto_frontier_3d(evaluations.values())
    return {"fig11": fig11.rows, "dse_points": len(evaluations),
            "dse_frontier": [e.uid for e in frontier]}


WORKLOADS = {
    "fig11-functional": _fig11_functional,
    "alexnet-xval": _alexnet_xval,
    "analytic-dse": _analytic_dse,
}


def check(workload, rows):
    """Output checks; returns the list of failures (empty = correct)."""
    from repro.eval.experiments import XVAL_CONTRACT

    errors = []
    if workload == "fig11-functional":
        for got, ana in zip(rows["fig11"], ANALYTIC_FIG11):
            for col, variant in enumerate(FIG11_COLUMNS, start=1):
                if ana[col] == "-":
                    continue
                bound = XVAL_CONTRACT[variant].energy
                gap = abs(got[col] - ana[col]) / ana[col]
                if not gap <= bound:
                    errors.append(
                        f"fig11 {got[0]} col {col}: functional {got[col]} "
                        f"vs analytic {ana[col]} ({gap:.1%} > {bound:.0%})")
        if [r[0] for r in rows["fig11"]] != [r[0] for r in ANALYTIC_FIG11]:
            errors.append("fig11 functional rows are not the four models "
                          "plus the average")
    elif workload == "alexnet-xval":
        errors.extend(f"xval: {f}" for f in rows["xval_failures"])
        if len(rows["xval"]) != 8 * 5:
            errors.append(f"xval has {len(rows['xval'])} rows, not 40")
        if len(rows["fig12"]) != 5 or not all(
                math.isfinite(r[-1]) and r[-1] > 0 for r in rows["fig12"]):
            errors.append("fig12 functional totals are not 5 positive "
                          "finite energies")
    else:
        if rows["fig11"] != ANALYTIC_FIG11:
            errors.append(f"analytic fig11 rows moved: {rows['fig11']}")
        if rows["dse_frontier"] != DSE_FRONTIER:
            errors.append(f"DSE frontier moved: {rows['dse_frontier']}")
        if rows["dse_points"] != DSE_POINTS:
            errors.append(f"DSE evaluated {rows['dse_points']} points, "
                          f"not {DSE_POINTS}")
    return errors


def paper_error(rows):
    """S2TA-AW Fig. 11 averages beside the paper's (informational)."""
    if "fig11" not in rows:
        return None
    energy, speedup = rows["fig11"][-1][5:7]
    return {"energy": energy, "speedup": speedup,
            "paper_energy": PAPER_AW_AVERAGE[0],
            "paper_speedup": PAPER_AW_AVERAGE[1],
            "energy_err": energy / PAPER_AW_AVERAGE[0] - 1.0,
            "speedup_err": speedup / PAPER_AW_AVERAGE[1] - 1.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache (omit for none)")
    parser.add_argument("--trace-out", default=None,
                        help="trace this pass into this Chrome-trace file")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy

    import probes
    from repro.eval.resultcache import ResultCache
    from repro.models import get_spec
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    recorded = []
    _record_payloads(recorded)
    if args.trace_out:
        probes.install()
    for model in MODELS[args.workload]:
        get_spec(model)
    cache = None if args.cache_dir is None else ResultCache(args.cache_dir)
    if args.trace_out:
        obs_trace.start_tracing(args.trace_out)

    ready = time.monotonic()
    start = time.perf_counter()
    rows = WORKLOADS[args.workload](args.seed, cache)
    wall_s = time.perf_counter() - start

    result = {
        "pid": os.getpid(),
        "ready": ready,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": numpy.__version__,
        "payload_digest": _digest(recorded),
        "payloads": len(recorded),
        "rows_digest": _digest(rows),
        "errors": check(args.workload, rows),
        "paper": paper_error(rows),
    }
    if args.trace_out:
        obs_trace.stop_tracing()
        result["per_layer"] = probes.analyze(
            args.trace_out, os.getpid(), wall_s,
            obs_metrics.default_registry().as_dict())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)


if __name__ == "__main__":
    main()
