"""The repo benchmark: timed, checked passes of one workload.

    python3 perfbench/run.py --workload fig11-functional --seed 0 \\
        --seconds 35 --trace 0

Workloads (see README.md for why each exists):

- ``fig11-functional``: full-size functional Fig. 11 (340 layer
  simulations, serial); cold passes start from an empty on-disk result
  cache, warm passes re-run against the cache the cold pass primed.
- ``alexnet-xval``: the AlexNet functional-vs-analytic cross-validation,
  then functional Fig. 12, both ``jobs="auto"`` with no result cache;
  it keeps no state, so every pass is cold and ``warm_s`` is ``wall_s``.
- ``analytic-dse``: analytic Fig. 11, then the full 2,712-point DSE
  keyspace and its Pareto frontier; one prime pass per run fills an
  empty result cache, cold passes run without a cache, warm passes
  re-run against the primed one.

Every pass runs ``workpass.py`` in a fresh interpreter, one at a time.
After one pass of each kind, the run shares ``--seconds`` between the
cold and warm kinds: the next pass is of the kind with less time spent,
if its last pass still fits before the deadline. ``--trace 1`` then
adds a traced pass of the kind that fills the cache (cold where there
is none) and a traced warm pass, and reports per-module metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a pass fails if
it exits non-zero, fails an output check, or its payload or row digest
differs from the run's first pass. The full report (host fingerprint,
seed, every pass) goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKPASS = pathlib.Path(__file__).resolve().parent / "workpass.py"
WORKDIR = ROOT / ".perfbench"

#: Pass kinds of each workload; the first kind runs first. A warm pass
#: reads the on-disk result cache that the last ``FILLS_CACHE`` pass
#: wrote into an empty directory; other passes run without a cache.
#: ``alexnet-xval`` keeps no state, so it has only cold passes.
#: ``analytic-dse`` fills its cache in one ``prime`` pass per run and
#: times its cold passes without one: its 2,712 puts per pass made the
#: cold time track the disk (1.1 to 3.5 s for the same pass), and the
#: file churn of repeated cold passes slowed the disk for later runs.
KINDS = {
    "fig11-functional": ("cold", "warm"),
    "alexnet-xval": ("cold",),
    "analytic-dse": ("prime", "cold", "warm"),
}
FILLS_CACHE = {"fig11-functional": "cold", "analytic-dse": "prime"}

#: A pass must end within this many seconds of the run's start.
RUN_LIMIT_S = 170.0

#: Per-layer metrics reported from the traced warm pass as ``warm.*``:
#: what the warm path of the cached workloads spends its time on.
WARM_METRICS = ("resultcache.key_s", "resultcache.get_s",
                "resultcache.hit_ratio", "resultcache.lookups",
                "memory.profile_s",
                "energy.breakdown_s", "runner.self_s",
                "experiments.self_s", "obs.coverage", "obs.traced_wall_s")


#: Per-layer time metrics that are not a module's self time (totals,
#: sums over tasks, differences); the module table leaves them out.
NOT_SELF_TIMES = ("obs.traced_wall_s", "obs.trace_overhead_s",
                  "runner.batch_s", "runner.compute_s", "runner.overhead_s",
                  "runner.queue_wait_s", "experiments.fig11_s",
                  "experiments.fig12_s", "experiments.xval_s",
                  "experiments.dse_s")


class PassFailed(Exception):
    """A pass that did not produce a result (crash or timeout)."""


def host_fingerprint(numpy_version):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def child_env(rundir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Nothing may reach the default cache under $HOME.
    env["REPRO_CACHE_DIR"] = str(rundir / "default-cache")
    return env


def run_pass(kind, workload, seed, cache_dir, trace_out, rundir, deadline):
    """Launch one pass and wait for it; returns its result dict."""
    out = rundir / f"pass-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(WORKPASS), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    # Own session, so a timeout can kill the pass and its pool workers.
    proc = subprocess.Popen(cmd, env=child_env(rundir), cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise PassFailed(f"{kind} pass timed out") from None
    if code != 0:
        raise PassFailed(f"{kind} pass exited with code {code}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result.update(kind=kind, setup_s=result["ready"] - spawned)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=KINDS)
    parser.add_argument("--seed", type=int, default=0,
                        help="operand-synthesis seed (default 0)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    rundir = pathlib.Path(tempfile.mkdtemp(dir=WORKDIR, prefix="run-"))
    try:
        return bench(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def bench(args, rundir):
    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + RUN_LIMIT_S
    kinds = KINDS[args.workload]
    fills = FILLS_CACHE.get(args.workload)
    attempts = []
    cache_dir = None
    spent = {kind: 0.0 for kind in kinds}
    last = {}

    def attempt(kind, trace_out=None):
        """Run one pass; returns its result, or None if it did not run."""
        nonlocal cache_dir
        if kind == fills:
            # Old caches stay until the run ends: deleting thousands of
            # files on a disk with online discard stalls later writes.
            cache_dir = pathlib.Path(tempfile.mkdtemp(dir=rundir,
                                                      prefix="cache-"))
        # Flush the previous pass's cache writes before this one starts.
        os.sync()
        began = time.monotonic()
        try:
            result = run_pass(kind, args.workload, args.seed,
                              cache_dir if kind in (fills, "warm") else None,
                              trace_out, rundir, hard_deadline)
        except PassFailed as exc:
            result = {"kind": kind, "errors": [str(exc)]}
            print(f"pass {len(attempts) + 1} {kind}: FAILED: {exc}")
        else:
            ran = [a for a in attempts if "wall_s" in a]
            for digest in ("payload_digest", "rows_digest"):
                if ran and result[digest] != ran[0][digest]:
                    result["errors"].append(
                        f"{digest} {result[digest]} differs from the "
                        f"first pass's {ran[0][digest]}")
            print(f"pass {len(attempts) + 1} {kind}"
                  f"{' traced' if trace_out else ''}: wall "
                  f"{result['wall_s']:.4f} s  setup {result['setup_s']:.4f} s"
                  f"  rss {result['peak_rss_mb']:.1f} MB  "
                  f"{'; '.join(result['errors']) or 'ok'}")
        attempts.append(result)
        last[kind] = time.monotonic() - began
        spent[kind] += last[kind]
        return result if "wall_s" in result else None

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    first = attempt(kinds[0])
    if first is None:
        return 1
    for kind in kinds[1:]:
        attempt(kind)
    # Share the budget between the timed kinds: next comes the kind with
    # less time spent, if its last pass still fits before the deadline.
    timed_kinds = [kind for kind in kinds if kind != "prime"]
    while True:
        fits = [kind for kind in sorted(timed_kinds, key=spent.get)
                if time.monotonic() + last[kind] <= deadline]
        if not fits:
            break
        attempt(fits[0])

    ran = [a for a in attempts if "wall_s" in a]
    walls = {kind: [p["wall_s"] for p in ran if p["kind"] == kind]
             for kind in kinds}
    if not walls["cold"] or not walls.get("warm", walls["cold"]):
        print("perfbench: no cold or warm pass ran", file=sys.stderr)
        return 1
    metrics = {
        "wall_s": (statistics.median(walls["cold"]), "s"),
        # A workload without state has no warm passes: a repeat costs
        # exactly what a cold pass does.
        "warm_s": (statistics.median(walls.get("warm", walls["cold"])),
                   "s"),
        "setup_s": (statistics.median([p["setup_s"] for p in ran]), "s"),
        "peak_rss_mb": (statistics.median(
            [p["peak_rss_mb"] for p in ran if p["kind"] == "cold"]), "MB"),
    }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint(first["numpy"]),
              "passes": attempts,
              "samples": {kind: len(walls[kind]) for kind in kinds}}

    if args.trace:
        trace_out = WORKDIR / f"trace-{args.workload}.json"
        # The traced "cold" pass is the one that fills the cache, if any.
        traced_kind = fills or "cold"
        traced = attempt(traced_kind, trace_out)
        traced_warm = (attempt("warm", rundir / "trace-warm.json")
                       if "warm" in kinds else traced)
        if traced is None or traced_warm is None:
            print("perfbench: traced pass failed", file=sys.stderr)
            return 1
        per_layer = dict(traced["per_layer"])
        per_layer["obs.trace_overhead_s"] = (
            traced["wall_s"] - statistics.median(walls[traced_kind]))
        for name in WARM_METRICS:
            per_layer["warm." + name] = traced_warm["per_layer"][name]
        report["per_layer"] = per_layer
        print_modules(traced["per_layer"], f"traced {traced_kind} pass")
        if traced_warm is not traced:
            print_modules(traced_warm["per_layer"], "traced warm pass")
        print_ratios(per_layer)
        print(f"trace: {trace_out.relative_to(ROOT)} (overhead "
              f"{per_layer['obs.trace_overhead_s']:+.4f} s over the "
              f"untraced {traced_kind} median)")
        out_metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in sorted(per_layer.items())}
    else:
        out_metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}

    host = report["host"]
    print(f"host: cpus={host['cpus']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']}")
    print(f"digest: payloads={first['payload_digest']} "
          f"({first['payloads']} per-layer payloads) "
          f"rows={first['rows_digest']}")
    paper = first["paper"]
    if paper:
        print(f"paper: S2TA-AW Fig. 11 average energy "
              f"{paper['energy']:.2f}x (paper {paper['paper_energy']:.2f}x,"
              f" {paper['energy_err']:+.1%}), speedup "
              f"{paper['speedup']:.2f}x (paper {paper['paper_speedup']:.2f}x,"
              f" {paper['speedup_err']:+.1%})")
    if "prime" in walls:
        print(f"prime: filling the empty result cache took "
              f"{statistics.median(walls['prime']):.4f} s")
    print(f"end to end: wall_s {metrics['wall_s'][0]:.4f} s "
          f"(median of {len(walls['cold'])} cold), warm_s "
          f"{metrics['warm_s'][0]:.4f} s (median of "
          f"{len(walls.get('warm', walls['cold']))} "
          f"{'warm' if 'warm' in walls else 'cold'}), setup_s "
          f"{metrics['setup_s'][0]:.4f} s (median of {len(ran)}), "
          f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} (median of "
          f"{len(walls['cold'])} cold)")
    report_path = WORKDIR / (f"report-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True),
                           encoding="utf-8")
    failed = sum(1 for a in attempts if a["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": out_metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_frac", "_ratio", "coverage", "per_layer")):
        return "ratio"
    return "count"


def print_modules(per_layer, label):
    wall = per_layer["obs.traced_wall_s"]
    print(f"modules, {label} (self time; share of the {wall:.3f} s traced "
          f"wall; pool workers' time is summed over their tracks):")
    rows = sorted(((name[:-2], value) for name, value in per_layer.items()
                   if name.endswith("_s") and value
                   and name not in NOT_SELF_TIMES),
                  key=lambda kv: -kv[1])
    for name, value in rows:
        print(f"  {name:<24} {value:9.4f} s  {value / wall:6.1%}")
    workers = (f"{per_layer['obs.worker_coverage']:.1%} of pool-worker "
               "busy time" if per_layer["runner.pool_workers"] else "no pool")
    print(f"  coverage {per_layer['obs.coverage']:.1%} of the parent's "
          f"wall; {workers}")


def print_ratios(per_layer):
    print("useful work (ratio, base):")
    for ratio, base in (
            ("gemm.output_discarded_frac", "gemm.output_calls"),
            ("dap.noop_frac", "dap.calls"),
            ("smt.repeat_frac", "smt.calls"),
            ("workloads.synth_per_layer", "workloads.synth_shapes"),
            ("resultcache.hit_ratio", "resultcache.lookups"),
            ("warm.resultcache.hit_ratio", "warm.resultcache.lookups")):
        print(f"  {ratio:<28} {per_layer[ratio]:.4f}  "
              f"({base} = {per_layer[base]})")


if __name__ == "__main__":
    sys.exit(main())
