#!/usr/bin/env python
"""Profile the simulator's hot paths: one representative GEMM per mode.

Runs ``compress`` plus ``SystolicArray.run_gemm`` in each of the four
execution modes (event counting only: a result's output matrix is
computed on first read, so the GEMM itself is profiled through the two
raw sparse kernels), the three baseline functional engines (SparTen
bitmask inner-join, Eyeriss v2 CSC row-stationary mesh, SCNN
Cartesian-product array), operand synthesis in its three stages (the
``spec_census`` draw every functional engine counts from, whose
best-of-five time and ``tracemalloc`` peak are printed first, the
materialization of both ``bool`` masks from that census, which only
position readers pay, and ``spec_int8_operands``, which adds INT8
values for output readers),
the memory-hierarchy DMA tile-timeline walker, and the analytic tier's
loops: the SA-SMT queueing batch of analytic Fig. 11 (its 28 density
points, ``SMT_STREAM_LENGTH`` cycles each), ``dse.evaluate_points``
over the default DSE keyspace (the array pass, one numpy pass per
datapath style and tech node) and, over the same points, the scalar
per-point oracle it is tested against
(``point.build().run_layer(point.layer())``). Each runs under
cProfile, printing the top-15 functions by cumulative time, so perf
PRs can measure before/after instead of guessing where the time goes.
Before the DSE profiles, the default and the wide keyspace
(``WIDE_DSE_AXES``: every tech node x four DRAM channels, 32,544
points) are timed without a profiler, best of five, split into
building the ``DSESpace``, ``evaluate_points`` and
``pareto_frontier_3d``, beside the best of five fresh-interpreter
imports of ``repro.design.dse`` (after the other artifact imports).

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py [--size M K N] [--top N]
    PYTHONPATH=src python tools/profile_hotpaths.py --startup [--top N]
    PYTHONPATH=src python tools/profile_hotpaths.py --smt

The workload defaults to the Fig. 9 microbench layer shape
(1024x1152x256): one conv layer spec, 4/8 weights and activations with
no DBB cap at density 9/16, whose INT8 operands
``repro.workloads.from_spec.spec_int8_operands`` synthesizes once. The
census spreads non-zeros evenly, so half the activation blocks hold 5
and DAP prunes them to 4/8. Every engine, the synthesis stages and the
walker run that same layer.

``--smt`` times the two SA-SMT batch shapes the artifacts run, without
a profiler: the 28-point analytic Fig. 11 batch and the 5-point
AlexNet batch (``xval`` runs two of these), each as the best of
five runs in this process, split into the arrival draws
(``arch.smt._binomial_into``) and the lockstep (everything else:
packing the draws, stepping the cycles, bookkeeping). The full run
prints the same lines before the analytic tier's profiles.

``--startup`` profiles start-up instead: in a fresh interpreter it
imports numpy, then the modules an artifact run imports
(``ARTIFACT_IMPORTS``), and prints the ``-X importtime`` self time of
every module the second step loads (repro's and the standard-library
modules they pull in), plus the total time spent creating dataclass
classes, which every run pays whether or not its bytecode is cached.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pathlib
import pstats
import subprocess
import sys
import time
import tracemalloc
from typing import Dict, List, Tuple

#: What an artifact run (the CLI's ``experiment`` / ``dse`` verbs, the
#: benchmark's passes) imports before its first simulation.
ARTIFACT_IMPORTS = ("repro.eval.runner", "repro.eval.experiments",
                    "repro.eval.resultcache", "repro.models",
                    "repro.design.dse")

_MARK = "-- artifact imports --"

#: Run with ``-X importtime``: numpy first (not itemized), then the
#: artifact imports with ``dataclasses._process_class`` timed; prints
#: the dataclass count and seconds as JSON.
_STARTUP_CHILD = f"""
import sys, time
import numpy
import dataclasses
created = [0, 0.0]
process_class = dataclasses._process_class
def timed(cls, *args):
    start = time.perf_counter()
    try:
        return process_class(cls, *args)
    finally:
        created[0] += 1
        created[1] += time.perf_counter() - start
dataclasses._process_class = timed
print({_MARK!r}, file=sys.stderr, flush=True)
for name in {ARTIFACT_IMPORTS!r}:
    __import__(name)
print(created)
"""


def _import_self_times(stderr: str) -> List[Tuple[str, int, int]]:
    """``(module, self us, cumulative us)`` per module loaded after the
    child's marker, in completion order. A submodule that its package's
    ``__init__`` imports is logged again when the package returns;
    those lines fold into the first."""
    rows: Dict[str, List[int]] = {}
    for line in stderr.split(_MARK, 1)[1].splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            row = rows.setdefault(name.strip(), [0, 0])
            row[0] += int(self_us)
            row[1] = max(row[1], int(cum_us))
    return [(name, s, c) for name, (s, c) in rows.items()]


def startup_report(top: int = 25) -> str:
    """Per-module import self time of the artifact import path and the
    dataclass-creation total, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _STARTUP_CHILD],
        capture_output=True, text=True, check=True)
    rows = _import_self_times(proc.stderr)
    classes, dataclass_s = json.loads(proc.stdout)
    ours = [r for r in rows if r[0].split(".")[0] == "repro"]
    others = [r for r in rows if r[0].split(".")[0] != "repro"]
    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    lines = [
        f"fresh interpreter; bytecode writing {cached}; "
        f"imports: {', '.join(ARTIFACT_IMPORTS)}",
        f"repro: {len(ours)} modules, "
        f"{sum(r[1] for r in ours) / 1e3:.1f} ms self",
        f"other modules they pull in: {len(others)}, "
        f"{sum(r[1] for r in others) / 1e3:.1f} ms self",
        f"dataclass creation: {classes} classes, {dataclass_s * 1e3:.1f} ms "
        "(inside the importing modules' self time)",
        f"{'self ms':>8} {'cum ms':>8}  module",
    ]
    for name, self_us, cum_us in sorted(rows, key=lambda r: -r[1])[:top]:
        lines.append(f"{self_us / 1e3:8.1f} {cum_us / 1e3:8.1f}  {name}")
    return "\n".join(lines)


def smt_batch_times(densities, repeats: int = 5) -> Tuple[float, float]:
    """Best-of-``repeats`` seconds of one fresh ``SmtSA().prefetch`` over
    ``densities``: ``(total, arrival draws)``. The draws are timed by
    wrapping ``arch.smt._binomial_into`` for the duration."""
    from repro.accel import SmtSA
    from repro.arch import smt

    draw = smt._binomial_into
    drawing = [0.0]

    def timed_draw(*args) -> None:
        start = time.perf_counter()
        draw(*args)
        drawing[0] += time.perf_counter() - start

    best = (float("inf"), 0.0)
    smt._binomial_into = timed_draw
    try:
        for _ in range(repeats):
            drawing[0] = 0.0
            start = time.perf_counter()
            SmtSA().prefetch(densities)
            best = min(best, (time.perf_counter() - start, drawing[0]))
    finally:
        smt._binomial_into = draw
    return best


def smt_report(repeats: int = 5) -> str:
    """Both SA-SMT batch shapes, split into draws and lockstep."""
    from repro.accel.smt import _grid_key
    from repro.eval.experiments import FULL_MODELS
    from repro.models import get_spec

    shapes = {
        "analytic fig11": [(conv.w_density, conv.a_density)
                           for name in FULL_MODELS
                           for conv in get_spec(name).conv_layers],
        "alexnet": [(conv.w_density, conv.a_density)
                    for conv in get_spec("alexnet").conv_layers],
    }
    lines = [f"best of {repeats}, one fresh SmtSA per run"]
    for label, densities in shapes.items():
        total, drawing = smt_batch_times(densities, repeats)
        points = len({_grid_key(w, a) for w, a in densities})
        lines.append(f"{label:<15} {points:>3} points: {total * 1e3:6.1f} ms "
                     f"= draws {drawing * 1e3:5.1f} ms "
                     f"+ lockstep {(total - drawing) * 1e3:5.1f} ms")
    return "\n".join(lines)


#: The wide DSE keyspace: the default axes over every tech node and
#: four DRAM channels, 12x the default's points and groups.
WIDE_DSE_AXES = {"dram_gbps": (None, 4.0, 16.0, 64.0),
                 "techs": ("16nm", "45nm", "65nm")}


def dse_stage_times(axes=None, repeats: int = 5
                    ) -> Tuple[int, float, float, float]:
    """``(points, space, evaluate, frontier)`` of the analytic sweep
    over ``axes``: seconds of building the ``DSESpace``, of
    ``evaluate_points`` and of ``pareto_frontier_3d``, from the run of
    ``repeats`` with the least total time."""
    from repro.design import dse

    best = (float("inf"),)
    for _ in range(repeats):
        start = time.perf_counter()
        space = dse.DSESpace(axes)
        built = time.perf_counter()
        evaluations = dse.evaluate_points(space.points)
        evaluated = time.perf_counter()
        dse.pareto_frontier_3d(evaluations.values())
        end = time.perf_counter()
        best = min(best, (end - start, built - start, evaluated - built,
                          end - evaluated))
    return (len(space),) + best[1:]


#: Run in a fresh interpreter: numpy and the artifact imports other
#: than the DSE module, then ``repro.design.dse`` timed; prints seconds.
_DSE_IMPORT_CHILD = f"""
import time
import numpy
for name in {[m for m in ARTIFACT_IMPORTS if m != "repro.design.dse"]!r}:
    __import__(name)
start = time.perf_counter()
import repro.design.dse
print(time.perf_counter() - start)
"""


def dse_import_time(repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds of importing ``repro.design.dse``,
    each in a fresh interpreter that has already loaded what an
    artifact run loads before it (numpy, the runner, the experiments,
    the result cache and the model specs)."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return min(float(subprocess.run(
        [sys.executable, "-c", _DSE_IMPORT_CHILD], env=env,
        capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats))


def dse_report(repeats: int = 5) -> str:
    """The default and the wide DSE keyspace, split into space,
    evaluate and frontier, and the fresh-interpreter import of the
    module that runs them."""
    from repro.design.dse import DSEAxes

    lines = [f"best of {repeats}, one fresh DSESpace per run"]
    for label, axes in (("default", None),
                        ("wide", DSEAxes(**WIDE_DSE_AXES))):
        points, space, evaluate, frontier = dse_stage_times(axes, repeats)
        lines.append(f"{label:<8} {points:>6} points: "
                     f"space {space * 1e3:6.1f} ms + "
                     f"evaluate {evaluate * 1e3:6.1f} ms + "
                     f"frontier {frontier * 1e3:6.1f} ms")
    cached = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    lines.append(f"import repro.design.dse: "
                 f"{dse_import_time(repeats) * 1e3:6.1f} ms in a fresh "
                 f"interpreter after the other artifact imports "
                 f"(bytecode writing {cached})")
    return "\n".join(lines)


def census_report(layer, repeats: int = 5) -> str:
    """The census stage of ``layer``: the best-of-``repeats`` time of
    ``spec_census``, then the ``tracemalloc`` peak and retained size of
    one more, traced draw."""
    from repro.workloads.from_spec import spec_census

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        spec_census(layer)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        operands = spec_census(layer)  # noqa: F841 (retained below)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (f"spec_census {layer.m}x{layer.k}x{layer.n}: "
            f"{best * 1e3:.1f} ms, traced peak {(peak - base) / 1e6:.2f} MB"
            f" (retained {(retained - base) / 1e6:.2f} MB)")


def _profile(label: str, func, *args, top: int = 15, **kwargs) -> None:
    print(f"\n=== {label} " + "=" * max(1, 68 - len(label)))
    profiler = cProfile.Profile()
    profiler.enable()
    func(*args, **kwargs)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", nargs=3, type=int, default=[1024, 1152, 256],
                        metavar=("M", "K", "N"),
                        help="GEMM shape (default: fig. 9 microbench layer)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows of profile output per section")
    parser.add_argument("--startup", action="store_true",
                        help="profile the artifact import path in a fresh "
                             "interpreter instead of the hot paths")
    parser.add_argument("--smt", action="store_true",
                        help="only time the two SA-SMT batch shapes, "
                             "split into arrival draws and lockstep")
    args = parser.parse_args(argv)
    if args.startup:
        print("=== start-up: artifact import path " + "=" * 34)
        print(startup_report(args.top))
        return 0
    if args.smt:
        print("=== SA-SMT batches: draws vs lockstep " + "=" * 31)
        print(smt_report())
        return 0
    m, k, n = args.size

    from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
    from repro.core.dap import dap_prune
    from repro.core.dbb import DBBSpec, compress
    from repro.core.gemm import compress_operands, dbb_gemm, joint_dbb_gemm
    from repro.models.specs import LayerKind, LayerSpec
    from repro.workloads.from_spec import spec_census, spec_int8_operands

    spec = DBBSpec(8, 4)
    layer = LayerSpec("profile", LayerKind.CONV, m=m, k=k, n=n,
                      w_nnz=4, a_nnz=8, weight_density=0.5,
                      act_density=0.5625)
    a, w = spec_int8_operands(layer)
    print(f"workload: {m}x{k}x{n}, 4/8 weights, 56% dense activations")

    _profile("compress (W)", compress, w.T, spec, top=args.top)

    w_dbb = compress(w.T, spec)
    _profile("dbb_gemm (S2TA-W kernel)", dbb_gemm, a, w_dbb, top=args.top)

    a_ok = dap_prune(a, spec).pruned
    a_dbb, w_dbb2 = compress_operands(a_ok, w, spec, spec)
    _profile("joint_dbb_gemm (S2TA-AW kernel)", joint_dbb_gemm,
             a_dbb, w_dbb2, top=args.top)

    configs = {
        "DENSE": SystolicConfig(rows=32, cols=64, mode=Mode.DENSE),
        "ZVCG": SystolicConfig(rows=32, cols=64, mode=Mode.ZVCG),
        "WDBB": SystolicConfig(rows=4, cols=8, mode=Mode.WDBB,
                               w_spec=spec, tpe_a=4, tpe_c=4),
        "AWDBB": SystolicConfig(rows=8, cols=8, mode=Mode.AWDBB,
                                w_spec=spec, a_spec=spec, tpe_a=8, tpe_c=4),
    }
    for name, config in configs.items():
        sim = SystolicArray(config)
        _profile(f"run_gemm {name}", sim.run_gemm, a, w, top=args.top)

    # --- the three baseline functional engines (PR-4 code) ---
    from repro.arch.eyeriss import EyerissV2Engine
    from repro.arch.scnn import SCNNEngine
    from repro.arch.sparten import SparTenEngine

    for name, engine in (
        ("SparTenEngine.run_gemm", SparTenEngine()),
        ("EyerissV2Engine.run_gemm", EyerissV2Engine()),
        ("SCNNEngine.run_gemm", SCNNEngine()),
    ):
        _profile(name, engine.run_gemm, a, w, top=args.top)

    # --- operand synthesis (the functional tier's other hot path) ---
    print("\n=== census draw: time and traced peak " + "=" * 31)
    print(census_report(layer))
    _profile("spec_census (census draw)", spec_census, layer, top=args.top)
    census = spec_census(layer)

    def materialize_masks() -> None:
        census.a, census.w

    _profile("materialize (A and W masks from the census)",
             materialize_masks, top=args.top)
    _profile("spec_int8_operands (census + masks + values)",
             spec_int8_operands, layer, top=args.top)

    # --- memory-hierarchy DMA tile-timeline walker (PR-3 code) ---
    from repro.accel import S2TAAW

    accel = S2TAAW()
    result = accel.run_layer(layer)

    def walk_dma_timeline(repeats: int = 200) -> None:
        for _ in range(repeats):
            profile = accel.memory.profile(
                accel.layer_traffic(layer, result.events),
                result.compute_cycles, name=layer.name)
            profile.overlapped_cycles  # forces the lazy walker

    _profile("memory DMA timeline walker (x200)", walk_dma_timeline,
             top=args.top)

    # --- the analytic tier: SA-SMT Monte Carlo and the DSE sweep ---
    from repro.accel import SmtSA
    from repro.design import dse
    from repro.eval.experiments import FULL_MODELS
    from repro.models import get_spec

    print("\n=== SA-SMT batches: draws vs lockstep " + "=" * 31)
    print(smt_report())
    densities = [(conv.w_density, conv.a_density) for name in FULL_MODELS
                 for conv in get_spec(name).conv_layers]
    _profile("SmtSA.prefetch (analytic fig11 SMT batch)",
             SmtSA().prefetch, densities, top=args.top)
    print("\n=== DSE sweep: space, evaluate, frontier " + "=" * 28)
    print(dse_report())
    points = dse.DSESpace().points
    _profile(f"dse.evaluate_points ({len(points)} analytic points)",
             dse.evaluate_points, points, top=args.top)

    def scalar_dse_oracle() -> None:
        for point in points:
            point.build().run_layer(point.layer())

    _profile(f"scalar DSE oracle ({len(points)} run_layer calls)",
             scalar_dse_oracle, top=args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
