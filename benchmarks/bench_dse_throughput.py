"""DSE evaluation-throughput tracking (configs evaluated per second).

Not a paper artifact — this benchmark freezes the sustained rate at
which the exhaustive design-space exploration (:mod:`repro.design.dse`)
pushes configurations through the analytic evaluation path, over the
whole default keyspace: points are grouped by (style, B, A-DBB, tech,
DRAM bandwidth) and each group's closed-form layer events, memory
profile, energy, power and area are priced as arrays over its
geometries and SRAM sizes. This is the rate that bounds how large a
space one host can sweep, so a regression here (a per-point Python
loop creeping back, an accidental functional-tier dispatch) directly
shrinks explorable spaces.
Analytic points are never cached, so there is no warm regime to track.

The run records configs per second as ``extra_info.throughput`` (unit
``configs/s``); ``tools/check_bench_regression.py`` gates on it, so the
nightly gate fails on a >10% throughput drop.
"""

import time

from repro.design.dse import DSEAxes, DSESpace, run_dse

#: The full default keyspace (2,712 points).
AXES = DSEAxes()


def test_bench_dse_analytic_cold(benchmark):
    wallclock = {}

    def body():
        start = time.perf_counter()
        artifact = run_dse(AXES)
        wallclock["s"] = time.perf_counter() - start
        return artifact

    artifact = benchmark.pedantic(body, rounds=1, iterations=1)
    evaluated = len(artifact["evaluations"])
    assert evaluated == len(DSESpace(AXES)), \
        f"sweep covered {evaluated} points, not the whole space"
    assert artifact["frontier"], "sweep produced no Pareto frontier"
    benchmark.extra_info["scenario"] = "cold"
    benchmark.extra_info["configs_evaluated"] = evaluated
    benchmark.extra_info["wallclock_s"] = round(wallclock["s"], 4)
    benchmark.extra_info["throughput"] = round(
        evaluated / wallclock["s"], 2)
    benchmark.extra_info["unit"] = "configs/s"
