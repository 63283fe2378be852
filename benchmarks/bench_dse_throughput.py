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

The run records configs per second over the median of ``ROUNDS``
sweeps as ``extra_info.throughput`` (unit ``configs/s``);
``tools/check_bench_regression.py`` gates on it, so the nightly gate
fails on a >10% throughput drop. One sweep takes tens of milliseconds
and its rate swings by more than 10% between runs on a shared host,
so the gate reads a median, not a single round.
"""

import statistics
import time

from repro.design.dse import DSEAxes, DSESpace, run_dse

#: The full default keyspace (2,712 points).
AXES = DSEAxes()

#: Sweeps per run; the gated rate is over their median wall time.
ROUNDS = 5


def test_bench_dse_analytic_cold(benchmark):
    wallclocks = []

    def body():
        start = time.perf_counter()
        artifact = run_dse(AXES)
        wallclocks.append(time.perf_counter() - start)
        return artifact

    artifact = benchmark.pedantic(body, rounds=ROUNDS, iterations=1)
    wallclock = statistics.median(wallclocks)
    evaluated = len(artifact["evaluations"])
    assert evaluated == len(DSESpace(AXES)), \
        f"sweep covered {evaluated} points, not the whole space"
    assert artifact["frontier"], "sweep produced no Pareto frontier"
    benchmark.extra_info["scenario"] = "cold"
    benchmark.extra_info["configs_evaluated"] = evaluated
    benchmark.extra_info["rounds"] = len(wallclocks)
    benchmark.extra_info["wallclock_s"] = round(wallclock, 4)
    benchmark.extra_info["throughput"] = round(evaluated / wallclock, 2)
    benchmark.extra_info["unit"] = "configs/s"
