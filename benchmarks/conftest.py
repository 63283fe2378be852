"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (table or figure); the
rendered text is saved under ``benchmarks/results/`` so the reproduction
output survives pytest's stdout capture, and key numbers are attached to
the pytest-benchmark record via ``extra_info``.
"""

from __future__ import annotations

import pathlib
import statistics
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Rounds of a gated run. One round's rate swings past the nightly
#: gate's 10% bound on a shared host, so the gate reads their median.
ROUNDS = 5


@pytest.fixture()
def save_result():
    """Persist a rendered ExperimentResult and return it unchanged."""

    def _save(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        slug = "".join(c if c.isalnum() else "_"
                       for c in result.artifact.lower()).strip("_")
        path = RESULTS_DIR / f"{slug}.txt"
        path.write_text(result.render() + "\n")
        return result

    return _save


@pytest.fixture()
def median_rounds(benchmark):
    """Run ``fn(*args)`` for :data:`ROUNDS` rounds under ``benchmark``
    and record ``1 / median round time`` as ``extra_info.throughput``,
    the rate ``tools/check_bench_regression.py`` gates on. ``setup``,
    if given, runs untimed before each round. Returns the last round's
    result and the median round time in seconds."""

    def _run(fn, *args, setup=None, unit="runs/s"):
        wallclocks = []

        def body():
            if setup is not None:
                setup()
            start = time.perf_counter()
            result = fn(*args)
            wallclocks.append(time.perf_counter() - start)
            return result

        result = benchmark.pedantic(body, rounds=ROUNDS, iterations=1)
        median = statistics.median(wallclocks)
        benchmark.extra_info["rounds"] = len(wallclocks)
        benchmark.extra_info["throughput"] = 1.0 / median
        benchmark.extra_info["unit"] = unit
        return result, median

    return _run
