"""DSE evaluation-throughput tracking (configs evaluated per second).

Not a paper artifact — this benchmark freezes the sustained rate at
which the exhaustive design-space exploration (:mod:`repro.design.dse`)
pushes configurations through the analytic evaluation path, over the
whole default keyspace, in two regimes:

- **cold** (no result cache) — every point builds its accelerator,
  prices the closed-form layer events and finalizes through the
  memory-hierarchy/energy pipeline; this is the rate that bounds how
  large a space one host can sweep, so a regression here (a slow
  constructor, an accidental functional-tier dispatch, a pool fan-out
  of sub-millisecond tasks) directly shrinks explorable spaces;
- **warm** (result cache primed by an identical sweep) — the re-run
  regime; must hit the cache on >90% of lookups.

Both regimes record ``extra_info.configs_per_s``;
``tools/check_bench_regression.py`` prefers that metric for these
records, so the nightly gate fails on a >10% throughput drop. ``jobs``
is pinned to 1: per-point analytic evaluation is sub-millisecond, so a
process-pool fan-out would benchmark pickling overhead, not the engine
(``make nightly`` exports ``REPRO_JOBS=0``, which must not leak in
here).
"""

import time

from repro.design.dse import DSEAxes, DSESpace, run_dse
from repro.eval.resultcache import ResultCache

#: The full default keyspace (2,712 points).
AXES = DSEAxes()


def _timed_sweep(benchmark, scenario, result_cache):
    wallclock = {}

    def body():
        start = time.perf_counter()
        artifact = run_dse(AXES, jobs=1, result_cache=result_cache)
        wallclock["s"] = time.perf_counter() - start
        return artifact

    artifact = benchmark.pedantic(body, rounds=1, iterations=1)
    evaluated = len(artifact["evaluations"])
    assert evaluated == len(DSESpace(AXES)), \
        f"sweep covered {evaluated} points, not the whole space"
    assert artifact["frontier"], "sweep produced no Pareto frontier"
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["configs_evaluated"] = evaluated
    benchmark.extra_info["wallclock_s"] = round(wallclock["s"], 4)
    benchmark.extra_info["configs_per_s"] = round(
        evaluated / wallclock["s"], 2)
    return artifact


def test_bench_dse_analytic_cold(benchmark):
    _timed_sweep(benchmark, "cold", result_cache=None)


def test_bench_dse_analytic_warm(benchmark, tmp_path):
    cache = ResultCache(tmp_path / "results")
    run_dse(AXES, jobs=1, result_cache=cache)  # prime (untimed)
    cache.hits = cache.misses = 0
    artifact = _timed_sweep(benchmark, "warm", result_cache=cache)
    meta = artifact["meta"]["cache"]
    benchmark.extra_info["cache_hit_rate"] = round(meta["hit_rate"], 4)
    assert meta["hit_rate"] > 0.90, \
        f"warm re-sweep hit rate {meta['hit_rate']:.1%} <= 90%"
