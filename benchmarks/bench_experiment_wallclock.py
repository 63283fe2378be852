"""End-to-end experiment wall-clock tracking for the functional tier.

Not a paper artifact — this benchmark freezes the wall-clock of the
full-size ``fig12 --functional`` experiment (every accelerator row as
honest simulation, no row subsampling) under the three execution
regimes of the parallel, memoized runner (:mod:`repro.eval.runner`):

- **serial cold** (``jobs=1``, no result cache) — the PR-4 baseline
  regime, and the reference the other two must beat;
- **parallel cold** (``jobs=4``, no result cache) — the process-pool
  fan-out; recorded with its worker count so multi-core hosts can gate
  the speedup honestly (a 1-core CI box records ~1x, which is why the
  4x assertion is conditional on the host's core count);
- **cached warm** (any jobs, result cache primed) — the re-run /
  overlapping-experiment regime; must be >= 4x faster than serial cold
  on any host, since it skips every simulation.

Each regime's ``extra_info.wallclock_s`` lands in ``BENCH_*.json``;
``tools/check_bench_regression.py`` diffs it (as inverse wall-clock)
alongside the kernel throughput metrics, so an experiment-level
slowdown fails the nightly gate even when per-kernel MACs/s stay flat.
The three regimes must also agree bit-for-bit — the determinism
contract of the runner, asserted here at full size (tier-1 asserts it
at quick size in ``tests/eval/test_runner.py``).
"""

import os
import time

from repro.core.gemm import clear_compress_cache
from repro.eval.experiments import fig12_alexnet_per_layer
from repro.eval.resultcache import ResultCache

PARALLEL_WORKERS = 4

_rows = {}
_wallclock = {}


def _cold_caches():
    """Reset every in-process memo so a 'cold' regime is actually cold
    (operands are synthesized per batch, so only the compression memo
    can carry over)."""
    clear_compress_cache()


def _timed(scenario, benchmark, run, **extra):
    def body():
        start = time.perf_counter()
        result = run()
        _wallclock[scenario] = time.perf_counter() - start
        return result

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    _rows[scenario] = result.rows
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["wallclock_s"] = round(_wallclock[scenario], 4)
    for key, val in extra.items():
        benchmark.extra_info[key] = val
    assert result.rows, "experiment produced no rows"


def _ensure_serial_reference():
    """The serial-cold rows/wall-clock, measured on demand — keeps the
    parallel/cached tests independent under ``-k`` selection."""
    if "serial_cold" not in _rows:
        _cold_caches()
        start = time.perf_counter()
        result = fig12_alexnet_per_layer(functional=True, seed=0,
                                         jobs=1, result_cache=None)
        _wallclock["serial_cold"] = time.perf_counter() - start
        _rows["serial_cold"] = result.rows


def test_bench_fig12_functional_serial_cold(benchmark):
    _cold_caches()
    _timed("serial_cold", benchmark,
           lambda: fig12_alexnet_per_layer(functional=True, seed=0,
                                           jobs=1, result_cache=None),
           workers=1)


def test_bench_fig12_functional_parallel_cold(benchmark):
    _ensure_serial_reference()
    _cold_caches()
    _timed("parallel_cold", benchmark,
           lambda: fig12_alexnet_per_layer(functional=True, seed=0,
                                           jobs=PARALLEL_WORKERS,
                                           result_cache=None),
           workers=PARALLEL_WORKERS,
           host_cpus=os.cpu_count() or 1)
    assert _rows["parallel_cold"] == _rows["serial_cold"], \
        "parallel run diverged from serial at the same seed"
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        # The fan-out acceptance bound; only meaningful with the cores
        # to back it (pool overhead makes it vacuous on small hosts).
        speedup = _wallclock["serial_cold"] / _wallclock["parallel_cold"]
        assert speedup >= 2.0, \
            f"parallel fan-out speedup {speedup:.2f}x on " \
            f"{os.cpu_count()} cores"


def test_bench_fig12_functional_cached_warm(benchmark, tmp_path):
    _ensure_serial_reference()
    cache = ResultCache(tmp_path / "results")
    # Prime (cold, untimed), then benchmark the warm re-run.
    fig12_alexnet_per_layer(functional=True, seed=0, jobs=1,
                            result_cache=cache)
    _timed("cached_warm", benchmark,
           lambda: fig12_alexnet_per_layer(functional=True, seed=0,
                                           jobs=1, result_cache=cache),
           workers=1)
    assert _rows["cached_warm"] == _rows["serial_cold"], \
        "cache-hit re-run diverged from the cold run"
    speedup = _wallclock["serial_cold"] / _wallclock["cached_warm"]
    benchmark.extra_info["speedup_vs_serial_cold"] = round(speedup, 2)
    assert speedup >= 4.0, \
        f"cached re-run only {speedup:.2f}x faster than serial cold"
