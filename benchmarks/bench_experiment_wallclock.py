"""End-to-end experiment wall-clock tracking for the functional tier.

Not a paper artifact — this benchmark freezes the wall-clock of the
full-size ``fig12 --functional`` experiment (every accelerator row as
honest simulation, no row subsampling) under the two regimes of the
memoized runner (:mod:`repro.eval.runner`):

- **serial cold** (no result cache) — every layer simulated, the
  reference the warm regime must beat;
- **cached warm** (result cache primed) — the re-run /
  overlapping-experiment regime; must be >= 4x faster than serial cold
  on any host, since it skips every simulation.

Each regime's inverse wall-clock lands in ``BENCH_*.json`` as
``extra_info.throughput`` (unit ``runs/s (wall-clock)``, beside the raw
``wallclock_s``); ``tools/check_bench_regression.py`` diffs it
alongside the kernel throughput metrics, so an experiment-level
slowdown fails the nightly gate even when per-kernel MACs/s stay flat.
The two regimes must also agree bit-for-bit — the determinism
contract of the runner, asserted here and in tier-1's
``tests/eval/test_runner.py``.
"""

import time

from repro.core.gemm import clear_compress_cache
from repro.eval.experiments import fig12_alexnet_per_layer
from repro.eval.resultcache import ResultCache

_rows = {}
_wallclock = {}


def _cold_caches():
    """Reset every in-process memo so a 'cold' regime is actually cold
    (operands are synthesized per batch, so only the compression memo
    can carry over)."""
    clear_compress_cache()


def _timed(scenario, benchmark, run):
    def body():
        start = time.perf_counter()
        result = run()
        _wallclock[scenario] = time.perf_counter() - start
        return result

    result = benchmark.pedantic(body, rounds=1, iterations=1)
    _rows[scenario] = result.rows
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["wallclock_s"] = round(_wallclock[scenario], 4)
    benchmark.extra_info["throughput"] = 1.0 / _wallclock[scenario]
    benchmark.extra_info["unit"] = "runs/s (wall-clock)"
    assert result.rows, "experiment produced no rows"


def _ensure_serial_reference():
    """The serial-cold rows/wall-clock, measured on demand — keeps the
    cached test independent under ``-k`` selection."""
    if "serial_cold" not in _rows:
        _cold_caches()
        start = time.perf_counter()
        result = fig12_alexnet_per_layer(functional=True, seed=0,
                                         result_cache=None)
        _wallclock["serial_cold"] = time.perf_counter() - start
        _rows["serial_cold"] = result.rows


def test_bench_fig12_functional_serial_cold(benchmark):
    _cold_caches()
    _timed("serial_cold", benchmark,
           lambda: fig12_alexnet_per_layer(functional=True, seed=0,
                                           result_cache=None))


def test_bench_fig12_functional_cached_warm(benchmark, tmp_path):
    _ensure_serial_reference()
    cache = ResultCache(tmp_path / "results")
    # Prime (cold, untimed), then benchmark the warm re-run.
    fig12_alexnet_per_layer(functional=True, seed=0, result_cache=cache)
    _timed("cached_warm", benchmark,
           lambda: fig12_alexnet_per_layer(functional=True, seed=0,
                                           result_cache=cache))
    assert _rows["cached_warm"] == _rows["serial_cold"], \
        "cache-hit re-run diverged from the cold run"
    speedup = _wallclock["serial_cold"] / _wallclock["cached_warm"]
    benchmark.extra_info["speedup_vs_serial_cold"] = round(speedup, 2)
    assert speedup >= 4.0, \
        f"cached re-run only {speedup:.2f}x faster than serial cold"
