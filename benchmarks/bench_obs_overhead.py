"""Freeze the cost of the observability layer into BENCH_*.json.

Two promises from the obs design, made falsifiable:

- **Disabled tracing is free.** Every instrumentation point in the hot
  paths is one module-global load plus a shared no-op context manager
  (:func:`repro.obs.trace.span` with no tracer installed). This file
  measures that guard in a tight loop and records spans per second (the
  regression gate's ``throughput``) plus the per-guard nanosecond cost, then
  projects it against the instrumented span count of a real fig12
  functional run to bound the whole-experiment overhead far under the
  1% acceptance budget.
- **Enabled tracing is cheap enough to leave on when needed.** A
  full-size fig12 functional run is timed back-to-back with tracing off
  and on (same seed, same cold caches, five rounds each) and both
  median wall-clocks land in ``extra_info``, so the *enabled* cost is
  tracked release over release too — it has no hard gate (it is opt-in), but a silent 10x
  jump would surface in the BENCH diff.

Like the other benchmarks this is nightly-tier only: the filenames do
not match tier-1's ``test_*.py`` collection pattern, and ``make bench``
promotes the JSON only when ``tools/check_bench_regression.py`` passes.
"""

import statistics
import time

from conftest import ROUNDS
from repro.core.gemm import clear_compress_cache
from repro.eval.experiments import fig12_alexnet_per_layer
from repro.obs import trace as obs_trace

#: Guard evaluations per timing rep. Large enough that loop/timer
#: overhead amortizes below the per-guard cost being measured.
GUARDS_PER_REP = 200_000

#: Ceiling on the disabled guard, generous against CI-box noise: the
#: measured cost is ~100ns; a layer simulation behind each guard is
#: milliseconds, so even this bound keeps instrumented hot paths'
#: overhead around one part in ten thousand.
MAX_DISABLED_SPAN_NS = 3_000

#: Spans a full-size fig12 functional run emits (5 accelerators x 5
#: layers x ~4 nested phase spans plus experiment/model/runner framing) —
#: the projection multiplier for the <1% whole-run bound.
FIG12_SPAN_ESTIMATE = 200


def _disabled_guard_loop(n: int) -> float:
    """Seconds to enter/exit ``n`` disabled spans."""
    span = obs_trace.span
    start = time.perf_counter()
    for _ in range(n):
        with span("layer", "bench"):
            pass
    return time.perf_counter() - start


def test_bench_disabled_span_guard(benchmark):
    assert not obs_trace.tracing_enabled(), \
        "benchmark must run with tracing off"
    elapsed = benchmark.pedantic(
        lambda: _disabled_guard_loop(GUARDS_PER_REP),
        rounds=5, iterations=1, warmup_rounds=1)
    per_span_ns = elapsed / GUARDS_PER_REP * 1e9
    benchmark.extra_info["throughput"] = round(GUARDS_PER_REP / elapsed)
    benchmark.extra_info["unit"] = "spans/s"
    benchmark.extra_info["disabled_span_ns"] = round(per_span_ns, 1)
    assert per_span_ns < MAX_DISABLED_SPAN_NS, \
        f"disabled span guard costs {per_span_ns:.0f}ns"
    # The acceptance bound: projected against a real experiment's span
    # count, disabled instrumentation must stay far below 1% of even a
    # very fast (1 s) full run.
    projected_s = FIG12_SPAN_ESTIMATE * per_span_ns / 1e9
    benchmark.extra_info["projected_fig12_overhead_s"] = round(
        projected_s, 6)
    assert projected_s < 0.01 * 1.0, \
        f"projected disabled overhead {projected_s * 1e3:.2f}ms " \
        f"exceeds 1% of a 1s experiment"


def _cold_fig12() -> None:
    clear_compress_cache()
    fig12_alexnet_per_layer(functional=True, seed=0, result_cache=None)


def test_bench_tracing_enabled_cost(benchmark, median_rounds, tmp_path):
    """fig12 wall-clock with tracing off vs on, same conditions (the
    median of five rounds each)."""
    untraced = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _cold_fig12()
        untraced.append(time.perf_counter() - start)
    off_s = statistics.median(untraced)

    def traced_run():
        try:
            _cold_fig12()
        finally:
            obs_trace.stop_tracing()

    _, on_s = median_rounds(
        traced_run,
        setup=lambda: obs_trace.start_tracing(tmp_path / "bench-trace.json"),
        unit="runs/s (wall-clock)")
    benchmark.extra_info["wallclock_s"] = round(on_s, 4)
    benchmark.extra_info["untraced_wallclock_s"] = round(off_s, 4)
    benchmark.extra_info["tracing_overhead_pct"] = round(
        (on_s - off_s) / off_s * 100, 2)
    assert (tmp_path / "bench-trace.json").exists(), \
        "traced run produced no artifact"
    # Loose sanity ceiling (not the disabled-path gate): per-layer
    # spans on millisecond simulations must not double the run.
    assert on_s < off_s * 2.0, \
        f"tracing enabled cost {on_s / off_s:.2f}x is pathological"
