"""Freeze the cost of the fault-injection harness into BENCH_*.json.

The ISSUE-10 promise, made falsifiable: **disabled fault injection is
free.** Every injection point in the hot paths (`faults.inject` around
queue claims and HTTP handling, `faults.mangle` around cache I/O) is
one module-global load plus a ``None`` check when no registry is
installed. This file measures that guard in a tight loop and records
guards per second (the regression gate's ``throughput``) plus the per-guard
nanosecond cost, then projects it against the guard count of a real
fig12 functional run to bound the whole-experiment overhead far under
any observable budget.

The *armed-but-missing* path (a registry installed, the roll misses)
is also timed into ``extra_info`` — it has no hard gate (chaos runs
are opt-in), but a silent 10x jump would surface in the BENCH diff.

Like the other benchmarks this is nightly-tier only: the filenames do
not match tier-1's ``test_*.py`` collection pattern, and ``make bench``
promotes the JSON only when ``tools/check_bench_regression.py`` passes.
"""

import time

from repro import faults

#: Guard evaluations per timing rep. Large enough that loop/timer
#: overhead amortizes below the per-guard cost being measured.
GUARDS_PER_REP = 200_000

#: Ceiling on the disabled guard, generous against CI-box noise: the
#: measured cost is ~100ns; a layer simulation behind each guard is
#: milliseconds, so even this bound keeps instrumented hot paths'
#: overhead around one part in ten thousand.
MAX_DISABLED_GUARD_NS = 3_000

#: Injection points a full-size fig12 functional run crosses (two
#: mangles per cache roundtrip for each of its 25 layer tasks, plus
#: the serve claim and HTTP guards), rounded up — the projection
#: multiplier for the <1% whole-run bound.
FIG12_GUARD_ESTIMATE = 100


def _disabled_guard_loop(n: int) -> float:
    """Seconds to evaluate ``n`` disabled ``inject`` guards."""
    inject = faults.inject
    start = time.perf_counter()
    for _ in range(n):
        inject("queue_claim", "bench")
    return time.perf_counter() - start


def _armed_miss_loop(n: int) -> float:
    """Seconds for ``n`` armed-but-missing guards: a registry is
    installed but its fault sits on another site, so every call takes
    the registry's no-fault-at-this-site exit."""
    inject = faults.inject
    start = time.perf_counter()
    for _ in range(n):
        inject("queue_claim", "bench")
    return time.perf_counter() - start


def test_bench_disabled_inject_guard(benchmark):
    faults.reset()
    assert faults.active() is None, \
        "benchmark must run with fault injection off"
    elapsed = benchmark.pedantic(
        lambda: _disabled_guard_loop(GUARDS_PER_REP),
        rounds=5, iterations=1, warmup_rounds=1)
    per_guard_ns = elapsed / GUARDS_PER_REP * 1e9
    benchmark.extra_info["throughput"] = round(GUARDS_PER_REP / elapsed)
    benchmark.extra_info["unit"] = "guards/s"
    benchmark.extra_info["disabled_guard_ns"] = round(per_guard_ns, 1)
    assert per_guard_ns < MAX_DISABLED_GUARD_NS, \
        f"disabled inject guard costs {per_guard_ns:.0f}ns"
    # The acceptance bound: projected against a real experiment's guard
    # count, disabled fault injection must stay far below 1% of even a
    # very fast (1 s) full run.
    projected_s = FIG12_GUARD_ESTIMATE * per_guard_ns / 1e9
    benchmark.extra_info["projected_fig12_overhead_s"] = round(
        projected_s, 6)
    assert projected_s < 0.01 * 1.0, \
        f"projected disabled overhead {projected_s * 1e3:.2f}ms " \
        f"exceeds 1% of a 1s experiment"

    # Armed-but-missing cost, tracked (not gated): a site with no fault
    # configured takes the first fast exit inside the registry, so a
    # chaos run does not slow the sites it leaves alone.
    faults.configure("http_error:p=1:n=1000000")
    try:
        armed = _armed_miss_loop(GUARDS_PER_REP)
    finally:
        faults.reset()
    benchmark.extra_info["armed_miss_guard_ns"] = round(
        armed / GUARDS_PER_REP * 1e9, 1)
