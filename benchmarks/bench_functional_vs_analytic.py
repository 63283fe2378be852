"""Cross-validation benchmark: functional simulation vs analytic models.

Runs every AlexNet conv layer on both fidelity tiers for the whole
comparison set — the five systolic-family accelerators *and* the three
fixed-dataflow baselines (SparTen, Eyeriss v2, SCNN) — and reports the
per-layer deltas in cycles, fired MACs and energy. The saved table is
the evidence that the analytic fast path tracks the functional ground
truth; the per-model agreement contract lives in
``repro.eval.experiments.XVAL_CONTRACT`` (SRAM bytes and
per-operand-class DRAM bytes exact, fired MACs within a fraction of a
percent, energy within a few percent; cycles bit-equal for the systolic
modes, statistically bounded for SMT/SparTen/Eyeriss v2, and reported
unenforced for SCNN whose multiplier fragmentation is emergent) and is
enforced here through ``result.failures``.
"""

from repro.eval import fig11_full_models, xval_functional_vs_analytic

# Systolic structural checks on top of the shared contract.
SMT_CYCLES_TOL = 0.10  # queueing speedup looked up at measured densities
BASELINES = ("SparTen", "Eyeriss-v2", "SCNN")


def test_bench_xval_alexnet(benchmark, save_result):
    result = benchmark(xval_functional_vs_analytic, "alexnet")
    save_result(result)
    # The per-model contract (fired/energy/cycles/exactness bounds) is
    # evaluated by the runner itself; a clean run reports no failures.
    assert not result.failures, result.failures
    worst_smt_cycles = worst_fired = worst_energy = 0.0
    for name, layer, d_cycles, d_fired, d_energy, sram, slots, dram, cyc \
            in result.rows:
        assert sram == "yes", f"{name}/{layer}: SRAM bytes diverged"
        assert dram == "yes", f"{name}/{layer}: DRAM bytes diverged"
        if name.startswith("SMT"):  # SMT slots/cycles are queueing-derived
            worst_smt_cycles = max(worst_smt_cycles, abs(d_cycles) / 100)
        elif name not in BASELINES:
            assert slots == "yes", f"{name}/{layer}: MAC slots diverged"
            # unified skew convention: bit-equal, not just within rounding
            assert cyc == "yes", f"{name}/{layer}: cycle models diverged"
        worst_fired = max(worst_fired, abs(d_fired) / 100)
        worst_energy = max(worst_energy, abs(d_energy) / 100)
    benchmark.extra_info["worst_smt_cycles_delta"] = worst_smt_cycles
    benchmark.extra_info["worst_fired_delta"] = worst_fired
    benchmark.extra_info["worst_energy_delta"] = worst_energy
    assert worst_smt_cycles < SMT_CYCLES_TOL


def test_bench_fig11_functional(benchmark, median_rounds, save_result):
    """Full-size functional Fig. 11 reproduces the analytic headlines."""
    result, _ = median_rounds(lambda: fig11_full_models(functional=True))
    save_result(result)
    analytic = fig11_full_models()
    fun_avg = result.row("average")
    ana_avg = analytic.row("average")
    benchmark.extra_info["functional_aw_energy_x"] = fun_avg[5]
    benchmark.extra_info["functional_aw_speedup_x"] = fun_avg[6]
    benchmark.extra_info["analytic_aw_energy_x"] = ana_avg[5]
    benchmark.extra_info["analytic_aw_speedup_x"] = ana_avg[6]
    # The functional migration must not move the published headline by
    # more than the cross-tier modelling differences allow.
    assert abs(fun_avg[5] - ana_avg[5]) < 0.15
    assert abs(fun_avg[6] - ana_avg[6]) < 0.25


def test_bench_fig12_functional_baselines(benchmark, median_rounds,
                                          save_result):
    """Full-size functional Fig. 12: every row is honest simulation and
    the baseline totals track the analytic pins."""
    from repro.eval import fig12_alexnet_per_layer

    result, _ = median_rounds(
        lambda: fig12_alexnet_per_layer(functional=True))
    save_result(result)
    analytic = fig12_alexnet_per_layer()
    for name in ("SparTen (45nm)", "Eyeriss v2 (65nm)", "SA-ZVCG (65nm)",
                 "S2TA-W (65nm)", "S2TA-AW (65nm)"):
        fun_total = result.row(name)[-1]
        ana_total = analytic.row(name)[-1]
        benchmark.extra_info[f"{name} functional total uJ"] = fun_total
        assert abs(fun_total - ana_total) / ana_total < 0.06, name
