"""Integration tests: every experiment runner produces its artifact.

Deeper numerical assertions live in the accel tests and the benchmark
files; here we verify each artifact is well-formed and carries its key
qualitative claims.
"""

import pytest

from repro.eval import (
    fig1_energy_breakdown,
    fig3_smt_overhead,
    fig9_microbench,
    fig10_variant_breakdown,
    fig11_full_models,
    fig12_alexnet_per_layer,
    sec7_design_space,
    tbl1_buffer_per_mac,
    tbl2_s2ta_breakdown,
    tbl3_accuracy,
    tbl4_comparison,
    tbl5_summary,
)


class TestEveryArtifactRenders:
    @pytest.mark.parametrize("runner,artifact", [
        (fig1_energy_breakdown, "Figure 1"),
        (fig3_smt_overhead, "Figure 3"),
        (tbl1_buffer_per_mac, "Table 1"),
        (tbl2_s2ta_breakdown, "Table 2"),
        (fig10_variant_breakdown, "Figure 10"),
        (fig11_full_models, "Figure 11"),
        (fig12_alexnet_per_layer, "Figure 12"),
        (tbl5_summary, "Table 5"),
    ])
    def test_runs_and_renders(self, runner, artifact):
        result = runner()
        assert result.artifact == artifact
        text = result.render()
        assert artifact in text
        assert len(result.rows) >= 2
        assert all(len(row) == len(result.headers) for row in result.rows)

    @pytest.mark.parametrize("panel", ["a", "c", "d"])
    def test_fig9_panels(self, panel):
        result = fig9_microbench(panel)
        assert f"Figure 9{panel}" == result.artifact
        assert len(result.rows) == 6  # the sweep's six sparsity points

    def test_fig9_sweep_covers_the_nnz_axis(self):
        from repro.eval.experiments import SWEEP_SPARSITIES

        assert [round((1 - s) * 8) for s in SWEEP_SPARSITIES] == [
            8, 6, 4, 3, 2, 1]

    def test_fig9_invalid_panel(self):
        with pytest.raises(ValueError):
            fig9_microbench("e")
        with pytest.raises(ValueError):
            fig9_microbench("ab")

    def test_tbl4_both_nodes(self):
        for tech in ("16nm", "65nm"):
            result = tbl4_comparison(tech)
            assert tech in result.artifact
        with pytest.raises(ValueError):
            tbl4_comparison("7nm")

    def test_tbl3_quick(self):
        result = tbl3_accuracy(quick=True)
        assert len(result.rows) == 4
        # published reference rows appear in the notes
        assert any("ResNet-50V1" in note for note in result.notes)

    def test_sec7(self):
        result = sec7_design_space()
        assert len(result.rows) == 8
        assert any(row[5] for row in result.rows)  # a selected point


class TestHeadlineClaims:
    def test_fig11_average_row(self):
        result = fig11_full_models()
        average = result.row("average")
        assert 1.7 < average[5] < 2.5  # AW energy reduction
        assert 1.7 < average[6] < 2.5  # AW speedup

    def test_fig12_totals_ordering(self):
        result = fig12_alexnet_per_layer()
        totals = {row[0]: row[-1] for row in result.rows}
        assert totals["S2TA-AW (65nm)"] == min(totals.values())

    def test_fig1_buffers_dominate(self):
        result = fig1_energy_breakdown()
        shares = {row[0]: row[1] for row in result.rows}
        assert max(shares, key=shares.get).startswith("PE-array buffers")


class TestFunctionalTier:
    """The functional=True path of the full-model artifacts, at full
    layer size."""

    @pytest.mark.functional
    def test_fig12_functional(self):
        result = fig12_alexnet_per_layer(functional=True)
        assert "functional simulation" in result.title
        assert any("functional tier for every row" in note
                   for note in result.notes)
        totals = {row[0]: row[-1] for row in result.rows}
        # The ground truth reproduces the headline ordering.
        assert totals["S2TA-AW (65nm)"] == min(totals.values())
        # The baselines run their own engines (no analytic fallback);
        # measured totals track the analytic rows closely.
        analytic = fig12_alexnet_per_layer()
        for name in ("SparTen (45nm)", "Eyeriss v2 (65nm)"):
            assert totals[name] == pytest.approx(
                analytic.row(name)[-1], rel=0.05), name
        for name in ("SA-ZVCG (65nm)", "S2TA-W (65nm)", "S2TA-AW (65nm)"):
            assert totals[name] == pytest.approx(
                analytic.row(name)[-1], rel=0.06), name

    def test_dram_pj_per_byte_leaves_die_totals_pinned(self):
        """--dram-pj-per-byte re-prices only the reported off-chip
        component: every die-only Fig. 12 energy cell is bit-identical
        under a 5x DRAM-energy override."""
        default = fig12_alexnet_per_layer()
        repriced = fig12_alexnet_per_layer(dram_pj_per_byte=100.0)
        assert repriced.rows == default.rows

    def test_dram_pj_per_byte_scales_offchip_component(self):
        from repro.accel import SparTen
        from repro.eval.experiments import _costs
        from repro.models import get_spec

        layer = get_spec("alexnet").layer("conv2")
        base = SparTen().run_layer(layer)
        repriced = SparTen(costs=_costs(40.0)).run_layer(layer)
        assert repriced.breakdown.dram == pytest.approx(
            2 * base.breakdown.dram)
        assert repriced.breakdown.total_pj == pytest.approx(
            base.breakdown.total_pj)

    @pytest.mark.functional
    def test_fig11_functional_headlines(self):
        """Honest simulation of all four networks lands inside the
        paper's envelope and tracks the analytic tier."""
        result = fig11_full_models(functional=True)
        assert "functional simulation" in result.title
        average = result.row("average")
        assert average[5] == pytest.approx(2.08, abs=0.35)
        assert average[6] == pytest.approx(2.11, abs=0.40)
        for row in result.rows[:-1]:
            assert row[1] < 1.0  # SMT still worse than ZVCG on energy
        ana_avg = fig11_full_models().row("average")
        assert average[5] == pytest.approx(ana_avg[5], abs=0.15)
        assert average[6] == pytest.approx(ana_avg[6], abs=0.25)

    @pytest.mark.functional
    def test_xval_artifact(self):
        from repro.eval import xval_functional_vs_analytic

        result = xval_functional_vs_analytic()
        assert result.artifact == "Cross-validation"
        assert result.failures == []

    @pytest.mark.functional
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("model", ["resnet50", "vgg16", "mobilenet_v1"])
    def test_xval_contract_holds(self, model, seed):
        """The full-size contract holds for the other three networks
        (``test_xval_artifact`` covers AlexNet)."""
        from repro.eval import xval_functional_vs_analytic

        assert xval_functional_vs_analytic(model, seed=seed).failures == []
