"""Golden pins of the analytic headline numbers (Fig. 11 / Fig. 12).

The functional-simulation migration turned the analytic models into the
*fast path*; these pins freeze the published analytic headline ratios to
two decimals so that refactors of either tier cannot silently shift the
numbers the reproduction reports against the paper. The functional tier
of the baseline accelerators (SparTen / Eyeriss v2 / SCNN) is pinned
too (seed-fixed full-size runs, 2 decimals) so refactors of the new engines
cannot silently drift the baselines the headline speedups are measured
against. If a change moves one of these on purpose (e.g. a calibration
fix), update the pin in the same commit and say why in its message.
"""

import pytest

from repro.eval import fig11_full_models, fig12_alexnet_per_layer

# Fig. 11 analytic S2TA-AW columns: (energy x, speedup x) vs SA-ZVCG.
FIG11_AW_GOLDEN = {
    "resnet50": (2.19, 2.28),
    "vgg16": (2.29, 2.58),
    "mobilenet_v1": (1.84, 1.62),
    "alexnet": (2.03, 2.09),
    "average": (2.09, 2.14),
}

# Fig. 11 analytic SMT-T2Q2 columns: (energy x, speedup x) vs SA-ZVCG.
# The speedups come from the SA-SMT queueing Monte Carlo, so these pin
# its seeded draws too.
FIG11_SMT_GOLDEN = {
    "resnet50": (0.83, 1.8),
    "vgg16": (0.87, 1.86),
    "mobilenet_v1": (0.74, 1.66),
    "alexnet": (0.65, 1.56),
}

# Fig. 12 analytic totals (uJ, 1 decimal) and headline ratios.
FIG12_TOTALS_GOLDEN = {
    "Eyeriss v2 (65nm)": 1519.4,
    "SparTen (45nm)": 1013.3,
    "SA-ZVCG (65nm)": 842.8,
    "S2TA-W (65nm)": 560.3,
    "S2TA-AW (65nm)": 414.7,
}
FIG12_SPARTEN_OVER_AW = 2.44
FIG12_EYERISS_OVER_AW = 3.66


class TestFig11Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_full_models()

    @pytest.mark.parametrize("model", sorted(FIG11_AW_GOLDEN))
    def test_aw_columns_pinned(self, result, model):
        energy_x, speedup_x = FIG11_AW_GOLDEN[model]
        row = result.row(model)
        assert row[5] == pytest.approx(energy_x, abs=0.005), \
            f"{model} S2TA-AW energy-x moved from the golden {energy_x}"
        assert row[6] == pytest.approx(speedup_x, abs=0.005), \
            f"{model} S2TA-AW speedup-x moved from the golden {speedup_x}"

    @pytest.mark.parametrize("model", sorted(FIG11_SMT_GOLDEN))
    def test_smt_columns_pinned(self, result, model):
        energy_x, speedup_x = FIG11_SMT_GOLDEN[model]
        row = result.row(model)
        assert row[1] == pytest.approx(energy_x, abs=0.005), \
            f"{model} SMT-T2Q2 energy-x moved from the golden {energy_x}"
        assert row[2] == pytest.approx(speedup_x, abs=0.005), \
            f"{model} SMT-T2Q2 speedup-x moved from the golden {speedup_x}"

    def test_average_tracks_paper(self, result):
        # Sanity on top of the pin: the golden values themselves must
        # stay inside the paper's published envelope.
        avg = result.row("average")
        assert avg[5] == pytest.approx(2.08, abs=0.35)
        assert avg[6] == pytest.approx(2.11, abs=0.35)


class TestFig12Golden:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_alexnet_per_layer()

    @pytest.mark.parametrize("accel", sorted(FIG12_TOTALS_GOLDEN))
    def test_totals_pinned(self, result, accel):
        row = result.row(accel)
        assert row[-1] == pytest.approx(FIG12_TOTALS_GOLDEN[accel],
                                        abs=0.05), \
            f"{accel} total energy moved from the golden value"

    def test_headline_ratios_pinned(self, result):
        totals = {row[0]: row[-1] for row in result.rows}
        aw = totals["S2TA-AW (65nm)"]
        assert round(totals["SparTen (45nm)"] / aw, 2) \
            == FIG12_SPARTEN_OVER_AW
        assert round(totals["Eyeriss v2 (65nm)"] / aw, 2) \
            == FIG12_EYERISS_OVER_AW


# Functional-tier pins for the baseline engines: per-layer energies (uJ,
# 2 decimals) of seed-0 full-size runs of the Fig. 12 conv stack.
# Deterministic end to end: seeded operand synthesis, deterministic
# greedy schedules, float64 event arithmetic.
FUNCTIONAL_BASELINE_GOLDEN = {
    "Eyeriss-v2": {"conv1": 727.36, "conv2": 385.39, "conv3": 197.24,
                   "conv4": 144.06, "conv5": 65.25},
    "SparTen": {"conv1": 482.19, "conv2": 261.12, "conv3": 130.40,
                "conv4": 95.22, "conv5": 44.33},
    "SCNN": {"conv1": 200.76, "conv2": 105.84, "conv3": 54.06,
             "conv4": 39.43, "conv5": 17.72},
}


class TestFunctionalBaselineGolden:
    """2-decimal pins of the baselines' functional per-layer table."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.accel import SCNN, EyerissV2, SparTen
        from repro.models import get_spec

        spec = get_spec("alexnet")
        return {
            accel.name: accel.run_model_functional(
                spec, conv_only=True, seed=0)
            for accel in (EyerissV2(), SparTen(), SCNN())
        }

    @pytest.mark.parametrize("name", sorted(FUNCTIONAL_BASELINE_GOLDEN))
    def test_per_layer_energies_pinned(self, runs, name):
        for layer, pinned in FUNCTIONAL_BASELINE_GOLDEN[name].items():
            got = runs[name].layer(layer).energy_uj
            assert round(got, 2) == pytest.approx(pinned, abs=0.005), \
                (f"{name}/{layer} functional energy moved from the "
                 f"golden {pinned}")

    def test_functional_tracks_analytic_pins(self, runs):
        """The pinned functional totals stay within a few percent of
        the analytic Fig. 12 pins — the two tiers tell one story."""
        analytic = {"Eyeriss-v2": FIG12_TOTALS_GOLDEN["Eyeriss v2 (65nm)"],
                    "SparTen": FIG12_TOTALS_GOLDEN["SparTen (45nm)"]}
        for name, pinned_total in analytic.items():
            total = runs[name].energy_uj
            assert total == pytest.approx(pinned_total, rel=0.02), name
