"""Tests for the Sec. 7 design-space exploration: the enumerated
points, and their slice of the DSE keyspace priced, ranked and picked.
The frontier's tie and order properties on (power, area) are tested
here; on every objective set against a loop oracle in ``test_dse.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import (
    SEC7_AXES,
    SEC7_OBJECTIVES,
    DesignPoint,
    DSEEvaluation,
    DSESpace,
    enumerate_design_space,
    generate_structure,
    pareto_frontier,
    select_lowest_power,
)
from repro.design.dse import evaluate_points
from repro.design.space import TARGET_MACS


class TestDesignPoint:
    def test_notation(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.notation == "8x4x4_8x8"

    def test_hardware_macs_time_unrolled(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.hardware_macs == 2048

    def test_hardware_macs_dot_product(self):
        p = DesignPoint(tpe_a=4, tpe_c=4, rows=4, cols=8,
                        time_unrolled=False)
        assert p.hardware_macs == 2048

    def test_clock_derate_for_large_tpe(self):
        paper = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        big = DesignPoint(tpe_a=16, tpe_c=16, rows=2, cols=4)
        assert paper.clock_ghz == 1.0
        assert big.clock_ghz < 1.0
        assert not big.meets_throughput

    def test_paper_point_meets_throughput(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        assert p.peak_tops == pytest.approx(4.096, rel=1e-6)
        assert p.meets_throughput


class TestEnumeration:
    def test_all_points_hit_mac_budget(self):
        points = list(enumerate_design_space())
        assert points
        assert all(p.hardware_macs == TARGET_MACS for p in points)
        assert all(p.meets_throughput for p in points)

    def test_paper_point_in_space(self):
        notations = {p.notation for p in enumerate_design_space()}
        assert "8x4x4_8x8" in notations

    def test_dot_product_space(self):
        points = list(enumerate_design_space(time_unrolled=False))
        assert all(p.hardware_macs == TARGET_MACS for p in points)
        assert "4x4x4_4x8" in {p.notation for p in points}


def _tpe(evaluation):
    """(A, C) of a row, read off its AxBxC_MxN notation."""
    a, _, c = evaluation.notation.partition("_")[0].split("x")
    return int(a), int(c)


class TestEvaluationAndSelection:
    @pytest.fixture(scope="class")
    def evaluations(self):
        return list(evaluate_points(DSESpace(SEC7_AXES).points).values())

    def test_slice_is_the_enumerated_space(self):
        assert ([p.design for p in DSESpace(SEC7_AXES).points]
                == list(enumerate_design_space()))

    def test_paper_tpe_shape_wins(self, evaluations):
        """Sec. 7: the sweep selects the time-unrolled 8x4x4 TPE (the
        paper's grid is 8x8; 4x16 evaluates within a fraction of a
        percent — see EXPERIMENTS.md)."""
        best = select_lowest_power(evaluations)
        assert _tpe(best) == (8, 4)
        assert best.time_unrolled

    def test_paper_grid_close_to_best(self, evaluations):
        """The paper's exact 8x8 grid lands within ~10% of our model's
        best 8x4x4 grid (4x16): the gap is the AB-vs-WB per-access cost
        asymmetry acting on tile reuse, see EXPERIMENTS.md."""
        best = select_lowest_power(evaluations)
        paper = next(e for e in evaluations if e.notation == "8x4x4_8x8")
        assert paper.energy_uj <= best.energy_uj * 1.12

    def test_tpe_beats_scalar_like_points(self, evaluations):
        """Bigger TPEs increase reuse: small-TPE points burn more power."""
        best = select_lowest_power(evaluations)
        small = [e for e in evaluations
                 if _tpe(e)[0] * _tpe(e)[1] <= 2]
        if small:
            assert min(e.power_mw for e in small) > best.power_mw

    def test_frontier_is_nondominated(self, evaluations):
        frontier = pareto_frontier(evaluations, SEC7_OBJECTIVES)
        assert [e.notation for e in frontier] == ["8x4x4_4x16"]
        for a in frontier:
            assert not any(
                b.power_mw <= a.power_mw and b.area_mm2 <= a.area_mm2
                and (b.power_mw, b.area_mm2) != (a.power_mw, a.area_mm2)
                for b in evaluations)

    def test_selection_respects_area_budget(self, evaluations):
        with pytest.raises(ValueError):
            select_lowest_power(evaluations, area_budget_mm2=0.1)


class TestRtlGen:
    def test_structure_contains_hierarchy(self):
        p = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)
        text = generate_structure(p)
        assert "8x4x4_8x8" in text
        assert "64x tpe" in text
        assert "32x dp1m4" in text
        assert "total hardware MACs: 2048" in text
        assert "dap_array" in text

    def test_dot_product_unit_name(self):
        p = DesignPoint(tpe_a=4, tpe_c=4, rows=4, cols=8,
                        time_unrolled=False)
        text = generate_structure(p)
        assert "dp4m8" in text
        assert "macs=4" in text

    def test_deterministic(self):
        p = DesignPoint(tpe_a=2, tpe_c=2, rows=16, cols=16)
        assert generate_structure(p) == generate_structure(p)


def _row(tag: int, power: float, area: float,
         energy: float = 1.0) -> DSEEvaluation:
    """Synthetic row with a unique uid per ``tag`` (the tiebreak key) —
    lets the selection rule be tested on exact objective values instead
    of whatever the cost model produces."""
    return DSEEvaluation(
        uid=f"p{tag:02d}", notation=f"n{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None, tech="16nm",
        power_mw=float(power), area_mm2=float(area), cycles=100,
        energy_uj=float(energy))


class TestSelectionRule:
    """The Sec. 7 rule is lowest *power* within the area budget — the
    ISSUE-7 fix (it previously minimized energy, a different ordering
    whenever designs trade runtime against draw)."""

    def test_minimizes_power_not_energy(self):
        # Lower draw but longer runtime => more energy. The paper's
        # rule picks it anyway.
        frugal = _row(1, power=100.0, area=2.0, energy=500.0)
        hasty = _row(2, power=400.0, area=2.0, energy=50.0)
        assert select_lowest_power([hasty, frugal]) == frugal

    def test_area_budget_excludes_lower_power_designs(self):
        small = _row(1, power=300.0, area=1.0)
        big = _row(2, power=100.0, area=10.0)
        assert select_lowest_power([small, big]) == big
        assert select_lowest_power([small, big],
                                   area_budget_mm2=5.0) == small

    def test_power_ties_break_toward_smaller_die(self):
        lean = _row(2, power=100.0, area=1.0)
        bulky = _row(1, power=100.0, area=2.0)
        assert select_lowest_power([bulky, lean]) == lean
        # Then toward the smaller uid, which starts with the notation.
        twin = _row(0, power=100.0, area=1.0)
        assert select_lowest_power([bulky, lean, twin]) == twin

    def test_selection_is_enumeration_order_independent(self):
        evals = [_row(i, power=100.0 + (i % 3), area=2.0 + (i % 2))
                 for i in range(8)]
        picks = {select_lowest_power(list(reversed(evals))),
                 select_lowest_power(evals),
                 select_lowest_power(sorted(evals,
                                            key=lambda p: p.area_mm2))}
        assert len(picks) == 1


class TestFrontierProperties:
    """The ranked frontier on the Sec. 7 objectives (power, area)."""

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=24),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_order_independent(self, grid, rnd):
        """The frontier — content *and* order — is a pure function of
        the evaluation set (small integer grids force plenty of exact
        objective ties)."""
        evals = [_row(i, power=p, area=a) for i, (p, a) in enumerate(grid)]
        shuffled = list(evals)
        rnd.shuffle(shuffled)
        assert (pareto_frontier(shuffled, SEC7_OBJECTIVES)
                == pareto_frontier(evals, SEC7_OBJECTIVES))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_keeps_exact_ties(self, grid):
        """Dominance requires a strict improvement, so objective-tied
        points survive or fall together — never an arbitrary winner."""
        evals = [_row(i, power=p, area=a) for i, (p, a) in enumerate(grid)]
        frontier = pareto_frontier(evals, SEC7_OBJECTIVES)
        assert frontier
        kept = {(e.power_mw, e.area_mm2) for e in frontier}
        for e in evals:
            if (e.power_mw, e.area_mm2) in kept:
                assert e in frontier
