"""The exhaustive design-space exploration (:mod:`repro.design.dse`).

Pinned here:

- the full default keyspace: 2,712 evaluations, bit-pinned by digest,
  and its 4-point (energy, cycles, area) Pareto frontier;
- the frontier of a restricted axes slice, by uid and objectives;
- an analytic sweep calls the closed forms directly: it never touches
  the layer runner or the result cache;
- a warm functional re-sweep hits the result cache on > 90% of lookups.
"""

import hashlib
import json
import random

import pytest

from repro.design.dse import (
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    evaluate_points,
    pareto_frontier_3d,
    render_artifact,
    run_dse,
)
from repro.eval import runner
from repro.eval.resultcache import ResultCache

#: A small slice of the keyspace: one style, one B, three A-DBB bounds
#: — 114 points.
SMALL = DSEAxes(styles=(True,), weight_nnz=(4,), a_nnz=(2, 4, 8),
                sram_mb=(2.5,))

#: sha256 of the uid-sorted ``as_dict()`` JSON (``sort_keys=True``) of
#: all 2,712 default-keyspace analytic evaluations, as computed when
#: every point still went through the layer runner and its result
#: cache; the direct closed-form path must reproduce it bit for bit.
FULL_KEYSPACE_SHA256 = (
    "e72a39c6d51dd45c7c9df9e93a3b4625236f025f73695286f98f8e665e764a92")


class TestAxes:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DSEAxes(a_nnz=())

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ValueError):
            DSEAxes(sram_mb=(2.5, 2.5))

    def test_dbb_bounds_validated(self):
        with pytest.raises(ValueError):
            DSEAxes(weight_nnz=(9,))
        with pytest.raises(ValueError):
            DSEAxes(a_nnz=(0,))

    def test_roundtrips_through_dict(self):
        """The artifact's ``space.axes`` records every axis losslessly."""
        axes = DSEAxes(dram_gbps=(None, 8.0), techs=("16nm", "65nm"))
        assert DSEAxes(**{name: tuple(values) for name, values
                          in axes.as_dict().items()}) == axes


class TestSpace:
    def test_default_space_is_thousands_of_points(self):
        assert len(DSESpace()) >= 2000

    def test_enumeration_is_deterministic(self):
        first = [p.uid for p in DSESpace(SMALL).points]
        second = [p.uid for p in DSESpace(SMALL).points]
        assert first == second
        assert len(first) == len(set(first))


def _evaluation(tag, energy, cycles, area):
    return DSEEvaluation(
        uid=f"p{tag}", notation=f"n{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None,
        tech="16nm", power_mw=1.0, area_mm2=float(area),
        cycles=int(cycles), energy_uj=float(energy))


class TestParetoFrontier3D:
    def test_nondominated_and_keeps_ties(self):
        tied_a = _evaluation(1, 1.0, 10, 2.0)
        tied_b = _evaluation(2, 1.0, 10, 2.0)
        dominated = _evaluation(3, 2.0, 20, 3.0)
        tradeoff = _evaluation(4, 0.5, 40, 5.0)
        frontier = pareto_frontier_3d(
            [dominated, tied_a, tradeoff, tied_b])
        uids = [e.uid for e in frontier]
        assert "p1" in uids and "p2" in uids
        assert "p3" not in uids
        assert "p4" in uids  # wins on energy, loses on cycles/area

    def test_order_independent(self):
        rnd = random.Random(7)
        evals = [_evaluation(i, rnd.choice([1.0, 2.0, 3.0]),
                             rnd.choice([10, 20, 30]),
                             rnd.choice([1.0, 2.0]))
                 for i in range(30)]
        reference = pareto_frontier_3d(evals)
        for _ in range(10):
            rnd.shuffle(evals)
            assert pareto_frontier_3d(evals) == reference


class TestRunDSE:
    def test_pinned_stable_frontier(self):
        """One frontier point on the SMALL slice: the paper's 8x4x4_8x8
        at the tightest A-DBB bound — pinned exactly (uid) and
        numerically (objectives)."""
        artifact = run_dse(SMALL, jobs=1)
        assert artifact["frontier"] == [
            "8x4x4_8x8.tu.a2.s2.5.bwdef.16nm"]
        best = next(e for e in artifact["evaluations"]
                    if e["uid"] == artifact["frontier"][0])
        assert best["cycles"] == 112924
        assert best["energy_uj"] == pytest.approx(52.7, abs=0.1)
        assert best["area_mm2"] == pytest.approx(3.70, abs=0.01)

    def test_full_keyspace_frontier_pinned(self):
        """Every point of the default keyspace is evaluated, and the
        artifact's frontier is the Pareto set of those evaluations."""
        artifact = run_dse(jobs=1)
        assert artifact["space"]["points"] == 2712
        assert len(artifact["evaluations"]) == 2712
        assert artifact["frontier"] == [
            "4x2x8_8x8.tu.a2.s1.25.bwdef.16nm",
            "8x2x4_4x16.tu.a2.s1.25.bwdef.16nm",
            "8x2x4_8x8.tu.a2.s1.25.bwdef.16nm",
            "4x2x8_4x8.dp.a2.s1.25.bwdef.16nm",
        ]
        evals = [DSEEvaluation.from_dict(e)
                 for e in artifact["evaluations"]]
        assert artifact["frontier"] == [
            e.uid for e in pareto_frontier_3d(evals)]

    def test_full_keyspace_evaluations_bit_pinned(self):
        evaluations = evaluate_points(DSESpace().points)
        rows = [evaluations[uid].as_dict() for uid in sorted(evaluations)]
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == FULL_KEYSPACE_SHA256

    def test_artifact_records_the_space(self):
        artifact = run_dse(SMALL, fidelity="analytic", seed=3, jobs=1)
        assert set(artifact) == {"artifact", "space", "evaluations",
                                 "frontier"}
        assert artifact["space"] == {
            "axes": SMALL.as_dict(), "fidelity": "analytic", "seed": 3,
            "max_m": None, "points": 114}
        uids = [e["uid"] for e in artifact["evaluations"]]
        assert uids == sorted(p.uid for p in DSESpace(SMALL).points)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_dse(SMALL, fidelity="rtl")
        with pytest.raises(ValueError):
            evaluate_points([], fidelity="rtl")


class TestResultCacheIntegration:
    def test_analytic_sweep_bypasses_runner_and_cache(self, tmp_path,
                                                      monkeypatch):
        batches = []
        real = runner.simulate_layer_tasks

        def counted(*args, **kwargs):
            batches.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate_layer_tasks", counted)
        cache = ResultCache(tmp_path / "rc")
        artifact = run_dse(SMALL, result_cache=cache)
        assert len(artifact["evaluations"]) == 114
        assert batches == []
        assert cache.hits + cache.misses == 0 and cache.puts == 0

    @pytest.mark.functional
    def test_warm_resweep_hits_cache(self, tmp_path):
        """> 90% hit rate on a functional re-sweep of the SMALL slice."""
        cache = ResultCache(tmp_path / "rc")
        cold = run_dse(SMALL, fidelity="functional", max_m=32, jobs=1,
                       result_cache=cache)
        assert len(cold["evaluations"]) == 114
        cache.hits = cache.misses = 0
        warm = run_dse(SMALL, fidelity="functional", max_m=32, jobs=1,
                       result_cache=cache)
        assert warm == cold
        assert cache.hits / (cache.hits + cache.misses) > 0.90


class TestFidelity:
    @pytest.mark.functional
    def test_functional_fidelity_runs_the_cycle_simulator(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        space = DSESpace(DSEAxes(styles=(True,), weight_nnz=(4,),
                                 a_nnz=(4,), sram_mb=(2.5,)))
        point = next(p for p in space.points
                     if p.design.notation == "8x4x4_8x8")
        functional = evaluate_points([point], fidelity="functional",
                                     max_m=32, jobs=1,
                                     result_cache=cache)[point.uid]
        analytic = evaluate_points([point], fidelity="analytic",
                                   max_m=32, jobs=1,
                                   result_cache=cache)[point.uid]
        assert functional.cycles > 0 and analytic.cycles > 0
        # Only the cycle simulation is cached; analytic points never are.
        assert len(list(cache.path.glob("*.json"))) == 1

    def test_point_build_applies_every_axis(self):
        design = next(iter(DSESpace(SMALL).points)).design
        point = DSEPoint(design=design, a_nnz=2, sram_mb=5.0,
                         dram_gbps=8.0, tech="65nm")
        accel = point.build()
        assert accel.tech == "65nm"
        assert accel.sram_mb == 5.0
        assert accel.memory.dram.bytes_per_cycle * accel.clock_ghz \
            == pytest.approx(8.0)
        layer = point.layer()
        assert layer.a_nnz == 2
        assert layer.w_nnz == design.weight_nnz


class TestRender:
    def test_render_mentions_frontier_and_counts(self):
        artifact = run_dse(SMALL, jobs=1)
        text = render_artifact(artifact, top=5).render()
        assert "8x4x4_8x8" in text
        assert "Pareto frontier" in text
        assert "114 points in the space" in text


