"""The exhaustive design-space exploration (:mod:`repro.design.dse`).

Pinned here:

- the full default keyspace: 2,712 evaluations, bit-pinned by digest,
  and its 4-point (energy, cycles, area) Pareto frontier;
- the frontier of a restricted axes slice, by uid and objectives;
- the one frontier equals a loop oracle, keeps exact ties and ignores
  input order on both objective sets (the DSE's and Sec. 7's);
- an analytic sweep calls the closed forms directly: it never touches
  the layer runner or the result cache;
- the analytic array pass equals each point's scalar
  ``build().run_layer(layer())`` exactly (``==``, no tolerance): on the
  whole default keyspace, on a Hypothesis-sampled widened space and on
  named corners of the memory model;
- bad axes and bad points are rejected up front with ``ValueError``;
- points and rows (named tuples) are immutable and survive ``copy``,
  ``pickle`` and the artifact's dict form;
- a traced sweep shows one ``dse`` span per priced (style, tech) pass
  and one per stage around them;
- a warm functional re-sweep hits the result cache on > 90% of lookups.
"""

import copy
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.dse import (
    DSE_OBJECTIVES,
    SEC7_OBJECTIVES,
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    _evaluation as flatten_layer_result,
    evaluate_points,
    pareto_frontier,
    pareto_frontier_3d,
    render_artifact,
    run_dse,
)
from repro.design.space import DesignPoint
from repro.energy.tech import TECH_NODES
from repro.eval import runner
from repro.eval.resultcache import ResultCache
from repro.obs import trace as obs_trace
from repro.obs.summarize import load_trace_events, summarize_trace

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

    @pytest.mark.parametrize("axes", [
        {"techs": ("7nm",)},
        {"sram_mb": (float("inf"),)},
        {"sram_mb": (float("nan"),)},
        {"dram_gbps": (None, float("inf"))},
        {"dram_gbps": (float("nan"),)},
    ])
    def test_unknown_tech_and_non_finite_values_rejected(self, axes):
        with pytest.raises(ValueError):
            DSEAxes(**axes)

    @pytest.mark.parametrize("name, values", [
        ("sram_mb", (2.5, 2.5000001)),
        ("dram_gbps", (None, 8.0, 8.0000001)),
    ])
    def test_values_spelled_alike_rejected(self, name, values):
        """Distinct values a uid spells alike (6 significant digits)
        would collide in the artifact; the error names both."""
        with pytest.raises(ValueError, match=rf"{name} values "
                           rf"{values[-2]!r} and {values[-1]!r}"):
            DSEAxes(**{name: values})

    def test_roundtrips_through_dict(self):
        """The artifact's ``space.axes`` records every axis losslessly."""
        axes = DSEAxes(dram_gbps=(None, 8.0), techs=("16nm", "65nm"))
        assert DSEAxes(**{name: tuple(values) for name, values
                          in axes.as_dict().items()}) == axes


class TestSpace:
    def test_default_space_is_thousands_of_points(self):
        assert len(DSESpace()) >= 2000

    def test_points_equal_directly_constructed_points(self):
        """The space assembles its points without DSEPoint's checks;
        each equals, and spells the uid of, the validated point."""
        axes = DSEAxes(weight_nnz=(2, 8), a_nnz=(3,), sram_mb=(0.25, 5.0),
                       dram_gbps=(None, 0.5), techs=("16nm", "65nm"))
        for point in DSESpace(axes).points:
            built = DSEPoint(point.design, a_nnz=point.a_nnz,
                             sram_mb=point.sram_mb,
                             dram_gbps=point.dram_gbps, tech=point.tech)
            assert point == built
            assert point.uid == built.uid

    def test_enumeration_is_deterministic(self):
        first = [p.uid for p in DSESpace(SMALL).points]
        second = [p.uid for p in DSESpace(SMALL).points]
        assert first == second
        assert len(first) == len(set(first))


def _evaluation(tag, energy, cycles, area, power=1.0):
    return DSEEvaluation(
        uid=f"p{tag}", notation=f"n{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None,
        tech="16nm", power_mw=float(power), area_mm2=float(area),
        cycles=int(cycles), energy_uj=float(energy))


def _dominates(a, b):
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def _loop_frontier(evaluations, objectives=DSE_OBJECTIVES):
    """The frontier as a sequential filter over the ranked points, one
    dominance test per kept point: the oracle of the numpy rank."""
    def values(entry):
        return tuple(getattr(entry, name) for name in objectives)

    ranked = sorted(evaluations, key=lambda e: (values(e), e.uid))
    frontier = []
    for entry in ranked:
        if any(_dominates(values(kept), values(entry))
               for kept in frontier):
            continue
        frontier = [kept for kept in frontier
                    if not _dominates(values(entry), values(kept))]
        frontier.append(entry)
    return sorted(frontier, key=lambda e: (values(e), e.uid))


#: Both objective sets of the one frontier: the DSE's and Sec. 7's.
_OBJECTIVE_SETS = (DSE_OBJECTIVES, SEC7_OBJECTIVES)

#: Few distinct values per objective, so exact ties are common.
_tied_objectives = st.lists(
    st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.0]),
              st.integers(8, 11),
              st.sampled_from([1.0, 2.0, 3.0]),
              st.sampled_from([1.0, 2.0, 3.0])),
    max_size=40)


class TestParetoFrontier3D:
    @given(objectives=_tied_objectives)
    @settings(max_examples=200, deadline=None)
    def test_equals_loop_oracle(self, objectives):
        evals = [_evaluation(i, *obj) for i, obj in enumerate(objectives)]
        assert pareto_frontier_3d(evals) == _loop_frontier(evals)
        for names in _OBJECTIVE_SETS:
            frontier = pareto_frontier(evals, names)
            assert frontier == _loop_frontier(evals, names)
            # Objective-tied rows survive or fall together.
            kept = {tuple(getattr(e, n) for n in names) for e in frontier}
            assert [e for e in evals
                    if tuple(getattr(e, n) for n in names) in kept] == [
                e for e in evals if e in frontier]

    def test_empty(self):
        assert pareto_frontier_3d([]) == []

    def test_full_keyspace_equals_loop_oracle(self):
        evals = list(evaluate_points(DSESpace().points).values())
        assert pareto_frontier_3d(evals) == _loop_frontier(evals)

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
        # The same on (power, area), ranked by objectives, then uid.
        tied_a = _evaluation(1, 1.0, 10, 2.0, power=100.0)
        tied_b = _evaluation(2, 9.0, 90, 2.0, power=100.0)
        dominated = _evaluation(3, 0.1, 1, 3.0, power=200.0)
        tradeoff = _evaluation(4, 1.0, 10, 5.0, power=50.0)
        frontier = pareto_frontier(
            [dominated, tied_b, tradeoff, tied_a], SEC7_OBJECTIVES)
        assert [e.uid for e in frontier] == ["p4", "p1", "p2"]

    def test_order_independent(self):
        rnd = random.Random(7)
        evals = [_evaluation(i, rnd.choice([1.0, 2.0, 3.0]),
                             rnd.choice([10, 20, 30]),
                             rnd.choice([1.0, 2.0]),
                             rnd.choice([100.0, 200.0, 300.0]))
                 for i in range(30)]
        references = [pareto_frontier(evals, names)
                      for names in _OBJECTIVE_SETS]
        assert references[0] == pareto_frontier_3d(evals)
        for _ in range(10):
            rnd.shuffle(evals)
            assert pareto_frontier_3d(evals) == references[0]
            assert [pareto_frontier(evals, names)
                    for names in _OBJECTIVE_SETS] == references


class TestRunDSE:
    def test_pinned_stable_frontier(self):
        """One frontier point on the SMALL slice: the paper's 8x4x4_8x8
        at the tightest A-DBB bound — pinned exactly (uid) and
        numerically (objectives)."""
        artifact = run_dse(SMALL)
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
        artifact = run_dse()
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

    def test_artifact_json_equals_a_deep_asdict_build(self):
        """``as_dict`` is a shallow field copy: the artifact's JSON is
        byte-identical (values and key order) to one whose rows are
        deep copies built field by field, in ``DSEEvaluation._fields``
        order."""
        artifact = run_dse()
        evaluations = evaluate_points(DSESpace().points)
        deep = dict(artifact, evaluations=[
            {name: copy.deepcopy(getattr(evaluations[uid], name))
             for name in DSEEvaluation._fields}
            for uid in sorted(evaluations)])
        assert json.dumps(artifact) == json.dumps(deep)

    def test_artifact_records_the_space(self):
        artifact = run_dse(SMALL, fidelity="analytic", seed=3)
        assert set(artifact) == {"artifact", "space", "evaluations",
                                 "frontier"}
        assert artifact["space"] == {
            "axes": SMALL.as_dict(), "fidelity": "analytic", "seed": 3,
            "points": 114}
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
        cold = run_dse(SMALL, fidelity="functional", result_cache=cache)
        assert len(cold["evaluations"]) == 114
        cache.hits = cache.misses = 0
        warm = run_dse(SMALL, fidelity="functional", result_cache=cache)
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
                                     result_cache=cache)[point.uid]
        analytic = evaluate_points([point], fidelity="analytic",
                                   result_cache=cache)[point.uid]
        assert functional.cycles > 0 and analytic.cycles > 0
        # Only the cycle simulation is cached; analytic points never are.
        assert cache.puts == 1
        assert len(cache.log_path.read_bytes().split()) == 1

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
        artifact = run_dse(SMALL)
        text = render_artifact(artifact, top=5).render()
        assert "8x4x4_8x8" in text
        assert "Pareto frontier" in text
        assert "114 points in the space" in text




#: The paper's time-unrolled 8x4x4_8x8 design point.
PAPER_TU = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8)


class TestPointValidation:
    @pytest.mark.parametrize("knobs", [
        {"a_nnz": 0}, {"a_nnz": 9},
        {"sram_mb": 0.0}, {"sram_mb": -1.0},
        {"sram_mb": float("inf")}, {"sram_mb": float("nan")},
        {"dram_gbps": 0.0}, {"dram_gbps": -8.0},
        {"dram_gbps": float("inf")}, {"dram_gbps": float("nan")},
        {"tech": "7nm"},
    ])
    def test_bad_knob_rejected(self, knobs):
        """A-DBB 0 used to be priced as A-DBB 1 under uid ``a0``."""
        with pytest.raises(ValueError):
            DSEPoint(PAPER_TU, **knobs)

    @pytest.mark.parametrize("design", [
        DesignPoint(tpe_a=8, tpe_c=4, rows=0, cols=8),
        DesignPoint(tpe_a=8, tpe_c=0, rows=8, cols=8),
        # Its MAC count would overflow the array pass's int64 columns.
        DesignPoint(tpe_a=8, tpe_c=4, rows=2 ** 32, cols=2 ** 32),
        DesignPoint(tpe_a=2 ** 20, tpe_c=2 ** 20, rows=2 ** 20,
                    cols=2 ** 20),
        # One past the largest accepted product, on each dim.
        DesignPoint(tpe_a=2 ** 40 + 1, tpe_c=1, rows=1, cols=1),
        DesignPoint(tpe_a=1, tpe_c=2 ** 40 + 1, rows=1, cols=1),
        DesignPoint(tpe_a=1, tpe_c=1, rows=2 ** 40 + 1, cols=1),
        DesignPoint(tpe_a=1, tpe_c=1, rows=1, cols=2 ** 40 + 1),
        DesignPoint(tpe_a=3, tpe_c=1, rows=2 ** 20, cols=2 ** 19),
        DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8, weight_nnz=9),
    ])
    def test_bad_design_rejected(self, design):
        with pytest.raises(ValueError):
            DSEPoint(design)


class TestRecords:
    """Points and rows are named tuples: immutable, and they survive
    ``copy``, ``pickle`` and the artifact's dict form."""

    POINT = DSEPoint(PAPER_TU, a_nnz=2, sram_mb=1.25, dram_gbps=8.0,
                     tech="65nm")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value)),
    ])
    def test_point_and_row_round_trip(self, clone):
        row = evaluate_points([self.POINT])[self.POINT.uid]
        for value in (self.POINT, row):
            cloned = clone(value)
            assert type(cloned) is type(value)
            assert cloned == value
        assert clone(self.POINT).uid == "8x4x4_8x8.tu.a2.s1.25.bw8.65nm"

    @pytest.mark.parametrize("name", [*DSEPoint._fields, "other"])
    def test_point_attributes_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.POINT, name, 3)

    def test_uid_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            DSEPoint(PAPER_TU, uid="p0")

    def test_replace_validates_and_respells(self):
        point = self.POINT._replace(a_nnz=4)
        assert point == DSEPoint(PAPER_TU, a_nnz=4, sram_mb=1.25,
                                 dram_gbps=8.0, tech="65nm")
        assert point.uid == "8x4x4_8x8.tu.a4.s1.25.bw8.65nm"
        with pytest.raises(ValueError):
            self.POINT._replace(a_nnz=0)

    def test_rows_round_trip_through_dicts(self):
        evaluations = evaluate_points(DSESpace(SMALL).points)
        assert len(evaluations) == 114
        for row in evaluations.values():
            assert DSEEvaluation.from_dict(row.as_dict()) == row


def _scalar_evaluation(point):
    """The oracle: one scalar accelerator and ``run_layer`` per point."""
    accel = point.build()
    return flatten_layer_result(point, accel,
                                accel.run_layer(point.layer()))


def _assert_matches_scalar(points):
    evaluations = evaluate_points(points)
    expected = {point.uid: _scalar_evaluation(point) for point in points}
    assert list(evaluations) == list(expected)
    for uid, evaluation in expected.items():
        assert evaluations[uid] == evaluation
        assert type(evaluations[uid].cycles) is int
        assert type(evaluations[uid].energy_uj) is float
        assert type(evaluations[uid].power_mw) is float
        assert type(evaluations[uid].area_mm2) is float


@st.composite
def _point_lists(draw):
    """Lists of points over a few (style, B, A, tech, bandwidth)
    groups, so groups hold many geometries. Geometry is any TPE and
    grid dims, not only the MAC-budget designs, and repeats are
    likely (a repeated uid must keep its first position)."""
    groups = draw(st.lists(
        st.tuples(st.booleans(), st.integers(1, 8), st.integers(1, 8),
                  st.sampled_from(sorted(TECH_NODES)),
                  st.sampled_from((None, 0.5, 8.0, 1e4))),
        min_size=1, max_size=3))
    tpe = st.sampled_from((1, 2, 4, 8, 16))
    grid = st.sampled_from((1, 2, 4, 8, 16, 32, 64, 128))
    sram = st.one_of(st.sampled_from((0.25, 1.25, 2.5, 64.0)),
                     st.floats(0.25, 64.0))

    def point(group, tpe_a, tpe_c, rows, cols, sram_mb):
        time_unrolled, weight_nnz, a_nnz, tech, dram_gbps = group
        design = DesignPoint(tpe_a=tpe_a, tpe_c=tpe_c, rows=rows,
                             cols=cols, time_unrolled=time_unrolled,
                             weight_nnz=weight_nnz)
        return DSEPoint(design, a_nnz=a_nnz, sram_mb=sram_mb,
                        dram_gbps=dram_gbps, tech=tech)

    return draw(st.lists(
        st.builds(point, st.sampled_from(groups), tpe, tpe, grid, grid,
                  sram),
        min_size=1, max_size=40))


def _restreamed(point):
    """(weights, activations) re-streamed by the scalar memory model:
    whether each operand's DRAM bytes exceed one pass."""
    accel = point.build()
    layer = point.layer()
    traffic = accel.layer_traffic(layer, accel._layer_events(layer)[1])
    memory = accel.run_layer(layer).memory
    assert not memory.weights_resident and not memory.acts_resident
    return (memory.weight_bytes + memory.weight_meta_bytes
            > traffic.weights.stored_bytes,
            memory.act_bytes + memory.act_meta_bytes
            > traffic.acts.stored_bytes)


class TestArrayPassEqualsScalar:
    """The analytic sweep prices each group of points as arrays; every
    evaluation equals the scalar ``run_layer`` path exactly."""

    def test_full_default_keyspace(self):
        _assert_matches_scalar(DSESpace().points)

    def test_passes_spanning_groups(self):
        """Each (style, tech) pass spans groups that differ in B, A-DBB
        and DRAM bandwidth (the default channel, a memory-bound 0.5 and
        8 GB/s); two techs give two passes per style."""
        axes = DSEAxes(weight_nnz=(2, 4, 8), a_nnz=(2, 8),
                       sram_mb=(0.25, 2.5), dram_gbps=(None, 0.5, 8.0),
                       techs=("16nm", "65nm"))
        _assert_matches_scalar(DSESpace(axes).points)

    @given(_point_lists())
    @settings(max_examples=60, deadline=None)
    def test_widened_space(self, points):
        _assert_matches_scalar(points)

    def test_largest_accepted_points(self):
        """The largest accepted dim product, on each dim alone and split
        over two: the array pass still equals the scalar path (which
        counts in unbounded Python ints), so no int64 column wrapped."""
        shapes = [(2 ** 40, 1, 1, 1), (1, 2 ** 40, 1, 1),
                  (1, 1, 2 ** 40, 1), (1, 1, 1, 2 ** 40),
                  (2 ** 20, 1, 1, 2 ** 20), (1, 2 ** 20, 2 ** 20, 1)]
        points = [DSEPoint(DesignPoint(*shape, time_unrolled=style,
                                       weight_nnz=8), a_nnz=a_nnz)
                  for shape in shapes for style in (True, False)
                  for a_nnz in (2, 8)]
        _assert_matches_scalar(points)
        largest = max(max(vars(result.events).values())
                      for result in (p.build().run_layer(p.layer())
                                     for p in points))
        assert 2 ** 61 < largest < 2 ** 62

    def test_weights_restream_when_both_overflow(self):
        point = DSEPoint(DesignPoint(tpe_a=4, tpe_c=2, rows=32, cols=8,
                                     weight_nnz=2),
                         a_nnz=8, sram_mb=0.25)
        assert _restreamed(point) == (True, False)
        _assert_matches_scalar([point])

    def test_acts_restream_when_both_overflow(self):
        point = DSEPoint(DesignPoint(tpe_a=1, tpe_c=1, rows=32, cols=64,
                                     weight_nnz=2),
                         a_nnz=2, sram_mb=0.25)
        assert _restreamed(point) == (False, True)
        _assert_matches_scalar([point])

    def test_memory_bound_point(self):
        point = DSEPoint(PAPER_TU, a_nnz=2, sram_mb=0.25, dram_gbps=0.5)
        result = point.build().run_layer(point.layer())
        assert result.cycles > result.compute_cycles
        _assert_matches_scalar([point])

    def test_dense_weights_and_activation_bypass(self):
        """B = 8 (uncompressed weight blocks) on both datapath styles,
        and A = 8 (the DAP bypass)."""
        dot_product = DesignPoint(tpe_a=4, tpe_c=4, rows=4, cols=4,
                                  time_unrolled=False, weight_nnz=8)
        time_unrolled = DesignPoint(tpe_a=8, tpe_c=4, rows=8, cols=8,
                                    weight_nnz=8)
        _assert_matches_scalar([DSEPoint(dot_product, a_nnz=4),
                                DSEPoint(time_unrolled, a_nnz=4),
                                DSEPoint(PAPER_TU, a_nnz=8)])

    def test_repeated_uid_keeps_first_position_and_last_value(self):
        first = DSEPoint(PAPER_TU, a_nnz=4, sram_mb=2.5)
        other = DSEPoint(PAPER_TU, a_nnz=2, sram_mb=2.5)
        # Same uid (sizes print with 6 significant digits), other area.
        again = DSEPoint(PAPER_TU, a_nnz=4, sram_mb=2.5000001)
        assert again.uid == first.uid
        evaluations = evaluate_points([first, other, again])
        assert list(evaluations) == [first.uid, other.uid]
        assert evaluations[first.uid] == _scalar_evaluation(again)


class TestTrace:
    def test_one_span_per_priced_pass(self, tmp_path):
        """One ``dse`` span per (style, tech) pass, each over its two
        (B, A-DBB, bandwidth) groups."""
        axes = DSEAxes(weight_nnz=(4,), a_nnz=(2, 4), sram_mb=(2.5,),
                       techs=("16nm", "65nm"))
        obs_trace.start_tracing(tmp_path / "dse.json")
        try:
            run_dse(axes)
        finally:
            path = obs_trace.stop_tracing()
        spans = [event for event in load_trace_events(path)
                 if event["cat"] == "dse" and event["ph"] == "B"]
        stages = ["space", "groups", "rows", "frontier", "artifact"]
        assert [event["name"] for event in spans
                if event["name"] in stages] == stages
        points = len(DSESpace(axes))
        for event in spans:
            if event["name"] in ("groups", "rows", "frontier"):
                assert event["args"]["points"] == points
        passes = [event for event in spans if event["name"] not in stages]
        assert len(passes) == 4
        assert sorted((event["name"], event["args"]["style"],
                       event["args"]["tech"], event["args"]["groups"])
                      for event in passes) == [
            ("dp.16nm", "dp", "16nm", 2), ("dp.65nm", "dp", "65nm", 2),
            ("tu.16nm", "tu", "16nm", 2), ("tu.65nm", "tu", "65nm", 2)]
        assert sum(event["args"]["points"] for event in passes) == points
        assert summarize_trace(path)["coverage"] >= 0.9
