"""Exhaustive design-space exploration — the Sec. 7 sweep, widened.

The paper's Sec. 7 sweep walks a few dozen ``AxBxC_MxN`` points on one
workload and picks the lowest-power design inside an area budget. This
module keeps that shape on a wider keyspace (:class:`DSESpace`: array
geometry, TPE dims, datapath style, the DBB weight bound B, the
per-layer activation DBB bound, SRAM size, DRAM bandwidth and tech
node — 2,712 points by default): enumerate every point, evaluate each
one (analytic by default, optionally functional), and take the
three-dimensional (energy, cycles, area) Pareto frontier, so
latency-optimal designs survive alongside the paper's power pick.
Sec. 7 itself is the one-value-per-axis slice :data:`SEC7_AXES` of
that keyspace, priced by the same pass, ranked by the same
:func:`pareto_frontier` on (power, area) and picked by
:func:`select_lowest_power`.

The analytic sweep prices the points as arrays, one numpy pass per
datapath style and tech node (two for the default keyspace), without a
copy of the S2TA formulas. It builds one accelerator and reference
layer per (style, B, A-DBB bound, tech node, DRAM bandwidth) group and
runs the scalar ``run_layer`` path's own closed forms (layer events,
DRAM traffic, re-stream rule, fill time, clock derate, energy, power,
area) on stand-ins of them whose geometry, DBB bounds, SRAM size and
clock are per-point columns. Those bodies evaluate on Python ints and
numpy columns alike (the ``_min``/``_max``/``_where``/``_round``
helpers of :mod:`repro.arch.events`), so each pass reproduces the
scalar path bit for bit (the scalar ``run_layer`` stays the oracle,
``tests/design/test_dse.py``). Each pass is one ``dse`` trace span.

Points (:class:`DSEPoint`) and artifact rows (:class:`DSEEvaluation`)
are named tuples, so a sweep builds them in bulk from columns with
``_make`` instead of one Python ``__init__`` per point: the space
spells each uid once per design and per axis value, the analytic sweep
zips its priced columns into rows, and :func:`pareto_frontier` ranks
objective columns. Nothing is sampled and nothing is cached;
only a functional sweep goes through the layer runner and its result
cache. ``repro dse`` is the CLI front-end, ``repro experiment sec7``
the Sec. 7 one.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.arch.memory import DRAMConfig, MemorySystem, SRAMStaging
from repro.design.space import DesignPoint, enumerate_design_space
from repro.energy.tech import TECH_NODES, get_tech
from repro.eval.tables import ExperimentResult
from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace
from repro.obs.trace import traced
from repro.workloads.typical import typical_conv_layer

__all__ = [
    "DSEAxes", "DSEPoint", "DSEEvaluation", "DSESpace", "SEC7_AXES",
    "DSE_OBJECTIVES", "SEC7_OBJECTIVES", "evaluate_points",
    "pareto_frontier", "pareto_frontier_3d",
    "select_lowest_power", "run_dse", "render_artifact",
]


def _check_knobs(dbb_bounds: Iterable[int], sram_mb: Iterable[float],
                 dram_gbps: Iterable[Optional[float]],
                 techs: Iterable[str]) -> None:
    """Reject knob values no point may take. Shared by :class:`DSEAxes`
    (every axis value) and :class:`DSEPoint` (its own values), so both
    pricing paths only ever see valid points."""
    for nnz in dbb_bounds:
        if not 1 <= nnz <= BLOCK_SIZE:
            raise ValueError(
                f"DBB bounds must be in [1, {BLOCK_SIZE}], got {nnz}")
    for size in sram_mb:
        if not (math.isfinite(size) and size > 0):
            raise ValueError(
                f"sram_mb must be finite and positive, got {size}")
    for bw in dram_gbps:
        if bw is not None and not (math.isfinite(bw) and bw > 0):
            raise ValueError(
                f"dram_gbps must be finite and positive (or None), "
                f"got {bw}")
    for tech in techs:
        if tech not in TECH_NODES:
            raise ValueError(f"unknown tech node {tech!r}; available: "
                             f"{sorted(TECH_NODES)}")


def _spell(value: Optional[float]) -> str:
    """How a uid spells an SRAM size or a DRAM bandwidth: 6 significant
    digits, ``def`` for the default channel."""
    return "def" if value is None else f"{value:g}"


def _design_tag(design: DesignPoint) -> str:
    """The design's part of a point uid: notation and datapath style."""
    return f"{design.notation}.{'tu' if design.time_unrolled else 'dp'}"


def _knob_tag(a_nnz: int, sram_mb: float, dram_gbps: Optional[float],
              tech: str) -> str:
    """The rest of a point uid, spelled from its knob values."""
    return f".a{a_nnz}.s{_spell(sram_mb)}.bw{_spell(dram_gbps)}.{tech}"


@dataclass(frozen=True)
class DSEAxes:
    """The swept axes; every tuple is one ordered axis."""

    styles: Tuple[bool, ...] = (True, False)  # time-unrolled, dot-product
    weight_nnz: Tuple[int, ...] = (2, 4, 8)   # DBB weight bound B
    a_nnz: Tuple[int, ...] = (2, 3, 4, 8)     # per-layer A-DBB bound
    sram_mb: Tuple[float, ...] = (1.25, 2.5, 5.0)
    dram_gbps: Tuple[Optional[float], ...] = (None,)  # None = default channel
    techs: Tuple[str, ...] = ("16nm",)

    def __post_init__(self):
        for name, values in self.as_dict().items():
            if not values:
                raise ValueError(f"axis {name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {name} has duplicate values")
        _check_knobs(self.weight_nnz + self.a_nnz, self.sram_mb,
                     self.dram_gbps, self.techs)
        # Distinct values that a uid spells alike would make points
        # collide in the artifact.
        for name in ("sram_mb", "dram_gbps"):
            spelled: dict = {}
            for value in getattr(self, name):
                other = spelled.setdefault(_spell(value), value)
                if other != value:
                    raise ValueError(
                        f"axis {name} values {other!r} and {value!r} "
                        f"share the uid spelling {_spell(value)!r}")

    def as_dict(self) -> dict:
        return {field.name: list(getattr(self, field.name))
                for field in dataclasses.fields(self)}


#: The paper's Sec. 7 sweep: one value per knob axis (time-unrolled,
#: B = 4, A-DBB 4, 2.5 MB SRAM, the default channel, 16 nm).
SEC7_AXES = DSEAxes(styles=(True,), weight_nnz=(4,), a_nnz=(4,),
                    sram_mb=(2.5,))


#: Largest product of a point's four dims (tpe_a·tpe_c·rows·cols). The
#: reference layer's largest event count, its MAC slots when one column
#: dim holds the whole product, is about 2**21.8 times the product, so
#: every count stays below 2**62, inside the analytic array pass's
#: int64 columns.
_MAX_DIM_PRODUCT = 2 ** 40


class _PointFields(NamedTuple):
    """:class:`DSEPoint`'s fields, in order; the subclass validates."""

    design: DesignPoint
    a_nnz: int
    sram_mb: float
    dram_gbps: Optional[float]
    tech: str
    #: Stable identity — the artifact key, spelled from the other fields.
    uid: str


class DSEPoint(_PointFields):
    """One fully-specified configuration in the DSE keyspace: a named
    tuple ``(design, a_nnz, sram_mb, dram_gbps, tech, uid)``.

    Construction takes the five knobs, rejects values no path can price
    (``ValueError``), so the analytic array pass and the scalar
    ``run_layer`` path accept and refuse the same points, and spells the
    point's ``uid``. ``DSEPoint._make`` assembles an already-validated
    point from its six fields as they are (:class:`DSESpace` does).
    """

    __slots__ = ()

    def __new__(cls, design: DesignPoint, a_nnz: int = 4,
                sram_mb: float = 2.5, dram_gbps: Optional[float] = None,
                tech: str = "16nm") -> "DSEPoint":
        dims = (design.tpe_a, design.tpe_c, design.rows, design.cols)
        if min(dims) < 1 or math.prod(dims) > _MAX_DIM_PRODUCT:
            raise ValueError(f"design dims must be >= 1 with a product of "
                             f"at most {_MAX_DIM_PRODUCT}, got "
                             f"{design.notation}")
        _check_knobs((design.weight_nnz, a_nnz), (sram_mb,), (dram_gbps,),
                     (tech,))
        return super().__new__(
            cls, design, a_nnz, sram_mb, dram_gbps, tech,
            _design_tag(design) + _knob_tag(a_nnz, sram_mb, dram_gbps, tech))

    def __getnewargs__(self) -> tuple:
        """The knobs ``__new__`` takes, so ``copy`` and ``pickle``
        rebuild (and re-spell) the point."""
        return self[:5]

    def _replace(self, **knobs) -> "DSEPoint":
        """A validated point with some knobs changed and its uid
        re-spelled."""
        return DSEPoint(**dict(zip(self._fields[:5], self), **knobs))

    def build(self):
        """Instantiate the accelerator at this point (clock derated for
        the TPE dims, SRAM resized — before the lazy memory system or
        the area model ever observe it)."""
        accel = self.design.build(tech=self.tech,
                                  dram_gbps=self.dram_gbps)
        accel.sram_mb = self.sram_mb
        accel.clock_ghz = accel.clock_ghz * self.design.clock_ghz
        return accel

    def layer(self) -> LayerSpec:
        """The reference workload, pruned to this point's DBB bounds."""
        return typical_conv_layer(
            w_density=self.design.weight_nnz / BLOCK_SIZE,
            a_density=self.a_nnz / BLOCK_SIZE)


class DSEEvaluation(NamedTuple):
    """Flattened power, performance and area of one evaluated point
    (JSON-artifact row)."""

    uid: str
    notation: str
    time_unrolled: bool
    weight_nnz: int
    a_nnz: int
    sram_mb: float
    dram_gbps: Optional[float]
    tech: str
    power_mw: float
    area_mm2: float
    cycles: int
    energy_uj: float

    @property
    def objectives(self) -> Tuple[float, int, float]:
        """(energy, cycles, area) — all minimized."""
        return (self.energy_uj, self.cycles, self.area_mm2)

    def as_dict(self) -> dict:
        """The row's fields, in declaration order (``_asdict``)."""
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "DSEEvaluation":
        return cls(**data)


def _column(records: Iterable[tuple], name: str) -> Iterable:
    """One field of every record, lazily and without a Python loop
    (``design.rows`` reaches into a point's design)."""
    return map(operator.attrgetter(name), records)


#: The DSE frontier's objectives and the Sec. 7 area-vs-power plane, as
#: row field names; every objective is minimized.
DSE_OBJECTIVES = ("energy_uj", "cycles", "area_mm2")
SEC7_OBJECTIVES = ("power_mw", "area_mm2")


def pareto_frontier(evaluations: Iterable[DSEEvaluation],
                    objectives: Sequence[str]) -> List[DSEEvaluation]:
    """Non-dominated rows on the named objective columns.

    Exact objective ties all survive, and the result — content and
    order — is a pure function of the evaluation *set*, independent of
    input order (the property tests in ``tests/design/test_dse.py``).

    Ranked by ``(objectives, uid)``, a row can only be dominated by rows
    ahead of it, so the first row still alive is on the frontier
    (anything ahead of it that beat it was itself dropped by a frontier
    row, which then beats it too). Each round keeps that row and drops
    it and every row it strictly beats in one numpy pass over the rows
    still alive. The objective columns are read without a Python loop
    over the rows.
    """
    evaluations = list(evaluations)
    if not evaluations:
        return []
    with obs_trace.span("frontier", "dse",
                        points=len(evaluations)) as span:
        # Float columns compare cycles exactly (they stay far below
        # 2**53).
        columns = [
            np.fromiter(_column(evaluations, name), float, len(evaluations))
            for name in objectives]
        # Stable sorts: uid order first, so exact objective ties keep it;
        # lexsort's last key is the first objective.
        uids = list(_column(evaluations, "uid"))
        ranked = np.array(sorted(range(len(uids)), key=uids.__getitem__),
                          dtype=np.intp)
        ranked = ranked[np.lexsort([column[ranked]
                                    for column in reversed(columns)])]
        values = np.stack(columns, axis=1)[ranked]
        frontier: List[DSEEvaluation] = []
        while len(ranked):
            row, rest = values[0], values[1:]
            frontier.append(evaluations[ranked[0]])
            alive = ~((rest >= row).all(axis=1) & (rest > row).any(axis=1))
            ranked, values = ranked[1:][alive], rest[alive]
        span.annotate(frontier=len(frontier))
    return frontier


def pareto_frontier_3d(
    evaluations: Iterable[DSEEvaluation],
) -> List[DSEEvaluation]:
    """Non-dominated rows on (energy, cycles, area): the DSE frontier."""
    return pareto_frontier(evaluations, DSE_OBJECTIVES)


def select_lowest_power(evaluations: Iterable[DSEEvaluation],
                        area_budget_mm2: float = math.inf
                        ) -> DSEEvaluation:
    """The paper's Sec. 7 selection rule: lowest power within the area
    budget.

    Power ties break toward the smaller die, then the uid (which starts
    with the notation), so the pick does not depend on enumeration
    order.
    """
    feasible = [e for e in evaluations if e.area_mm2 <= area_budget_mm2]
    if not feasible:
        raise ValueError(
            f"no design fits the {area_budget_mm2} mm^2 budget")
    return min(feasible,
               key=operator.attrgetter("power_mw", "area_mm2", "uid"))


class DSESpace:
    """The enumerated keyspace, in one deterministic order."""

    def __init__(self, axes: Optional[DSEAxes] = None):
        self.axes = axes = axes or DSEAxes()
        with obs_trace.span("space", "dse") as span:
            knobs = [(a, sram, bw, tech, _knob_tag(a, sram, bw, tech))
                     for a in axes.a_nnz
                     for sram in axes.sram_mb
                     for bw in axes.dram_gbps
                     for tech in axes.techs]
            designs = [(design, _design_tag(design))
                       for style in axes.styles
                       for nnz in axes.weight_nnz
                       for design in enumerate_design_space(
                           time_unrolled=style, weight_nnz=nnz)]
            # DSEAxes validated every knob value and spells each one
            # distinctly, and the enumerated designs are in range, so
            # each point is assembled from its parts by _make, without
            # DSEPoint's per-point checks; each uid is one concatenation
            # of spelled parts.
            make = DSEPoint._make
            self.points: List[DSEPoint] = [
                make((design, a, sram, bw, tech, tag + knob_tag))
                for design, tag in designs
                for a, sram, bw, tech, knob_tag in knobs]
            span.annotate(points=len(self.points))

    def __len__(self) -> int:
        return len(self.points)


def _power_mw(energy_pj, cycles, clock_ghz):
    """Average power of a layer run, its energy over its runtime, on
    scalars or numpy columns. Every S2TA layer takes at least one block
    pass, so ``cycles > 0``."""
    runtime_s = cycles / (clock_ghz * 1e9)
    return energy_pj * 1e-12 / runtime_s * 1e3


def _evaluation(point: DSEPoint, accel, result) -> DSEEvaluation:
    """Flatten one finalized layer result into the artifact row."""
    return DSEEvaluation(
        uid=point.uid, notation=point.design.notation,
        time_unrolled=point.design.time_unrolled,
        weight_nnz=point.design.weight_nnz, a_nnz=point.a_nnz,
        sram_mb=point.sram_mb, dram_gbps=point.dram_gbps,
        tech=point.tech,
        power_mw=_power_mw(result.energy_pj, result.cycles,
                           accel.clock_ghz),
        area_mm2=accel.area_mm2(), cycles=result.cycles,
        energy_uj=result.energy_uj)


def _stand_in(record, **columns):
    """A shallow copy of ``record`` with the named attributes set to
    per-point columns. It skips the constructor and its scalar checks,
    so the record's own properties and methods run on the columns."""
    twin = copy.copy(record)
    vars(twin).update(columns)
    return twin


def _price_pass(groups: Sequence[DSEPoint], picked: np.ndarray,
                geometry: np.ndarray, sram_mb: np.ndarray
                ) -> Tuple[np.ndarray, ...]:
    """(power mW, area mm², cycles, energy µJ) columns of points that
    share a datapath style and tech node.

    ``groups`` holds one point of each (B, A-DBB, DRAM bandwidth) group
    in the pass, ``picked`` each point's index into it, and ``geometry``
    the points' rows, cols, tpe_a and tpe_c as int64 rows. The pass runs
    the scalar path's own closed forms — ``DSEPoint.build()`` →
    ``run_layer`` → :func:`_evaluation` — on column stand-ins of the
    group's accelerator, reference layer, memory system and area model;
    only the glue between those calls is written here.
    """
    def gather(values):
        return np.array(values)[picked]

    accels = [point.build() for point in groups]
    layers = [point.layer() for point in groups]
    waived = gather([group_accel._fill_waived(group_layer)
                     for group_accel, group_layer in zip(accels, layers)])
    first = accels[0]
    # The groups' reference layers differ in their DBB bounds and
    # densities only; those fields become columns.
    layer = _stand_in(layers[0], **{
        name: gather([getattr(other, name) for other in layers])
        for name, value in vars(layers[0]).items()
        if any(getattr(other, name) != value for other in layers)})
    rows, cols, tpe_a, tpe_c = geometry
    design = _stand_in(
        groups[0].design, tpe_a=tpe_a, tpe_c=tpe_c,
        weight_nnz=gather([point.design.weight_nnz for point in groups]))
    # DSEPoint.build's clock: the node's, derated for the TPE dims.
    clock_ghz = get_tech(first.tech).clock_ghz * design.clock_ghz
    # AcceleratorModel.memory: the default channel, or an explicit
    # bandwidth at each point's own clock.
    gbps = gather([math.nan if point.dram_gbps is None else point.dram_gbps
                   for point in groups])
    dram = _stand_in(DRAMConfig(), bytes_per_cycle=np.where(
        np.isnan(gbps), DRAMConfig.bytes_per_cycle, gbps / clock_ghz))
    # The staging split of each distinct SRAM size. float64 keeps absurd
    # sizes from overflowing; it is exact below 2**53 bytes, and only
    # the residency comparisons read it.
    sizes, size_at = np.unique(sram_mb, return_inverse=True)
    stagings = [SRAMStaging.split(size, first.wb_fraction)
                for size in sizes.tolist()]
    sram = _stand_in(stagings[0], **{
        name: np.array([getattr(staging, name) for staging in stagings],
                       np.float64)[size_at]
        for name in ("wb_bytes", "ab_bytes")})
    weight_bound = "w_nnz_hw" if design.time_unrolled else "datapath_nnz"
    accel = _stand_in(first, rows=rows, cols=cols, tpe_a=tpe_a,
                      tpe_c=tpe_c, sram_mb=sram_mb, clock_ghz=clock_ghz,
                      _memory=MemorySystem(dram=dram, sram=sram),
                      **{weight_bound: design.weight_nnz})

    # run_layer: events, then _finalize_layer_body's memory profile.
    compute_cycles, events = accel._layer_events(layer)
    tiles_m, tiles_n, (w_pass, w_meta), (a_pass, a_meta) = (
        accel._pass_bytes(layer, events))
    w_streams, a_streams = accel.memory._restreams(w_pass, tiles_m,
                                                   a_pass, tiles_n)
    w_total = (w_pass - w_meta) * w_streams + w_meta * w_streams
    a_total = (a_pass - a_meta) * a_streams + a_meta * a_streams
    fill_cycles = (dram._stream_time(w_total, w_streams)
                   + dram._stream_time(a_total, a_streams))
    # Cycles ride float64 (exact integers: compute counts are far below
    # 2**53, and the fill bound is a float ceil), so int() on a row
    # raises on an infinite fill time exactly where the scalar path does.
    memory_cycles = np.where(waived, 0.0, np.ceil(fill_cycles))
    events.cycles = cycles = np.maximum(compute_cycles, memory_cycles)
    events.dram_read_bytes = w_total + a_total
    events.dram_write_bytes = layer.m * layer.n  # results; no psums
    breakdown = accel.energy_model.breakdown(events)

    # _evaluation's power and area.
    area = _stand_in(first._area_model(), macs=accel.hardware_macs,
                     buffer_bytes_per_mac=accel._buffer_bytes(tpe_a, tpe_c),
                     sram_mb=sram_mb)
    return (_power_mw(breakdown.total_pj, cycles, clock_ghz),
            area.total_mm2, cycles, breakdown.total_uj)


def _evaluate_analytic(points: Sequence[DSEPoint]
                       ) -> Dict[str, DSEEvaluation]:
    """One :func:`_price_pass` per (style, tech) over the points'
    columns, with one point per (style, B, A-DBB, tech, DRAM bandwidth)
    group to build its accelerator and layer from. Point fields are read
    as lazy columns (:func:`_column`): no transposed copy of the points
    is kept."""
    if not points:
        return {}
    n = len(points)
    with obs_trace.span("groups", "dse", points=n) as span:
        group_ids: Dict[tuple, int] = {}
        which = np.array([
            group_ids.setdefault(key, len(group_ids)) for key in zip(*(
                _column(points, name) for name in (
                    "design.time_unrolled", "tech", "design.weight_nnz",
                    "a_nnz", "dram_gbps")))])
        # Group ids count up in first-seen order: firsts[i] opens group i.
        firsts = np.unique(which, return_index=True)[1].tolist()
        passes: Dict[tuple, List[int]] = {}
        for group, key in enumerate(group_ids):
            passes.setdefault(key[:2], []).append(group)
        geometry = np.array([
            np.fromiter(_column(points, f"design.{dim}"), np.int64, n)
            for dim in ("rows", "cols", "tpe_a", "tpe_c")])
        sram = np.fromiter(_column(points, "sram_mb"), np.float64, n)
        span.annotate(groups=len(group_ids))
    columns = np.empty((4, n))
    for (time_unrolled, tech), members in passes.items():
        at = np.flatnonzero(np.isin(which, members))
        style = "tu" if time_unrolled else "dp"
        with obs_trace.span(f"{style}.{tech}", "dse", style=style,
                            tech=tech, groups=len(members),
                            points=len(at)):
            columns[:, at] = _price_pass(
                [points[firsts[group]] for group in members],
                np.searchsorted(members, which[at]),
                geometry[:, at], sram[at])
    with obs_trace.span("rows", "dse", points=n):
        power, area, cycles, energy = columns.tolist()
        uids = list(_column(points, "uid"))
        # A uid starts with its design's notation and a dot
        # (_design_tag). int() raises on an infinite fill time.
        evaluations = map(DSEEvaluation._make, zip(
            uids, [uid.partition(".")[0] for uid in uids], *(
                _column(points, name) for name in (
                    "design.time_unrolled", "design.weight_nnz", "a_nnz",
                    "sram_mb", "dram_gbps", "tech")),
            power, area, map(int, cycles), energy))
        return dict(zip(uids, evaluations))


def evaluate_points(
    points: Sequence[DSEPoint],
    fidelity: str = "analytic",
    seed: int = 0,
    result_cache=None,
) -> Dict[str, DSEEvaluation]:
    """Evaluate each point's reference workload; returns
    ``{uid: evaluation}``.

    ``fidelity="analytic"`` (default) prices the closed-form layer
    events as arrays: one numpy pass per datapath style and tech node,
    over per-point columns of each (B, A-DBB bound, DRAM bandwidth)
    group, bit-equal to each point's scalar
    ``build().run_layer(layer())``. The whole default keyspace takes
    ~6 ms on a 2-core Intel Xeon, Python 3.11, NumPy 2.4 (best of five
    in one process; ~8 ms as a fresh interpreter's first call).
    ``"functional"`` simulates synthesized operand patterns on the
    cycle simulator (``seed`` as in the full-model experiments) through
    the layer runner, then finalizes each point; ``result_cache``
    applies to that fidelity only.

    The result maps each uid to its evaluation in input order (a
    repeated uid keeps its first position and its last evaluation).
    """
    if fidelity not in ("analytic", "functional"):
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if fidelity == "analytic":
        return _evaluate_analytic(points)
    from repro.eval.runner import LayerSimTask, simulate_layer_tasks

    out: Dict[str, DSEEvaluation] = {}
    staged = [(point, point.build(), point.layer()) for point in points]
    payloads = simulate_layer_tasks(
        [LayerSimTask(accel, layer, seed=seed)
         for _, accel, layer in staged],
        result_cache=result_cache)
    for (point, accel, layer), (compute_cycles, events) in zip(staged,
                                                               payloads):
        out[point.uid] = _evaluation(
            point, accel,
            accel._finalize_layer(layer, compute_cycles, events))
    return out


@traced("dse", "experiment")
def run_dse(
    axes: Optional[DSEAxes] = None,
    fidelity: str = "analytic",
    seed: int = 0,
    result_cache=None,
) -> dict:
    """Evaluate every point of the space and return the JSON-ready
    artifact: the space definition, every evaluation (in uid order) and
    the (energy, cycles, area) Pareto frontier. ``result_cache``
    applies to ``fidelity="functional"`` only."""
    space = DSESpace(axes)
    evaluations = evaluate_points(space.points, fidelity=fidelity,
                                  seed=seed, result_cache=result_cache)
    frontier = pareto_frontier_3d(evaluations.values())
    with obs_trace.span("artifact", "dse", rows=len(evaluations)):
        return {
            "artifact": "dse",
            "space": {"axes": space.axes.as_dict(), "fidelity": fidelity,
                      "seed": seed, "points": len(space)},
            # Each row's as_dict(), without a method call per row.
            "evaluations": list(map(dict, map(
                zip, repeat(DSEEvaluation._fields),
                map(evaluations.__getitem__, sorted(evaluations))))),
            "frontier": [e.uid for e in frontier],
        }


def render_artifact(artifact: dict, top: int = 12) -> ExperimentResult:
    """Human-readable summary table of a DSE artifact."""
    evaluations = [DSEEvaluation.from_dict(row)
                   for row in artifact["evaluations"]]
    frontier_uids = set(artifact["frontier"])
    ranked = sorted(evaluations, key=lambda e: (e.objectives, e.uid))
    rows = [
        [e.notation,
         "time-unrolled" if e.time_unrolled else "dot-product",
         e.a_nnz,
         e.sram_mb,
         "default" if e.dram_gbps is None else f"{e.dram_gbps:g} GB/s",
         e.tech,
         round(e.energy_uj, 1),
         e.cycles,
         round(e.area_mm2, 2),
         round(e.power_mw, 1),
         "yes" if e.uid in frontier_uids else "no"]
        for e in ranked[:top]
    ]
    space = artifact["space"]
    notes = [
        f"{space['points']} points in the space, all evaluated "
        f"({space['fidelity']} fidelity)",
        f"(energy x cycles x area) Pareto frontier: "
        f"{len(frontier_uids)} points",
    ]
    return ExperimentResult(
        artifact="DSE",
        title="exhaustive AxBxC_MxN design-space exploration "
              "(typical conv, per-point DBB bounds)",
        headers=["design", "style", "A-DBB", "SRAM MB", "DRAM", "tech",
                 "energy uJ", "cycles", "area mm2", "power mW",
                 "frontier"],
        rows=rows,
        notes=notes,
    )
