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

The analytic sweep prices the points as arrays. Points sharing a
datapath style, B, A-DBB bound, tech node and DRAM bandwidth share one
reference layer, and within such a group only the array geometry and
the SRAM size vary; every closed form on the S2TA ``run_layer`` path
(layer events, DRAM traffic, residency, fill time, energy, power,
area) is elementwise integer or IEEE arithmetic over those columns, so
one numpy pass per group reproduces the scalar path bit for bit (the
scalar ``run_layer`` stays the oracle, ``tests/design/test_dse.py``).
Nothing is sampled and nothing is cached; only a functional sweep goes
through the layer runner and its result cache. ``repro dse`` is the
CLI front-end.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.accel.s2ta import S2TAAW, S2TAW
from repro.arch.events import EventCounts
from repro.arch.memory import DRAMConfig, SRAMStaging, window_duplication
from repro.design.space import DesignPoint, enumerate_design_space
from repro.energy.tech import TECH_NODES, get_tech
from repro.eval.tables import ExperimentResult
from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace
from repro.obs.trace import traced
from repro.workloads.typical import typical_conv_layer

__all__ = [
    "DSEAxes", "DSEPoint", "DSEEvaluation", "DSESpace",
    "evaluate_points", "pareto_frontier_3d", "run_dse", "render_artifact",
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

    def as_dict(self) -> dict:
        return {field.name: list(getattr(self, field.name))
                for field in dataclasses.fields(self)}


#: Largest TPE or grid dim of a point: it keeps every event count of
#: the reference layer inside the analytic array pass's int64 columns.
_MAX_DIM = 2 ** 20


@dataclass(frozen=True)
class DSEPoint:
    """One fully-specified configuration in the DSE keyspace.

    Construction rejects knob values no path can price (``ValueError``),
    so the analytic array pass and the scalar ``run_layer`` path accept
    and refuse the same points.
    """

    design: DesignPoint
    a_nnz: int = 4
    sram_mb: float = 2.5
    dram_gbps: Optional[float] = None
    tech: str = "16nm"

    def __post_init__(self):
        design = self.design
        dims = (design.tpe_a, design.tpe_c, design.rows, design.cols)
        if min(dims) < 1 or max(dims) > _MAX_DIM:
            raise ValueError(f"design dims must be in [1, {_MAX_DIM}], "
                             f"got {design.notation}")
        _check_knobs((design.weight_nnz, self.a_nnz),
                     (self.sram_mb,), (self.dram_gbps,), (self.tech,))

    @functools.cached_property
    def uid(self) -> str:
        """Stable identity — the artifact key."""
        style = "tu" if self.design.time_unrolled else "dp"
        bw = "def" if self.dram_gbps is None else f"{self.dram_gbps:g}"
        return (f"{self.design.notation}.{style}.a{self.a_nnz}"
                f".s{self.sram_mb:g}.bw{bw}.{self.tech}")

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


@dataclass(frozen=True)
class DSEEvaluation:
    """Flattened PPA of one evaluated point (JSON-artifact row)."""

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
        """The row's fields, in declaration order. Every field is a
        primitive, so a shallow copy is the same JSON as
        ``dataclasses.asdict`` without its per-value deep copy."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "DSEEvaluation":
        return cls(**data)


def pareto_frontier_3d(
    evaluations: Iterable[DSEEvaluation],
) -> List[DSEEvaluation]:
    """Non-dominated points on (energy, cycles, area).

    Exact objective ties all survive, and the result — content and
    order — is a pure function of the evaluation *set*, independent of
    input order (the property test in ``tests/design/test_dse.py``).

    Ranked by ``(objectives, uid)``, a point can only be dominated by
    points ahead of it, so the first point still alive is on the
    frontier (anything ahead of it that dominated it was itself dropped
    by a frontier point, which then dominates it too). Each round keeps
    that point and drops every row it strictly dominates in one numpy
    pass, so the rank costs one pass per frontier point.
    """
    ranked = sorted(evaluations, key=lambda e: (e.objectives, e.uid))
    # Float rows compare cycles exactly (they stay far below 2**53).
    objectives = np.array([e.objectives for e in ranked], dtype=float)
    alive = np.ones(len(ranked), dtype=bool)
    frontier: List[DSEEvaluation] = []
    first = 0
    while first < len(ranked):
        row = objectives[first]
        frontier.append(ranked[first])
        alive &= ~((objectives >= row).all(axis=1)
                   & (objectives > row).any(axis=1))
        later = np.flatnonzero(alive[first + 1:])
        first = first + 1 + int(later[0]) if later.size else len(ranked)
    return frontier


class DSESpace:
    """The enumerated keyspace, in one deterministic order."""

    def __init__(self, axes: Optional[DSEAxes] = None):
        self.axes = axes or DSEAxes()
        designs: List[DesignPoint] = []
        for style in self.axes.styles:
            for nnz in self.axes.weight_nnz:
                designs.extend(enumerate_design_space(
                    time_unrolled=style, weight_nnz=nnz))
        self.points: List[DSEPoint] = [
            DSEPoint(design=design, a_nnz=a, sram_mb=sram,
                     dram_gbps=bw, tech=tech)
            for design in designs
            for a in self.axes.a_nnz
            for sram in self.axes.sram_mb
            for bw in self.axes.dram_gbps
            for tech in self.axes.techs
        ]
        if len({p.uid for p in self.points}) != len(self.points):
            raise ValueError("DSE point uids collide — axes misconfigured")

    def __len__(self) -> int:
        return len(self.points)


def _evaluation(point: DSEPoint, accel, result) -> DSEEvaluation:
    """Flatten one finalized layer result into the artifact row."""
    runtime_s = result.cycles / (accel.clock_ghz * 1e9)
    power_mw = (result.energy_pj * 1e-12 / runtime_s * 1e3
                if runtime_s else 0.0)
    return DSEEvaluation(
        uid=point.uid, notation=point.design.notation,
        time_unrolled=point.design.time_unrolled,
        weight_nnz=point.design.weight_nnz, a_nnz=point.a_nnz,
        sram_mb=point.sram_mb, dram_gbps=point.dram_gbps,
        tech=point.tech, power_mw=power_mw,
        area_mm2=accel.area_mm2(), cycles=result.cycles,
        energy_uj=result.energy_uj)


class _Geometry(NamedTuple):
    """int64 columns of one group's array geometries."""

    rows: np.ndarray
    cols: np.ndarray
    tpe_a: np.ndarray
    tpe_c: np.ndarray
    eff_rows: np.ndarray
    eff_cols: np.ndarray
    tiles_m: np.ndarray
    tiles_n: np.ndarray


def _dot_product_events(accel: S2TAW, layer: LayerSpec, g: _Geometry
                        ) -> Tuple[np.ndarray, EventCounts]:
    """:meth:`S2TAW._layer_events` over geometry columns."""
    kb = math.ceil(layer.k / BLOCK_SIZE)
    passes = accel._w_passes(layer)
    nnz = accel.datapath_nnz
    tiles = g.tiles_m * g.tiles_n
    compute_cycles = tiles * kb * passes + (g.rows + g.cols - 2)
    slots = tiles * g.eff_rows * g.eff_cols * kb * passes * nnz
    fired = round(layer.macs * layer.w_density * layer.a_density)
    events = EventCounts()
    events.mac_ops = fired
    events.gated_mac_ops = np.maximum(0, slots - fired)
    events.mux_ops = layer.m * layer.n * kb * passes * nnz
    acc_slots = layer.m * layer.n * kb * passes
    acc_fired = min(acc_slots, fired)
    events.acc_reg_ops = acc_fired
    events.gated_acc_reg_ops = acc_slots - acc_fired
    a_hop_bytes = g.tiles_n * g.cols * layer.m * layer.k
    w_hop_bytes = (g.tiles_m * g.rows * layer.n * kb
                   * accel._w_block_bytes(layer))
    events.operand_reg_ops = (a_hop_bytes // np.maximum(1, g.tpe_c // 2)
                              + w_hop_bytes // g.tpe_a)
    events.sram_a_read_bytes = layer.m * layer.k * g.tiles_n
    events.sram_w_read_bytes = accel._weight_stream_bytes(layer) * g.tiles_m
    events.sram_a_write_bytes = layer.m * layer.n
    events.mcu_elementwise_ops = layer.m * layer.n
    return compute_cycles, events


def _time_unrolled_events(accel: S2TAAW, layer: LayerSpec, g: _Geometry
                          ) -> Tuple[np.ndarray, EventCounts]:
    """:meth:`S2TAAW._layer_events` over geometry columns."""
    kb = math.ceil(layer.k / BLOCK_SIZE)
    steps = accel._steps(layer)
    tiles = g.tiles_m * g.tiles_n
    compute_cycles = (tiles * kb + (g.rows + g.cols - 2)) * steps
    slots = tiles * g.eff_rows * g.eff_cols * kb * steps
    fired = np.minimum(
        round(layer.macs * layer.w_density * layer.a_density), slots)
    events = EventCounts()
    events.mac_ops = fired
    events.gated_mac_ops = slots - fired
    events.mux_ops = layer.m * layer.n * kb * steps
    acc_slots = layer.m * layer.n * kb * steps
    acc_fired = np.minimum(acc_slots, fired)
    events.acc_reg_ops = acc_fired
    events.gated_acc_reg_ops = acc_slots - acc_fired
    a_block_bytes = accel._a_block_bytes(layer)
    a_hop_bytes = g.tiles_n * g.cols * layer.m * kb * a_block_bytes
    w_hop_bytes = (g.tiles_m * g.rows * layer.n * kb
                   * accel._w_block_bytes(layer))
    a_reuse = np.minimum(g.tpe_c, accel.w_nnz_hw)
    events.operand_reg_ops = (a_hop_bytes // a_reuse
                              + w_hop_bytes // g.tpe_a)
    events.sram_a_read_bytes = layer.m * kb * a_block_bytes * g.tiles_n
    events.sram_w_read_bytes = accel._weight_stream_bytes(layer) * g.tiles_m
    events.sram_a_write_bytes = layer.m * kb * a_block_bytes
    events.mcu_elementwise_ops = layer.m * layer.n
    if steps < BLOCK_SIZE:
        events.dap_compare_ops = layer.m * kb * (BLOCK_SIZE - 1) * steps
    return compute_cycles, events


_LAYER_EVENTS = {S2TAW: _dot_product_events, S2TAAW: _time_unrolled_events}


def _stream_time(dram: DRAMConfig, logical_bytes: np.ndarray,
                 streams: np.ndarray) -> np.ndarray:
    """Bus time of :meth:`DRAMConfig._streamed` over columns. Streams
    are >= 1 here and zero bytes price to 0.0, so its early return
    needs no twin."""
    per_stream = -(-logical_bytes // streams)
    return streams * dram._transfer_time(per_stream.astype(np.float64),
                                         np.ceil)


def _price_group(points: Sequence[DSEPoint]) -> List[DSEEvaluation]:
    """Evaluate points that share (style, B, A-DBB, tech, DRAM
    bandwidth) in one pass over int64 geometry and float64 SRAM
    columns.

    Each step is the column twin of the scalar ``DSEPoint.build()`` →
    ``run_layer`` → :func:`_evaluation` path, in its operation order.
    The group's reference layer and everything that depends only on
    the group (block layouts, pass counts, the energy model) come from
    one accelerator built at the first point.
    """
    first = points[0]
    accel = first.build()
    layer = first.layer()
    rows, cols, tpe_a, tpe_c = np.array(
        [(p.design.rows, p.design.cols, p.design.tpe_a, p.design.tpe_c)
         for p in points], dtype=np.int64).T
    sram_mb = np.array([p.sram_mb for p in points], dtype=np.float64)
    eff_rows, eff_cols = rows * tpe_a, cols * tpe_c
    # math.ceil(m / eff_rows) is exact integer ceil-division here.
    g = _Geometry(rows, cols, tpe_a, tpe_c, eff_rows, eff_cols,
                  tiles_m=-(-layer.m // eff_rows),
                  tiles_n=-(-layer.n // eff_cols))
    compute_cycles, events = _LAYER_EVENTS[type(accel)](accel, layer, g)
    # DSEPoint.build's clock: the node's, derated for the TPE dims.
    clock_ghz = get_tech(first.tech).clock_ghz * (
        1.0 / (1.0 + 0.04 * np.maximum(0, tpe_a + tpe_c - 12)))

    # AcceleratorModel.layer_traffic (single-pass streams).
    w_pass = events.sram_w_read_bytes // g.tiles_m
    a_pass = -(-events.sram_a_read_bytes // g.tiles_n
               // window_duplication(layer))
    (w_pay, w_mask), (a_pay, a_mask) = accel._dram_block_layout(layer)
    w_meta = (w_pass * w_mask) // (w_pay + w_mask)
    a_meta = (a_pass * a_mask) // (a_pay + a_mask)

    # AcceleratorModel.memory's staging split. float64 keeps absurd
    # sizes from overflowing; it is exact below 2**53 bytes, and only
    # the residency comparisons below read it.
    sram_bytes = np.trunc(sram_mb * 1024 * 1024)
    wb = np.maximum(1.0, np.trunc(sram_bytes * accel.wb_fraction))
    ab = sram_bytes - wb
    if (ab < 1).any():  # SRAMStaging rejects it, with its own message
        SRAMStaging(wb_bytes=1, ab_bytes=int(ab.min()))

    # MemorySystem._profile_body: a stream's stored bytes are its pass
    # bytes; only when both operands overflow their (double-buffered)
    # halves does one re-stream, whichever moves fewer bytes. S2TA's
    # traffic has no K strip, so no partial sums spill.
    both_overflow = (w_pass > wb // 2) & (a_pass > ab // 2)
    w_restreams = (w_pass * g.tiles_m + a_pass
                   <= a_pass * g.tiles_n + w_pass)
    w_streams = np.where(both_overflow & w_restreams, g.tiles_m, 1)
    a_streams = np.where(both_overflow & ~w_restreams, g.tiles_n, 1)
    w_total = (w_pass - w_meta) * w_streams + w_meta * w_streams
    a_total = (a_pass - a_meta) * a_streams + a_meta * a_streams

    # _finalize_layer_body's cap: int(ceil(fill)) only when an explicit
    # bandwidth enforces the roofline wall (or the layer streams).
    memory_cycles = np.zeros(len(points))
    clocks, which = np.unique(clock_ghz, return_inverse=True)
    channels = [DRAMConfig() if first.dram_gbps is None
                else DRAMConfig.from_bandwidth(first.dram_gbps, float(clock))
                for clock in clocks]
    if not (channels[0].cap_streaming_only and not layer.memory_bound):
        for index, dram in enumerate(channels):
            at = which == index
            memory_cycles[at] = np.ceil(
                _stream_time(dram, w_total[at], w_streams[at])
                + _stream_time(dram, a_total[at], a_streams[at]))
    # Cycles ride float64 (exact integers: compute counts are far below
    # 2**53, and the fill bound is a float ceil), so int() below raises
    # on an infinite fill time exactly where the scalar path does.
    cycles = np.maximum(compute_cycles, memory_cycles)
    cycle_counts = [int(c) for c in cycles.tolist()]
    events.cycles = cycles
    events.dram_read_bytes = w_total + a_total
    events.dram_write_bytes = layer.m * layer.n  # results; no psums
    energy_pj = accel.energy_model.breakdown(events).total_pj

    # _evaluation's power and AreaModel.total_mm2.
    runtime_s = cycles / (clock_ghz * 1e9)
    power_mw = energy_pj * 1e-12 / runtime_s * 1e3
    macs = rows * cols * tpe_a * tpe_c
    if isinstance(accel, S2TAW):
        macs = macs * accel.datapath_nnz
    costs = accel.costs
    pe_array = macs * (costs.mac_area_um2
                       + accel._buffer_bytes(tpe_a, tpe_c)
                       * costs.buffer_area_um2_per_byte) * 1e-6
    base = (pe_array + sram_mb * costs.sram_area_mm2_per_mb
            + accel.mcus * costs.mcu_area_mm2
            + (costs.dap_area_mm2 if accel.has_dap else 0.0))
    area_mm2 = base * get_tech(first.tech).area_scale

    return [
        DSEEvaluation(
            uid=point.uid, notation=point.design.notation,
            time_unrolled=point.design.time_unrolled,
            weight_nnz=point.design.weight_nnz, a_nnz=point.a_nnz,
            sram_mb=point.sram_mb, dram_gbps=point.dram_gbps,
            tech=point.tech, power_mw=power, area_mm2=area,
            cycles=cycle, energy_uj=energy)
        for point, power, area, cycle, energy in zip(
            points, power_mw.tolist(), area_mm2.tolist(), cycle_counts,
            (energy_pj * 1e-6).tolist())
    ]


def _group_key(point: DSEPoint) -> tuple:
    return (point.design.time_unrolled, point.design.weight_nnz,
            point.a_nnz, point.tech, point.dram_gbps)


def _evaluate_analytic(points: Sequence[DSEPoint]
                       ) -> Dict[str, DSEEvaluation]:
    groups: Dict[tuple, List[int]] = {}
    for index, point in enumerate(points):
        groups.setdefault(_group_key(point), []).append(index)
    evaluations: List[Optional[DSEEvaluation]] = [None] * len(points)
    for (time_unrolled, b, a, tech, bw), indices in groups.items():
        style = "tu" if time_unrolled else "dp"
        bw = "def" if bw is None else f"{bw:g}"
        with obs_trace.span(f"{style}.B{b}.a{a}.bw{bw}.{tech}", "dse",
                            style=style, B=b, A=a, tech=tech, bw=bw,
                            points=len(indices)):
            priced = _price_group([points[i] for i in indices])
        for index, evaluation in zip(indices, priced):
            evaluations[index] = evaluation
    return {point.uid: evaluation
            for point, evaluation in zip(points, evaluations)}


def evaluate_points(
    points: Sequence[DSEPoint],
    fidelity: str = "analytic",
    seed: int = 0,
    max_m: Optional[int] = None,
    jobs: Optional[int] = None,
    result_cache=None,
) -> Dict[str, DSEEvaluation]:
    """Evaluate each point's reference workload; returns
    ``{uid: evaluation}``.

    ``fidelity="analytic"`` (default) prices the closed-form layer
    events as arrays: one numpy pass per group of points sharing a
    style, B, A-DBB bound, tech node and DRAM bandwidth, bit-equal to
    each point's scalar ``build().run_layer(layer())``. The whole
    default keyspace takes tens of milliseconds. ``"functional"``
    simulates synthesized operand patterns on the cycle simulator
    (``seed`` / ``max_m`` as in the full-model experiments) through the
    layer runner, then finalizes each point; ``jobs`` and
    ``result_cache`` apply to that fidelity only.

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
        [LayerSimTask(accel, layer, seed=seed, max_m=max_m)
         for _, accel, layer in staged],
        jobs=jobs, result_cache=result_cache)
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
    max_m: Optional[int] = None,
    jobs: Optional[int] = None,
    result_cache=None,
) -> dict:
    """Evaluate every point of the space and return the JSON-ready
    artifact: the space definition, every evaluation (in uid order) and
    the (energy, cycles, area) Pareto frontier. ``jobs`` and
    ``result_cache`` apply to ``fidelity="functional"`` only."""
    space = DSESpace(axes)
    evaluations = evaluate_points(space.points, fidelity=fidelity,
                                  seed=seed, max_m=max_m, jobs=jobs,
                                  result_cache=result_cache)
    frontier = pareto_frontier_3d(evaluations.values())
    return {
        "artifact": "dse",
        "space": {"axes": space.axes.as_dict(), "fidelity": fidelity,
                  "seed": seed, "max_m": max_m, "points": len(space)},
        "evaluations": [evaluations[uid].as_dict()
                        for uid in sorted(evaluations)],
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
