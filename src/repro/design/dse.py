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
datapath style and tech node (two for the default keyspace). What the
scalar ``run_layer`` path reads off a point's accelerator, reference
layer and DRAM channel depends only on its (style, B, A-DBB bound,
tech node, DRAM bandwidth) group, so it is read once per group from
one accelerator and gathered into per-point columns beside the array
geometry and the SRAM size. Every closed form on the S2TA path (layer
events, DRAM traffic, residency, fill time, energy, power, area) is
elementwise integer or IEEE arithmetic over those columns, so each
pass reproduces the scalar path bit for bit (the scalar ``run_layer``
stays the oracle, ``tests/design/test_dse.py``). Each pass is one
``dse`` trace span.

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

import dataclasses
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.accel.base import AcceleratorModel
from repro.accel.s2ta import S2TAAW
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


#: Largest TPE or grid dim of a point: it keeps every event count of
#: the reference layer inside the analytic array pass's int64 columns.
_MAX_DIM = 2 ** 20


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
        if min(dims) < 1 or max(dims) > _MAX_DIM:
            raise ValueError(f"design dims must be in [1, {_MAX_DIM}], "
                             f"got {design.notation}")
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


class _Group(NamedTuple):
    """What the scalar ``run_layer`` path reads off one group's
    accelerator, reference layer and DRAM channel: everything that
    depends on (style, B, A-DBB, tech, DRAM bandwidth) but not on the
    array geometry or the SRAM size. Gathered per point, each field is
    a column of the array pass."""

    m: int
    k: int
    n: int
    kb: int                 # reduction blocks, ceil(k / BLOCK_SIZE)
    window: int             # im2col window duplication of the layer
    b: int                  # the DBB weight bound B
    steps: int              # S2TAW block passes, S2TAAW cycles per block
    fired: int              # round(macs * w_density * a_density)
    a_block_bytes: int      # S2TAAW only (0 on S2TAW)
    w_block_bytes: int
    w_stream_bytes: int
    w_pay: int              # DRAM block layouts: payload and mask bytes
    w_mask: int
    a_pay: int
    a_mask: int
    capped: bool            # the default channel's cap: no memory cycles
    per_clock: bool         # bytes_per_cycle is GB/s, per derated clock
    bytes_per_cycle: float
    burst_bytes: int
    row_bytes: int
    row_activate_cycles: float


def _group(point: DSEPoint) -> Tuple[AcceleratorModel, _Group]:
    """The accelerator built at ``point`` and its group's scalars."""
    accel = point.build()
    layer = point.layer()
    if isinstance(accel, S2TAAW):
        b, steps = accel.w_nnz_hw, accel._steps(layer)
        a_block_bytes = accel._a_block_bytes(layer)
    else:
        b, steps = accel.datapath_nnz, accel._w_passes(layer)
        a_block_bytes = 0
    (w_pay, w_mask), (a_pay, a_mask) = accel._dram_block_layout(layer)
    # At 1 GHz an explicit channel's bytes per cycle is its GB/s; the
    # pass divides it by each point's derated clock, as the lazy memory
    # system of DSEPoint.build() does.
    channel = (DRAMConfig() if point.dram_gbps is None
               else DRAMConfig.from_bandwidth(point.dram_gbps, 1.0))
    return accel, _Group(
        m=layer.m, k=layer.k, n=layer.n,
        kb=math.ceil(layer.k / BLOCK_SIZE),
        window=window_duplication(layer), b=b, steps=steps,
        fired=round(layer.macs * layer.w_density * layer.a_density),
        a_block_bytes=a_block_bytes,
        w_block_bytes=accel._w_block_bytes(layer),
        w_stream_bytes=accel._weight_stream_bytes(layer),
        w_pay=w_pay, w_mask=w_mask, a_pay=a_pay, a_mask=a_mask,
        capped=channel.cap_streaming_only and not layer.memory_bound,
        per_clock=point.dram_gbps is not None,
        bytes_per_cycle=channel.bytes_per_cycle,
        burst_bytes=channel.burst_bytes, row_bytes=channel.row_bytes,
        row_activate_cycles=channel.row_activate_cycles)


class _Geometry(NamedTuple):
    """int64 columns of the points' array geometries."""

    rows: np.ndarray
    cols: np.ndarray
    tpe_a: np.ndarray
    tpe_c: np.ndarray
    eff_rows: np.ndarray
    eff_cols: np.ndarray
    tiles_m: np.ndarray
    tiles_n: np.ndarray


def _dot_product_events(c: _Group, g: _Geometry
                        ) -> Tuple[np.ndarray, EventCounts]:
    """:meth:`S2TAW._layer_events` over columns."""
    tiles = g.tiles_m * g.tiles_n
    compute_cycles = tiles * c.kb * c.steps + (g.rows + g.cols - 2)
    slots = tiles * g.eff_rows * g.eff_cols * c.kb * c.steps * c.b
    events = EventCounts()
    events.mac_ops = c.fired
    events.gated_mac_ops = np.maximum(0, slots - c.fired)
    events.mux_ops = c.m * c.n * c.kb * c.steps * c.b
    acc_slots = c.m * c.n * c.kb * c.steps
    acc_fired = np.minimum(acc_slots, c.fired)
    events.acc_reg_ops = acc_fired
    events.gated_acc_reg_ops = acc_slots - acc_fired
    a_hop_bytes = g.tiles_n * g.cols * c.m * c.k
    w_hop_bytes = g.tiles_m * g.rows * c.n * c.kb * c.w_block_bytes
    events.operand_reg_ops = (a_hop_bytes // np.maximum(1, g.tpe_c // 2)
                              + w_hop_bytes // g.tpe_a)
    events.sram_a_read_bytes = c.m * c.k * g.tiles_n
    events.sram_w_read_bytes = c.w_stream_bytes * g.tiles_m
    events.sram_a_write_bytes = c.m * c.n
    events.mcu_elementwise_ops = c.m * c.n
    return compute_cycles, events


def _time_unrolled_events(c: _Group, g: _Geometry
                          ) -> Tuple[np.ndarray, EventCounts]:
    """:meth:`S2TAAW._layer_events` over columns."""
    tiles = g.tiles_m * g.tiles_n
    compute_cycles = (tiles * c.kb + (g.rows + g.cols - 2)) * c.steps
    slots = tiles * g.eff_rows * g.eff_cols * c.kb * c.steps
    fired = np.minimum(c.fired, slots)
    events = EventCounts()
    events.mac_ops = fired
    events.gated_mac_ops = slots - fired
    events.mux_ops = c.m * c.n * c.kb * c.steps
    acc_slots = c.m * c.n * c.kb * c.steps
    acc_fired = np.minimum(acc_slots, fired)
    events.acc_reg_ops = acc_fired
    events.gated_acc_reg_ops = acc_slots - acc_fired
    a_hop_bytes = g.tiles_n * g.cols * c.m * c.kb * c.a_block_bytes
    w_hop_bytes = g.tiles_m * g.rows * c.n * c.kb * c.w_block_bytes
    a_reuse = np.minimum(g.tpe_c, c.b)
    events.operand_reg_ops = (a_hop_bytes // a_reuse
                              + w_hop_bytes // g.tpe_a)
    events.sram_a_read_bytes = c.m * c.kb * c.a_block_bytes * g.tiles_n
    events.sram_w_read_bytes = c.w_stream_bytes * g.tiles_m
    events.sram_a_write_bytes = c.m * c.kb * c.a_block_bytes
    events.mcu_elementwise_ops = c.m * c.n
    # DAP is bypassed on dense (steps == BLOCK_SIZE) layers.
    events.dap_compare_ops = np.where(
        c.steps < BLOCK_SIZE, c.m * c.kb * (BLOCK_SIZE - 1) * c.steps, 0)
    return compute_cycles, events


def _stream_time(dram, logical_bytes: np.ndarray,
                 streams: np.ndarray) -> np.ndarray:
    """Bus time of :meth:`DRAMConfig._streamed` over columns; ``dram``
    carries the channel's timing fields (scalars or columns). Streams
    are >= 1 here and zero bytes price to 0.0, so its early return
    needs no twin."""
    per_stream = -(-logical_bytes // streams)
    return streams * DRAMConfig._transfer_time(
        dram, per_stream.astype(np.float64), np.ceil)


def _price_pass(accel: AcceleratorModel, c: _Group, geometry: np.ndarray,
                sram_mb: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(power mW, area mm², cycles, energy µJ) columns of points that
    share a datapath style and tech node; ``geometry`` holds their
    rows, cols, tpe_a and tpe_c as int64 rows.

    Each step is the column twin of the scalar ``DSEPoint.build()`` →
    ``run_layer`` → :func:`_evaluation` path, in its operation order;
    ``c`` holds each point's group scalars and ``accel`` (any point's)
    the style's and the node's constants: the energy and area costs.
    """
    rows, cols, tpe_a, tpe_c = geometry
    eff_rows, eff_cols = rows * tpe_a, cols * tpe_c
    # math.ceil(m / eff_rows) is exact integer ceil-division here.
    g = _Geometry(rows, cols, tpe_a, tpe_c, eff_rows, eff_cols,
                  tiles_m=-(-c.m // eff_rows), tiles_n=-(-c.n // eff_cols))
    time_unrolled = isinstance(accel, S2TAAW)
    layer_events = (_time_unrolled_events if time_unrolled
                    else _dot_product_events)
    compute_cycles, events = layer_events(c, g)
    # DSEPoint.build's clock: the node's, derated for the TPE dims.
    clock_ghz = get_tech(accel.tech).clock_ghz * (
        1.0 / (1.0 + 0.04 * np.maximum(0, tpe_a + tpe_c - 12)))

    # AcceleratorModel.layer_traffic (single-pass streams).
    w_pass = events.sram_w_read_bytes // g.tiles_m
    a_pass = -(-events.sram_a_read_bytes // g.tiles_n // c.window)
    w_meta = (w_pass * c.w_mask) // (c.w_pay + c.w_mask)
    a_meta = (a_pass * c.a_mask) // (c.a_pay + c.a_mask)

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
    # bandwidth enforces the roofline wall (or the layer streams). The
    # channel's timing fields are columns of a stand-in for its self.
    dram = SimpleNamespace(
        burst_bytes=c.burst_bytes, row_bytes=c.row_bytes,
        row_activate_cycles=c.row_activate_cycles,
        bytes_per_cycle=np.where(c.per_clock, c.bytes_per_cycle / clock_ghz,
                                 c.bytes_per_cycle))
    memory_cycles = np.where(
        c.capped, 0.0, np.ceil(_stream_time(dram, w_total, w_streams)
                               + _stream_time(dram, a_total, a_streams)))
    # Cycles ride float64 (exact integers: compute counts are far below
    # 2**53, and the fill bound is a float ceil), so int() on a row
    # raises on an infinite fill time exactly where the scalar path does.
    cycles = np.maximum(compute_cycles, memory_cycles)
    events.cycles = cycles
    events.dram_read_bytes = w_total + a_total
    events.dram_write_bytes = c.m * c.n  # results; no psums
    energy_pj = accel.energy_model.breakdown(events).total_pj

    # _evaluation's power and AreaModel.total_mm2. _buffer_bytes reads
    # only B off the accelerator, so a stand-in carries B's column.
    runtime_s = cycles / (clock_ghz * 1e9)
    power_mw = energy_pj * 1e-12 / runtime_s * 1e3
    macs = rows * cols * tpe_a * tpe_c
    if not time_unrolled:
        macs = macs * c.b
    buffer_bytes = type(accel)._buffer_bytes(
        SimpleNamespace(datapath_nnz=c.b, w_nnz_hw=c.b), tpe_a, tpe_c)
    costs = accel.costs
    pe_array = macs * (costs.mac_area_um2
                       + buffer_bytes * costs.buffer_area_um2_per_byte) * 1e-6
    base = (pe_array + sram_mb * costs.sram_area_mm2_per_mb
            + accel.mcus * costs.mcu_area_mm2
            + (costs.dap_area_mm2 if accel.has_dap else 0.0))
    area_mm2 = base * get_tech(accel.tech).area_scale
    return power_mw, area_mm2, cycles, energy_pj * 1e-6


def _evaluate_analytic(points: Sequence[DSEPoint]
                       ) -> Dict[str, DSEEvaluation]:
    """One :func:`_price_pass` per (style, tech) over the points' group
    scalars, gathered from one accelerator per (style, B, A-DBB, tech,
    DRAM bandwidth) group. Point fields are read as lazy columns
    (:func:`_column`): no transposed copy of the points is kept."""
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
        firsts = np.unique(which, return_index=True)[1]
        accels, groups = zip(*[_group(points[i]) for i in firsts.tolist()])
        group_columns = _Group(*(np.array(field) for field in zip(*groups)))
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
            picked = which[at]
            columns[:, at] = _price_pass(
                accels[members[0]],
                _Group(*(field[picked] for field in group_columns)),
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
    group's scalars, bit-equal to each point's scalar
    ``build().run_layer(layer())``. The whole default keyspace takes
    ~7 ms on a 2-core Xeon (best of five in one process; ~12 ms as a
    fresh interpreter's first call). ``"functional"`` simulates
    synthesized operand patterns on the cycle simulator (``seed`` as in
    the full-model experiments) through the layer runner, then
    finalizes each point; ``result_cache`` applies to that fidelity
    only.

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
