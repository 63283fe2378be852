"""Exhaustive design-space exploration — the Sec. 7 sweep, widened.

The paper's Sec. 7 sweep walks a few dozen ``AxBxC_MxN`` points on one
workload and picks the lowest-power design inside an area budget. This
module keeps that shape on a wider keyspace (:class:`DSESpace`: array
geometry, TPE dims, datapath style, the DBB weight bound B, the
per-layer activation DBB bound, SRAM size, DRAM bandwidth and tech
node — 2,712 points by default): enumerate every point, evaluate each
one (analytic by default, optionally functional), and take the
three-dimensional (energy, cycles, area) Pareto frontier, so
latency-optimal designs survive alongside the paper's power pick. The
analytic sweep calls each point's closed forms directly and covers the
default space in well under a second, so nothing is sampled and
nothing is cached; only a functional sweep goes through the layer
runner's process pool and result cache. ``repro dse`` is the CLI
front-end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.design.space import DesignPoint, enumerate_design_space
from repro.eval.tables import ExperimentResult
from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs.trace import traced
from repro.workloads.typical import typical_conv_layer

__all__ = [
    "DSEAxes", "DSEPoint", "DSEEvaluation", "DSESpace",
    "evaluate_points", "pareto_frontier_3d", "run_dse", "render_artifact",
]


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
        for nnz in self.weight_nnz + self.a_nnz:
            if not 1 <= nnz <= BLOCK_SIZE:
                raise ValueError(
                    f"DBB bounds must be in [1, {BLOCK_SIZE}], got {nnz}")
        if any(s <= 0 for s in self.sram_mb):
            raise ValueError("sram_mb values must be positive")
        if any(bw is not None and bw <= 0 for bw in self.dram_gbps):
            raise ValueError("dram_gbps values must be positive (or None)")

    def as_dict(self) -> dict:
        return {field.name: list(getattr(self, field.name))
                for field in dataclasses.fields(self)}


@dataclass(frozen=True)
class DSEPoint:
    """One fully-specified configuration in the DSE keyspace."""

    design: DesignPoint
    a_nnz: int = 4
    sram_mb: float = 2.5
    dram_gbps: Optional[float] = None
    tech: str = "16nm"

    @property
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
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DSEEvaluation":
        return cls(**data)


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance on minimized objective tuples: ``a`` is no
    worse everywhere and strictly better somewhere."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_frontier_3d(
    evaluations: Iterable[DSEEvaluation],
) -> List[DSEEvaluation]:
    """Non-dominated points on (energy, cycles, area).

    Exact objective ties all survive, and the result — content and
    order — is a pure function of the evaluation *set*, independent of
    input order (the property test in ``tests/design/test_dse.py``).
    """
    ranked = sorted(evaluations, key=lambda e: (e.objectives, e.uid))
    frontier: List[DSEEvaluation] = []
    for entry in ranked:
        if any(_dominates(kept.objectives, entry.objectives)
               for kept in frontier):
            continue
        frontier = [kept for kept in frontier
                    if not _dominates(entry.objectives, kept.objectives)]
        frontier.append(entry)
    return sorted(frontier, key=lambda e: (e.objectives, e.uid))


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
    events point by point — sub-millisecond each, which is what makes a
    thousands-of-points sweep interactive. ``"functional"`` simulates
    synthesized operand patterns on the cycle simulator (``seed`` /
    ``max_m`` as in the full-model experiments) through the parallel,
    memoized layer runner; ``jobs`` and ``result_cache`` apply to that
    fidelity only.
    """
    from repro.eval.runner import LayerSimTask, simulate_layer_tasks

    if fidelity not in ("analytic", "functional"):
        raise ValueError(f"unknown fidelity {fidelity!r}")
    out: Dict[str, DSEEvaluation] = {}
    if fidelity == "analytic":
        for point in points:
            accel = point.build()
            out[point.uid] = _evaluation(
                point, accel, accel.run_layer(point.layer()))
        return out
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
