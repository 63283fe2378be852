"""Common accelerator-model machinery.

An :class:`AcceleratorModel` prices one :class:`LayerSpec` at a time in
either of two fidelity tiers:

- **Analytic fast path** (:meth:`AcceleratorModel.run_model`): the
  subclass provides closed-form compute cycles and hardware events from
  the layer's density parameters (:meth:`AcceleratorModel._layer_events`)
  — no tensor is ever executed. This is what the experiment runners use
  by default; it prices a whole ImageNet network in milliseconds.
- **Functional ground truth** (:meth:`AcceleratorModel.run_model_functional`):
  the DBB non-zero census of the layer's operands is synthesized at its
  real GEMM shape (:mod:`repro.workloads.from_spec`; masks only for
  engines that read positions) and executed on
  the cycle-level simulator (:mod:`repro.arch.systolic`) via the subclass's
  :meth:`AcceleratorModel.functional_sim_config` hook; the *measured*
  event counts price through the same energy model, making the two tiers
  directly comparable (see ``tests/test_cross_validation.py`` and
  ``benchmarks/bench_functional_vs_analytic.py`` for the agreement
  contract: SRAM bytes and MAC slots exact, fired MACs and energy within
  a few percent).

In both tiers the base class runs the layer through the
memory-hierarchy model (:mod:`repro.arch.memory`): every layer gets an
exact per-operand-class DRAM profile and a fill-bandwidth bound, and
``cycles = max(compute, memory)``. At the default channel (32 B/cycle,
no row stalls) this reproduces the old flat DMA cap as a special case —
conv layers stay compute bound and FC/depthwise layers hit the Sec. 8.3
streaming floor — while making DRAM bandwidth a sweepable axis. Events
price through the :class:`~repro.energy.model.EnergyModel` (off-chip
bytes as the separate ``dram`` component) and aggregate into
whole-network runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.arch.events import EventCounts
from repro.arch.memory import (
    DRAMConfig,
    LayerMemoryProfile,
    LayerTraffic,
    MemorySystem,
    OperandStream,
    SRAMStaging,
    window_duplication,
)
from repro.core.sparsity import GemmOperands
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.energy.model import AreaModel, EnergyBreakdown, EnergyModel
from repro.energy.tech import get_tech
from repro.models.specs import BLOCK_SIZE, LayerSpec, ModelSpec
from repro.obs import trace as obs_trace

__all__ = ["LayerResult", "AccelRunResult", "AcceleratorModel"]


@dataclass
class LayerResult:
    """Power, performance and area of one layer on one accelerator."""

    layer: LayerSpec
    compute_cycles: int
    memory_cycles: int
    events: EventCounts
    breakdown: EnergyBreakdown
    memory: Optional[LayerMemoryProfile] = None

    @property
    def cycles(self) -> int:
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles > self.compute_cycles

    @property
    def energy_pj(self) -> float:
        return self.breakdown.total_pj

    @property
    def energy_uj(self) -> float:
        return self.breakdown.total_uj


@dataclass
class AccelRunResult:
    """Power, performance and area of a whole network on one
    accelerator."""

    accelerator: str
    model: str
    tech: str
    clock_ghz: float
    layer_results: List[LayerResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.layer_results)

    @property
    def breakdown(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for r in self.layer_results:
            total = total + r.breakdown
        return total

    @property
    def energy_uj(self) -> float:
        return self.breakdown.total_uj

    @property
    def runtime_s(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def inferences_per_second(self) -> float:
        runtime = self.runtime_s
        return 1.0 / runtime if runtime > 0 else 0.0

    @property
    def inferences_per_joule(self) -> float:
        energy_j = self.energy_uj * 1e-6
        return 1.0 / energy_j if energy_j > 0 else 0.0

    @property
    def effective_tops_per_watt(self) -> float:
        energy_j = self.energy_uj * 1e-6
        ops = 2.0 * sum(r.layer.macs for r in self.layer_results)
        return ops / energy_j / 1e12 if energy_j > 0 else 0.0

    def layer(self, name: str) -> LayerResult:
        for r in self.layer_results:
            if r.layer.name == name:
                return r
        raise KeyError(f"no layer {name!r} in run")


class AcceleratorModel:
    """Base class: subclasses implement ``_layer_events``."""

    name = "accelerator"
    hardware_macs = 2048
    buffer_bytes_per_mac = 6.0  # Table 1 (scalar SA default)
    sram_mb = 2.5
    mcus = 4
    has_dap = False
    #: Staging-buffer split of ``sram_mb`` (S2TA: 512 KB WB + 2 MB AB,
    #: Sec. 6.3 — a 0.2 / 0.8 split the other designs inherit pro rata).
    wb_fraction = 0.2

    def __init__(self, tech: str = "16nm", costs: CostModel = DEFAULT_COSTS,
                 dram: Optional[DRAMConfig] = None,
                 dram_gbps: Optional[float] = None):
        self.tech = tech
        self.costs = costs
        self.energy_model = EnergyModel(tech=tech, costs=costs)
        self.clock_ghz = get_tech(tech).clock_ghz
        if dram is not None and dram_gbps is not None:
            raise ValueError("pass either dram= or dram_gbps=, not both")
        self._dram = dram
        self._dram_gbps = dram_gbps
        self._memory: Optional[MemorySystem] = None

    # -------------------------------------------------------------- #

    @property
    def memory(self) -> MemorySystem:
        """The memory hierarchy at this design point.

        Built lazily so ``dram_gbps`` converts against the accelerator's
        *final* clock (some models override the node's nominal clock
        after construction, e.g. Eyeriss v2's 200 MHz).
        """
        if self._memory is None:
            dram = self._dram
            if dram is None:
                if self._dram_gbps is not None:
                    dram = DRAMConfig.from_bandwidth(self._dram_gbps,
                                                     self.clock_ghz)
                else:
                    dram = DRAMConfig()
            sram_bytes = int(self.sram_mb * 1024 * 1024)
            wb = max(1, int(sram_bytes * self.wb_fraction))
            self._memory = MemorySystem(
                dram=dram,
                sram=SRAMStaging(wb_bytes=wb, ab_bytes=sram_bytes - wb),
            )
        return self._memory

    def _layer_events(self, layer: LayerSpec) -> Tuple[int, EventCounts]:
        """Return (compute_cycles, events) for one layer. Subclass hook."""
        raise NotImplementedError

    # -------------------------------------------------------------- #
    # Memory-hierarchy bridge (shared by both fidelity tiers)
    # -------------------------------------------------------------- #

    def _tile_geometry(self, layer: LayerSpec) -> Tuple[int, int]:
        """Output-stationary tile counts ``(tiles_m, tiles_n)``.

        Systolic models expose ``eff_rows``/``eff_cols`` (scalar arrays:
        the array dims; TPE arrays: dims times the TPE outer product).
        Models without an output-stationary tiling (the outer-product
        comparison points) fall back to a single tile — they override
        :meth:`layer_traffic` wholesale anyway.
        """
        rows = getattr(self, "eff_rows", None)
        cols = getattr(self, "eff_cols", None)
        if rows and cols:
            return math.ceil(layer.m / rows), math.ceil(layer.n / cols)
        return 1, 1

    def _dram_block_layout(
        self, layer: LayerSpec,
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Per-block ``(payload, mask)`` byte layout of (weights, acts).

        Splits each operand's DRAM stream into data versus DBB-metadata
        bytes; dense operands carry no sideband.
        """
        return (BLOCK_SIZE, 0), (BLOCK_SIZE, 0)

    def layer_traffic(self, layer: LayerSpec,
                      events: EventCounts) -> LayerTraffic:
        """One layer's DRAM streams, derived from its SRAM traffic.

        Both fidelity tiers route through this: the analytic tier passes
        its closed-form event counts, the functional tier the *measured*
        ones — and because the per-pass SRAM byte counters are exact
        across tiers (the cross-validation contract), the DRAM bytes are
        exact across tiers too. The activation stream divides by the
        im2col window duplication (DRAM holds the compact feature map;
        the AB address generators expand it on the fly).
        """
        tiles_m, tiles_n = self._tile_geometry(layer)
        w_pass = events.sram_w_read_bytes // tiles_m
        a_pass = -(-events.sram_a_read_bytes // tiles_n
                   // window_duplication(layer))
        (w_pay, w_mask), (a_pay, a_mask) = self._dram_block_layout(layer)
        w_meta = (w_pass * w_mask) // (w_pay + w_mask)
        a_meta = (a_pass * a_mask) // (a_pay + a_mask)
        return LayerTraffic(
            weights=OperandStream(w_pass - w_meta, w_meta, passes=tiles_m),
            acts=OperandStream(a_pass - a_meta, a_meta, passes=tiles_n),
            out_bytes=layer.m * layer.n,
            tiles_m=tiles_m,
            tiles_n=tiles_n,
            # Output-stationary: partial sums live in the PE accumulators
            # while operands *stream* through the staging halves, so the
            # reduction never splits along K and no psums spill (the
            # psum traffic class stays available for other dataflows).
            k_strip_bytes=0,
        )

    def _finalize_layer(self, layer: LayerSpec, compute_cycles: int,
                        events: EventCounts) -> LayerResult:
        """Shared tail of both tiers: memory profile, cap, pricing."""
        with obs_trace.span(layer.name, "finalize", accel=self.name):
            return self._finalize_layer_body(layer, compute_cycles,
                                             events)

    def _finalize_layer_body(self, layer: LayerSpec, compute_cycles: int,
                             events: EventCounts) -> LayerResult:
        profile = self.memory.profile(
            self.layer_traffic(layer, events), compute_cycles,
            name=layer.name)
        # The enforced cap: under the paper's evaluation semantics
        # (``cap_streaming_only``, the default) conv layers are assumed
        # staged ahead of compute and only the Sec. 8.3 zero-reuse
        # streams (FC weights, depthwise windows) hit the fill wall —
        # the old flat DMA cap as a special case. The profile always
        # carries the honest fill time for the roofline artifacts.
        if self.memory.dram.cap_streaming_only and not layer.memory_bound:
            memory_cycles = 0
        else:
            memory_cycles = profile.memory_cycles
        # The MCU-cluster background burns for the full (possibly
        # memory-stalled) duration.
        events.cycles = max(compute_cycles, memory_cycles)
        events.dram_read_bytes = profile.dram_read_bytes
        events.dram_write_bytes = profile.dram_write_bytes
        breakdown = self.energy_model.breakdown(events)
        return LayerResult(
            layer=layer,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            events=events,
            breakdown=breakdown,
            memory=profile,
        )

    # -------------------------------------------------------------- #

    def run_layer(self, layer: LayerSpec) -> LayerResult:
        compute_cycles, events = self._layer_events(layer)
        return self._finalize_layer(layer, compute_cycles, events)

    def prefetch(self, densities: Iterable[Tuple[float, float]]) -> None:
        """Precompute state that batches across the raw ``(w_density,
        a_density)`` pairs the next layers will ask for, in asking
        order. Subclass hook (SA-SMT simulates its density points in
        one batch); :meth:`run_model` calls it before its layer loop
        and the layer runner before it dispatches a batch."""

    def run_model(self, spec: ModelSpec, conv_only: bool = False
                  ) -> AccelRunResult:
        layers = spec.conv_layers if conv_only else spec.layers
        self.prefetch((layer.w_density, layer.a_density)
                      for layer in layers)
        result = AccelRunResult(
            accelerator=self.name,
            model=spec.name,
            tech=self.tech,
            clock_ghz=self.clock_ghz,
        )
        for layer in layers:
            result.layer_results.append(self.run_layer(layer))
        return result

    # -------------------------------------------------------------- #
    # Functional tier: synthesized operands on the cycle simulator
    # -------------------------------------------------------------- #

    def functional_sim_config(self):
        """Cycle-simulator config for this design point. Subclass hook:
        the systolic family returns a
        :class:`~repro.arch.systolic.SystolicConfig`, the fixed-dataflow
        comparison points their own engine configs (and override
        :meth:`run_gemm_functional` to build the matching engine)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no functional simulator")

    @property
    def supports_functional(self) -> bool:
        """True when this model can run the functional tier."""
        try:
            self.functional_sim_config()
        except NotImplementedError:
            return False
        return True

    def _functional_gemm_kwargs(self, layer: LayerSpec) -> dict:
        """Per-layer ``run_gemm`` knobs (A-DBB density, dense fallback)."""
        return {}

    def run_gemm_functional(self, operands: GemmOperands, **kwargs):
        """Run one concrete GEMM on the functional/cycle simulator.

        The result's cycles and events are counted from the operands'
        non-zero census (filled on first use and shared by every run on
        the same ``operands``); its ``output`` matrix is computed only
        when read. Reading a compressed-weight output compresses through
        the shared :func:`repro.core.gemm.compress_cached` memo, so
        sweeping the same workload across variants and density points
        compresses each weight tensor at most once.
        """
        from repro.arch.systolic import SystolicArray

        return SystolicArray(self.functional_sim_config()).run(
            operands, **kwargs)

    def simulate_layer_functional(
        self,
        layer: LayerSpec,
        operands: GemmOperands,
    ) -> Tuple[int, EventCounts]:
        """Measured ``(compute_cycles, events)`` of one layer's GEMM on
        the synthesized ``operands`` — the pre-finalization simulation
        payload. Only the counts are read, so no GEMM output is
        computed and no weight tensor is compressed.

        This is the unit of work the layer runner
        (:mod:`repro.eval.runner`) executes and the result cache
        (:mod:`repro.eval.resultcache`) memoizes: the runner passes one
        census, :func:`repro.workloads.from_spec.spec_census` for
        (layer, seed), drawn once per operand key and shared by every
        accelerator in the batch; masks are materialized only for
        engines that read positions.
        """
        with obs_trace.span(layer.name, "simulate", accel=self.name):
            sim = self.run_gemm_functional(
                operands, **self._functional_gemm_kwargs(layer))
        return sim.cycles, sim.events

    def run_layer_functional(
        self,
        layer: LayerSpec,
        seed: int = 0,
        result_cache=None,
    ) -> LayerResult:
        """Execute one layer's GEMM on synthesized operands.

        The simulation runs as a one-task batch of the layer runner
        (:func:`repro.eval.runner.simulate_layer_tasks`), so
        ``result_cache`` (a :class:`repro.eval.resultcache.ResultCache`)
        memoizes the payload on disk exactly as it does for whole
        models; finalization always re-runs, so a cache hit is
        bit-equal to a cold simulation.

        The measured events feed the same memory model as the analytic
        tier; the per-pass SRAM counters are bit-equal across tiers, so
        the DRAM bytes cross-validate exactly (asserted in
        tests/test_cross_validation.py).
        """
        from repro.eval.runner import LayerSimTask, simulate_layer_tasks

        ((compute_cycles, events),) = simulate_layer_tasks(
            [LayerSimTask(self, layer, seed=seed)],
            result_cache=result_cache)
        return self._finalize_layer(layer, compute_cycles, events)

    def run_model_functional(
        self,
        spec: ModelSpec,
        conv_only: bool = False,
        seed: int = 0,
        result_cache=None,
    ) -> AccelRunResult:
        """Functional-tier counterpart of :meth:`run_model`.

        Every selected layer synthesizes its operands' non-zero
        patterns and executes on the cycle simulator; results aggregate
        exactly like the analytic path, so ``run_model`` and
        ``run_model_functional`` are directly comparable run for run.
        The layer simulations run as one batch of the memoized runner
        (:mod:`repro.eval.runner`), against ``result_cache`` when given.
        """
        from repro.eval.runner import functional_model_runs

        return functional_model_runs(
            [(self, spec)], conv_only=conv_only, seed=seed,
            result_cache=result_cache)[0]

    # -------------------------------------------------------------- #

    def area_mm2(self) -> float:
        return self._area_model().total_mm2

    def area_breakdown_mm2(self) -> dict:
        return self._area_model().breakdown_mm2()

    def _area_model(self) -> AreaModel:
        return AreaModel(
            macs=self.hardware_macs,
            buffer_bytes_per_mac=self.buffer_bytes_per_mac,
            sram_mb=self.sram_mb,
            mcus=self.mcus,
            has_dap=self.has_dap,
            tech=self.tech,
            costs=self.costs,
        )

    # -------------------------------------------------------------- #

    def microbench_layer(
        self,
        w_density: float,
        a_density: float,
        w_nnz: Optional[int] = None,
        a_nnz: Optional[int] = None,
        m: int = 1024,
        k: int = 1152,
        n: int = 256,
    ) -> LayerResult:
        """Run the Sec. 8.2 synthetic conv layer at given sparsity."""
        from repro.models.specs import LayerKind

        layer = LayerSpec(
            "microbench",
            LayerKind.CONV,
            m=m, k=k, n=n,
            w_nnz=w_nnz if w_nnz is not None
            else max(1, round(w_density * BLOCK_SIZE)),
            a_nnz=a_nnz if a_nnz is not None
            else max(1, round(a_density * BLOCK_SIZE)),
            weight_density=w_density,
            act_density=a_density,
        )
        return self.run_layer(layer)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tech={self.tech!r})"
